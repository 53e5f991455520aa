//! Population subsampling for crowd-scale sweeps.
//!
//! The paper's crowd statistics (mean ACCUBENCH score, RSD, percentiles) are
//! population-level claims. Simulating every device in a 10⁶-unit fleet is
//! infeasible, but the silicon generator already knows each die's process
//! grade *before* any expensive thermal simulation runs — a cheap auxiliary
//! variable that is strongly correlated with the final score. This module
//! exploits that with three designs:
//!
//! - **SRS** — simple random sampling without replacement; the unbiased
//!   baseline with no use of the auxiliary variable.
//! - **RSS** — ranked set sampling: draw candidate sets, rank them by the
//!   auxiliary grade, and measure one unit per rank. More efficient than SRS
//!   whenever ranking correlates with the response.
//! - **Stratified** — two-phase stratified sampling: phase one assigns every
//!   unit to a stratum from its silicon-grade bin (the same `floor(grade·H)`
//!   rule the binning layer uses), phase two draws a proportional SRS within
//!   each stratum with deterministic largest-remainder allocation.
//!
//! All selection is deterministic for a fixed seed, and every estimate
//! carries a percentile-bootstrap confidence interval (resampling within
//! strata so stratification survives the resample).

use crate::bootstrap::ConfidenceInterval;
use crate::StatsError;
use core::borrow::Borrow;
use pv_rng::rngs::StdRng;
use pv_rng::{Rng, SeedableRng};

/// Subsampling design for a crowd sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Simple random sampling without replacement.
    Srs,
    /// Ranked set sampling on the auxiliary variable.
    Rss,
    /// Two-phase stratified sampling with proportional allocation.
    Stratified,
}

impl Strategy {
    /// Parses a CLI strategy name (`srs`, `rss`, `stratified`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, StatsError> {
        match name {
            "srs" => Ok(Self::Srs),
            "rss" => Ok(Self::Rss),
            "stratified" => Ok(Self::Stratified),
            _ => Err(StatsError::InvalidParameter(
                "unknown sampling strategy (expected srs, rss, or stratified)",
            )),
        }
    }

    /// Canonical CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Srs => "srs",
            Self::Rss => "rss",
            Self::Stratified => "stratified",
        }
    }
}

/// One group of selected units sharing an estimation weight.
///
/// SRS and RSS selections produce a single group; stratified selections
/// produce one group per non-empty stratum with `weight = N_h / N`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionGroup {
    /// Relative population weight of the group (normalized at estimation).
    pub weight: f64,
    /// Population indices selected into this group, ascending.
    pub indices: Vec<usize>,
}

/// The result of a sampling design: which population indices to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Design that produced the selection.
    pub strategy: Strategy,
    /// All selected population indices, ascending and distinct.
    pub indices: Vec<usize>,
    /// Weighted groups for estimation (partition of `indices`).
    pub groups: Vec<SelectionGroup>,
}

/// Selects `n` of the `aux.len()` population units using `strategy`.
///
/// `aux` is the auxiliary ranking variable (silicon grade in `[0, 1]`);
/// `strata` is the stratum/rank-set count (the silicon bin count). The
/// selection is deterministic for a fixed `seed`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] when `n` is zero or exceeds the
/// population, or `strata == 0`; [`StatsError::NonFiniteValue`] when any
/// auxiliary value is non-finite.
pub fn select(
    strategy: Strategy,
    aux: &[f64],
    n: usize,
    strata: usize,
    seed: u64,
) -> Result<Selection, StatsError> {
    if n == 0 {
        return Err(StatsError::InvalidParameter("zero sample size"));
    }
    if n > aux.len() {
        return Err(StatsError::InvalidParameter(
            "sample size exceeds population",
        ));
    }
    if strata == 0 {
        return Err(StatsError::InvalidParameter("zero strata"));
    }
    if aux.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteValue);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    match strategy {
        Strategy::Srs => {
            let mut indices = srs_indices(&mut rng, aux.len(), n);
            indices.sort_unstable();
            Ok(Selection {
                strategy,
                groups: vec![SelectionGroup {
                    weight: 1.0,
                    indices: indices.clone(),
                }],
                indices,
            })
        }
        Strategy::Rss => {
            let indices = rss_indices(&mut rng, aux, n, strata);
            Ok(Selection {
                strategy,
                groups: vec![SelectionGroup {
                    weight: 1.0,
                    indices: indices.clone(),
                }],
                indices,
            })
        }
        Strategy::Stratified => stratified_selection(&mut rng, aux, n, strata),
    }
}

/// Partial Fisher–Yates: `n` distinct indices from `0..pop`, unsorted.
fn srs_indices(rng: &mut StdRng, pop: usize, n: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..pop).collect();
    for i in 0..n {
        let j = rng.gen_range(i..pop);
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// Ranked set sampling with set size `m`: cycle over ranks, draw `m`
/// candidates per quantified unit, rank by `aux`, keep the unit holding the
/// current rank. Candidates never include already-measured units, so the
/// measured sample is without replacement.
fn rss_indices(rng: &mut StdRng, aux: &[f64], n: usize, m: usize) -> Vec<usize> {
    let pop = aux.len();
    let m = m.min(pop).max(1);
    let mut measured = vec![false; pop];
    let mut out = Vec::with_capacity(n);
    let mut candidates: Vec<usize> = Vec::with_capacity(m);
    for draw in 0..n {
        let rank = draw % m;
        candidates.clear();
        // Draw up to m distinct un-measured candidates; fall back to fewer
        // when the un-measured pool runs low (n close to the population).
        let available = pop - out.len();
        let want = m.min(available);
        let mut guard = 0usize;
        while candidates.len() < want && guard < pop * 4 {
            let c = rng.gen_range(0..pop);
            guard += 1;
            if !measured[c] && !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        if candidates.is_empty() {
            // Degenerate fallback: linear scan for any free unit.
            if let Some(c) = measured.iter().position(|&u| !u) {
                candidates.push(c);
            } else {
                break;
            }
        }
        // Rank candidates by the auxiliary variable (ties by index so the
        // choice is deterministic).
        candidates.sort_unstable_by(|&a, &b| {
            aux[a]
                .partial_cmp(&aux[b])
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let pick = candidates[rank.min(candidates.len() - 1)];
        measured[pick] = true;
        out.push(pick);
    }
    out.sort_unstable();
    out
}

/// Two-phase stratified selection: assign strata from the auxiliary grade,
/// allocate proportionally (largest remainder, ties to the lower stratum),
/// then SRS within each stratum.
fn stratified_selection(
    rng: &mut StdRng,
    aux: &[f64],
    n: usize,
    strata: usize,
) -> Result<Selection, StatsError> {
    // Phase one: stratum membership from the grade bin, matching the
    // silicon layer's `floor(grade · H)` rule with the top edge clamped.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); strata];
    for (i, &g) in aux.iter().enumerate() {
        let h = ((g.max(0.0) * strata as f64) as usize).min(strata - 1);
        members[h].push(i);
    }
    let pop = aux.len() as f64;
    // Proportional allocation via largest remainder.
    let mut alloc: Vec<usize> = Vec::with_capacity(strata);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(strata);
    let mut assigned = 0usize;
    for (h, m) in members.iter().enumerate() {
        let quota = n as f64 * m.len() as f64 / pop;
        let base = quota.floor() as usize;
        alloc.push(base.min(m.len()));
        assigned += alloc[h];
        remainders.push((h, quota - base as f64));
    }
    // Hand out the remaining draws by descending fractional remainder,
    // ties broken toward the lower stratum index.
    remainders.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let mut cursor = 0usize;
    while assigned < n {
        let (h, _) = remainders[cursor % remainders.len()];
        cursor += 1;
        if alloc[h] < members[h].len() {
            alloc[h] += 1;
            assigned += 1;
        }
        if cursor > strata * (n + 1) {
            return Err(StatsError::InvalidParameter(
                "stratified allocation failed to converge",
            ));
        }
    }
    // Every non-empty stratum should contribute at least one unit when the
    // budget allows; otherwise its weight would silently vanish from the
    // estimator.
    let nonempty = members.iter().filter(|m| !m.is_empty()).count();
    if n >= nonempty {
        while let Some(starved) = (0..strata).find(|&h| !members[h].is_empty() && alloc[h] == 0) {
            let donor = (0..strata)
                .filter(|&h| alloc[h] > 1)
                .max_by_key(|&h| (alloc[h], core::cmp::Reverse(h)))
                .ok_or(StatsError::InvalidParameter(
                    "stratified allocation cannot cover all strata",
                ))?;
            alloc[donor] -= 1;
            alloc[starved] += 1;
        }
    }
    // Phase two: SRS within each stratum, in ascending stratum order so the
    // RNG consumption (and hence the selection) is deterministic.
    let mut groups = Vec::new();
    let mut indices = Vec::with_capacity(n);
    for (h, m) in members.iter().enumerate() {
        if m.is_empty() || alloc[h] == 0 {
            continue;
        }
        let mut pool = m.clone();
        for i in 0..alloc[h] {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(alloc[h]);
        pool.sort_unstable();
        indices.extend_from_slice(&pool);
        groups.push(SelectionGroup {
            weight: m.len() as f64 / pop,
            indices: pool,
        });
    }
    indices.sort_unstable();
    Ok(Selection {
        strategy: Strategy::Stratified,
        indices,
        groups,
    })
}

/// Measured responses for one selection group.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSample {
    /// Relative population weight (normalized over all groups).
    pub weight: f64,
    /// Observed responses for the group's units.
    pub values: Vec<f64>,
}

/// Point estimates with bootstrap confidence intervals for the crowd
/// statistics a sweep reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimates {
    /// Total measured units across all groups.
    pub n: usize,
    /// Population mean estimate.
    pub mean: ConfidenceInterval,
    /// Population relative standard deviation (percent of mean, plug-in
    /// `√(E[y²] − mean²)` — the population σ, not the n−1 sample σ).
    pub rsd_percent: ConfidenceInterval,
    /// Median estimate (weighted empirical quantile).
    pub p50: ConfidenceInterval,
    /// 90th-percentile estimate (weighted empirical quantile).
    pub p90: ConfidenceInterval,
}

pv_json::impl_to_json!(Estimates {
    n,
    mean,
    rsd_percent,
    p50,
    p90
});

/// Computes weighted point estimates over `groups` and percentile-bootstrap
/// confidence intervals by resampling *within* each group (so a stratified
/// design stays stratified across resamples). Deterministic for a fixed
/// `seed`.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] when no group holds a value,
/// [`StatsError::NonFiniteValue`] on non-finite responses or weights, and
/// [`StatsError::InvalidParameter`] on a bad level/resample count or
/// non-positive weight.
pub fn estimate(
    groups: &[StratumSample],
    level: f64,
    resamples: usize,
    seed: u64,
) -> Result<Estimates, StatsError> {
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidParameter("level outside (0,1)"));
    }
    if resamples == 0 {
        return Err(StatsError::InvalidParameter("zero resamples"));
    }
    let live: Vec<&StratumSample> = groups.iter().filter(|g| !g.values.is_empty()).collect();
    if live.is_empty() {
        return Err(StatsError::EmptySample);
    }
    for g in &live {
        if !g.weight.is_finite() || g.weight <= 0.0 {
            return Err(StatsError::InvalidParameter("non-positive group weight"));
        }
        if g.values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteValue);
        }
    }
    let n: usize = live.iter().map(|g| g.values.len()).sum();
    // (value, weight) pairs of the quantile scan, reused by every resample.
    let mut pairs = Vec::with_capacity(n);
    let point = point_estimates(&live, &mut pairs)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut boots: [Vec<f64>; 4] = [
        Vec::with_capacity(resamples),
        Vec::with_capacity(resamples),
        Vec::with_capacity(resamples),
        Vec::with_capacity(resamples),
    ];
    let mut resampled: Vec<StratumSample> = live
        .iter()
        .map(|g| StratumSample {
            weight: g.weight,
            values: vec![0.0; g.values.len()],
        })
        .collect();
    for _ in 0..resamples {
        for (dst, src) in resampled.iter_mut().zip(&live) {
            for slot in dst.values.iter_mut() {
                *slot = src.values[rng.gen_range(0..src.values.len())];
            }
        }
        let p = point_estimates(&resampled, &mut pairs)?;
        boots[0].push(p[0]);
        boots[1].push(p[1]);
        boots[2].push(p[2]);
        boots[3].push(p[3]);
    }
    let alpha = (1.0 - level) / 2.0;
    let ci = |stat: &[f64], point: f64| -> Result<ConfidenceInterval, StatsError> {
        Ok(ConfidenceInterval {
            lo: crate::quantile(stat, alpha)?,
            hi: crate::quantile(stat, 1.0 - alpha)?,
            point,
            level,
        })
    };
    Ok(Estimates {
        n,
        mean: ci(&boots[0], point[0])?,
        rsd_percent: ci(&boots[1], point[1])?,
        p50: ci(&boots[2], point[2])?,
        p90: ci(&boots[3], point[3])?,
    })
}

/// `[mean, rsd_percent, p50, p90]` for one set of weighted groups, using
/// `pairs` as the quantile scan's buffer.
fn point_estimates<S: Borrow<StratumSample>>(
    groups: &[S],
    pairs: &mut Vec<(f64, f64)>,
) -> Result<[f64; 4], StatsError> {
    let wsum: f64 = groups.iter().map(|g| g.borrow().weight).sum();
    let mut mean = 0.0;
    let mut mean_sq = 0.0;
    for g in groups {
        let g = g.borrow();
        let w = g.weight / wsum;
        let gn = g.values.len() as f64;
        let gm: f64 = g.values.iter().sum::<f64>() / gn;
        let gm2: f64 = g.values.iter().map(|v| v * v).sum::<f64>() / gn;
        mean += w * gm;
        mean_sq += w * gm2;
    }
    let var = (mean_sq - mean * mean).max(0.0);
    let rsd = if mean != 0.0 {
        var.sqrt() / mean.abs() * 100.0
    } else {
        return Err(StatsError::InvalidParameter("zero mean"));
    };
    let [p50, p90] = weighted_quantiles(groups, wsum, [0.50, 0.90], pairs)?;
    Ok([mean, rsd, p50, p90])
}

/// Weighted empirical quantiles at ascending levels `qs`: each value in
/// group `h` carries weight `W_h / n_h`, and the quantile at `q` is the
/// smallest value whose cumulative weight reaches `q`. One stable sort and
/// one cumulative scan serve every level; `pairs` is scratch.
fn weighted_quantiles<S: Borrow<StratumSample>, const N: usize>(
    groups: &[S],
    wsum: f64,
    qs: [f64; N],
    pairs: &mut Vec<(f64, f64)>,
) -> Result<[f64; N], StatsError> {
    debug_assert!(qs.windows(2).all(|w| w[0] <= w[1]), "levels must ascend");
    pairs.clear();
    for g in groups {
        let g = g.borrow();
        let per = g.weight / wsum / g.values.len() as f64;
        pairs.extend(g.values.iter().map(|&v| (v, per)));
    }
    if pairs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
    // A level the scan never reaches (rounding) falls back to the top value.
    let mut out = [pairs[pairs.len() - 1].0; N];
    let mut next = 0;
    let mut acc = 0.0;
    for &(v, w) in pairs.iter() {
        acc += w;
        while next < N && acc >= qs[next] - 1e-12 {
            out[next] = v;
            next += 1;
        }
        if next == N {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grades(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / (n.max(2) - 1) as f64).collect()
    }

    #[test]
    fn strategy_parse_round_trips() {
        for s in [Strategy::Srs, Strategy::Rss, Strategy::Stratified] {
            assert_eq!(Strategy::parse(s.as_str()).unwrap(), s);
        }
        assert!(Strategy::parse("bogus").is_err());
    }

    #[test]
    fn selection_is_deterministic_and_distinct() {
        let aux = grades(5000);
        for strategy in [Strategy::Srs, Strategy::Rss, Strategy::Stratified] {
            let a = select(strategy, &aux, 200, 7, 42).unwrap();
            let b = select(strategy, &aux, 200, 7, 42).unwrap();
            assert_eq!(a, b, "{strategy:?}");
            assert_eq!(a.indices.len(), 200, "{strategy:?}");
            let mut sorted = a.indices.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 200, "{strategy:?} produced duplicates");
            assert!(a.indices.windows(2).all(|w| w[0] < w[1]));
            let c = select(strategy, &aux, 200, 7, 43).unwrap();
            assert_ne!(a.indices, c.indices, "{strategy:?} ignores the seed");
        }
    }

    #[test]
    fn selection_groups_partition_indices() {
        let aux = grades(1000);
        let sel = select(Strategy::Stratified, &aux, 100, 7, 1).unwrap();
        let mut from_groups: Vec<usize> = sel
            .groups
            .iter()
            .flat_map(|g| g.indices.iter().copied())
            .collect();
        from_groups.sort_unstable();
        assert_eq!(from_groups, sel.indices);
        // Proportional allocation: every stratum of a uniform population
        // gets a near-equal share.
        for g in &sel.groups {
            assert!(g.indices.len() >= 100 / 7, "starved stratum");
        }
    }

    #[test]
    fn stratified_covers_every_nonempty_stratum() {
        // Heavily skewed population: stratum 6 holds two units only.
        let mut aux = vec![0.05; 500];
        aux.push(0.99);
        aux.push(0.98);
        let sel = select(Strategy::Stratified, &aux, 50, 7, 9).unwrap();
        assert_eq!(sel.groups.len(), 2);
        assert!(sel.indices.contains(&500) || sel.indices.contains(&501));
    }

    #[test]
    fn selection_validates_inputs() {
        let aux = grades(10);
        assert!(select(Strategy::Srs, &aux, 0, 7, 1).is_err());
        assert!(select(Strategy::Srs, &aux, 11, 7, 1).is_err());
        assert!(select(Strategy::Stratified, &aux, 2, 0, 1).is_err());
        assert!(select(Strategy::Srs, &[f64::NAN; 4], 2, 7, 1).is_err());
    }

    #[test]
    fn full_census_selects_everyone() {
        let aux = grades(64);
        for strategy in [Strategy::Srs, Strategy::Rss, Strategy::Stratified] {
            let sel = select(strategy, &aux, 64, 7, 3).unwrap();
            assert_eq!(sel.indices, (0..64).collect::<Vec<_>>(), "{strategy:?}");
        }
    }

    #[test]
    fn estimates_recover_known_population() {
        // Synthetic response linear in grade: y = 30 + 20·g over a uniform
        // population → mean 40, p50 ≈ 40, p90 ≈ 48.
        let aux = grades(20_000);
        let y: Vec<f64> = aux.iter().map(|g| 30.0 + 20.0 * g).collect();
        for strategy in [Strategy::Srs, Strategy::Rss, Strategy::Stratified] {
            let sel = select(strategy, &aux, 500, 7, 11).unwrap();
            let groups: Vec<StratumSample> = sel
                .groups
                .iter()
                .map(|g| StratumSample {
                    weight: g.weight,
                    values: g.indices.iter().map(|&i| y[i]).collect(),
                })
                .collect();
            let est = estimate(&groups, 0.95, 500, 99).unwrap();
            assert_eq!(est.n, 500);
            assert!(
                (est.mean.point - 40.0).abs() < 1.0,
                "{strategy:?} mean {:?}",
                est.mean
            );
            assert!(est.mean.contains(est.mean.point));
            assert!((est.p50.point - 40.0).abs() < 2.0, "{strategy:?}");
            assert!((est.p90.point - 48.0).abs() < 2.0, "{strategy:?}");
            // Population RSD of U(30,50): σ = 20/√12 ≈ 5.77 → ~14.4%.
            assert!(
                (est.rsd_percent.point - 14.4).abs() < 2.0,
                "{strategy:?} rsd {:?}",
                est.rsd_percent
            );
        }
    }

    #[test]
    fn stratified_beats_srs_variance_on_correlated_response() {
        let aux = grades(50_000);
        let y: Vec<f64> = aux.iter().map(|g| 30.0 + 20.0 * g).collect();
        let width = |strategy| {
            let sel = select(strategy, &aux, 400, 7, 5).unwrap();
            let groups: Vec<StratumSample> = sel
                .groups
                .iter()
                .map(|g| StratumSample {
                    weight: g.weight,
                    values: g.indices.iter().map(|&i| y[i]).collect(),
                })
                .collect();
            estimate(&groups, 0.95, 400, 17).unwrap().mean.width()
        };
        assert!(width(Strategy::Stratified) < width(Strategy::Srs));
    }

    #[test]
    fn estimate_is_deterministic() {
        let groups = [StratumSample {
            weight: 1.0,
            values: (0..50).map(|i| 40.0 + (i % 7) as f64).collect(),
        }];
        let a = estimate(&groups, 0.95, 300, 4).unwrap();
        let b = estimate(&groups, 0.95, 300, 4).unwrap();
        assert_eq!(a, b);
        let c = estimate(&groups, 0.95, 300, 5).unwrap();
        assert_ne!(a.mean, c.mean);
    }

    #[test]
    fn estimate_validates_inputs() {
        let ok = [StratumSample {
            weight: 1.0,
            values: vec![1.0, 2.0],
        }];
        assert!(estimate(&ok, 0.0, 100, 1).is_err());
        assert!(estimate(&ok, 0.95, 0, 1).is_err());
        assert!(estimate(&[], 0.95, 100, 1).is_err());
        let bad_w = [StratumSample {
            weight: -1.0,
            values: vec![1.0],
        }];
        assert!(estimate(&bad_w, 0.95, 100, 1).is_err());
        let bad_v = [StratumSample {
            weight: 1.0,
            values: vec![f64::NAN],
        }];
        assert!(estimate(&bad_v, 0.95, 100, 1).is_err());
    }

    /// One quantile per sort and scan, as `estimate` computed them before
    /// p50 and p90 shared one: the oracle for `weighted_quantiles`.
    fn weighted_quantile_oracle(groups: &[StratumSample], wsum: f64, q: f64) -> f64 {
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for g in groups {
            let per = g.weight / wsum / g.values.len() as f64;
            pairs.extend(g.values.iter().map(|&v| (v, per)));
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
        let mut acc = 0.0;
        for &(v, w) in &pairs {
            acc += w;
            if acc >= q - 1e-12 {
                return v;
            }
        }
        pairs[pairs.len() - 1].0
    }

    #[test]
    fn shared_sort_quantiles_match_one_sort_per_level() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut pairs = Vec::new();
        for case in 0..200 {
            let groups: Vec<StratumSample> = (0..1 + case % 5)
                .map(|_| StratumSample {
                    weight: rng.gen_range(0.05..3.0),
                    // Coarse values so ties are common.
                    values: (0..rng.gen_range(1..40usize))
                        .map(|_| f64::from(rng.gen_range(0..25u32)) * 0.5)
                        .collect(),
                })
                .collect();
            let wsum: f64 = groups.iter().map(|g| g.weight).sum();
            let qs = [0.1, 0.5, 0.5, 0.9, 1.0];
            let got = weighted_quantiles(&groups, wsum, qs, &mut pairs).unwrap();
            for (&q, &v) in qs.iter().zip(&got) {
                let want = weighted_quantile_oracle(&groups, wsum, q);
                assert_eq!(v.to_bits(), want.to_bits(), "case {case} q {q}");
            }
        }
    }

    #[test]
    fn weighted_quantile_respects_weights() {
        // Two strata: 90% of weight at value 10, 10% at value 100.
        let groups = [
            StratumSample {
                weight: 0.9,
                values: vec![10.0; 9],
            },
            StratumSample {
                weight: 0.1,
                values: vec![100.0; 9],
            },
        ];
        let mut pairs = Vec::new();
        let q = weighted_quantiles(&groups, 1.0, [0.5, 0.95], &mut pairs).unwrap();
        assert_eq!(q, [10.0, 100.0]);
    }
}
