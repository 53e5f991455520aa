//! Streaming, mergeable crowd-score aggregation (DESIGN.md §16).
//!
//! The full-fleet [`CrowdDatabase`](crate::crowd::CrowdDatabase) retains
//! every accepted submission — O(devices) memory — which caps sweeps around
//! 10³–10⁴ devices. [`ScoreAggregate`] replaces that with a constant-size
//! partial aggregate: count/mean/M2 moments ([`pv_stats::stream::Moments`]),
//! a fixed-bin score histogram ([`pv_stats::histogram::Histogram`]) and a
//! bounded top-K leaderboard. The sweep's single-writer sink folds each
//! device, in canonical (ascending device index) order, into the partial of
//! its fixed-size group and merges the group partials in ascending order,
//! so sweep memory is O(bins + K) however large the fleet grows.
//!
//! ## Aggregation algebra
//!
//! * Admission is **identical** to `CrowdDatabase::submit` — the same
//!   pointwise finite/positive-score and RSD-filter rules, so the streaming
//!   path accepts exactly the submissions the oracle accepts, in any order.
//! * `accepted`/`rejected` counters, histogram bin counts and the top-K set
//!   merge *exactly* (integer counts below 2⁵³ and bounded-set union are
//!   associative); moments merge with Chan's update, which is bitwise
//!   deterministic for a **fixed** chunk grid and ascending merge order but
//!   only ULP-close across different grids (see `pv_stats::stream`).
//! * The sweep engine fixes the grid absolutely
//!   ([`crate::crowd::STREAM_GROUP`] devices, aligned to device index 0),
//!   making streamed results byte-identical across thread counts, batch
//!   widths and kill+resume.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::BenchError;
use core::fmt;
use pv_stats::histogram::Histogram;
use pv_stats::stream::Moments;
use pv_stats::StatsError;

/// Default score-histogram lower bound.
pub const DEFAULT_HIST_LO: f64 = 0.0;
/// Default score-histogram upper bound. ACCUBENCH scores are iterations per
/// workload window; the default range is generous and out-of-range scores
/// still land in the tracked under/overflow counters (and are flagged by
/// the renderer), so a mis-sized range loses percentile resolution, never
/// data.
pub const DEFAULT_HIST_HI: f64 = 400.0;
/// Default score-histogram bin count.
pub const DEFAULT_HIST_BINS: usize = 80;
/// Default leaderboard capacity.
pub const DEFAULT_TOP_K: usize = 10;

/// One leaderboard entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TopEntry {
    /// Device label.
    pub device: String,
    /// Accepted score.
    pub score: f64,
}

/// A bounded best-first leaderboard with exact merge semantics: the top-K
/// of a union equals the merge of the per-part top-Ks, so partial
/// leaderboards can be folded worker-side and combined in any grouping.
/// Ordering is score-descending with the device label as a total
/// tie-break, so the result is independent of fold order even with tied
/// scores.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    k: usize,
    entries: Vec<TopEntry>,
}

impl TopK {
    /// An empty leaderboard keeping the best `k` entries.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            entries: Vec::with_capacity(k.min(64)),
        }
    }

    /// Offers one entry.
    pub fn offer(&mut self, device: &str, score: f64) {
        if self.k == 0 {
            return;
        }
        if self.entries.len() == self.k {
            // Full: reject anything not better than the current worst.
            if let Some(worst) = self.entries.last() {
                if !Self::better(score, device, worst) {
                    return;
                }
            }
            self.entries.pop();
        }
        let entry = TopEntry {
            device: device.to_owned(),
            score,
        };
        let at = self
            .entries
            .partition_point(|e| Self::better(e.score, &e.device, &entry));
        self.entries.insert(at, entry);
    }

    /// `true` when `(score, device)` outranks `than`.
    fn better(score: f64, device: &str, than: &TopEntry) -> bool {
        match score.total_cmp(&than.score) {
            core::cmp::Ordering::Greater => true,
            core::cmp::Ordering::Less => false,
            core::cmp::Ordering::Equal => device < than.device.as_str(),
        }
    }

    /// Merges another leaderboard (same or different `k`) into this one.
    pub fn merge(&mut self, other: &Self) {
        for e in &other.entries {
            self.offer(&e.device, e.score);
        }
    }

    /// Current entries, best first.
    pub fn entries(&self) -> &[TopEntry] {
        &self.entries
    }

    /// Leaderboard capacity.
    pub fn capacity(&self) -> usize {
        self.k
    }
}

/// Constant-size mergeable aggregate of one model's crowd scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreAggregate {
    max_rsd: f64,
    moments: Moments,
    hist: Histogram,
    top: TopK,
    accepted: u64,
    rejected: u64,
}

impl ScoreAggregate {
    /// Creates an aggregate with the default histogram layout and
    /// leaderboard capacity, filtering at `max_rsd_percent` exactly like
    /// [`CrowdDatabase::new`](crate::crowd::CrowdDatabase::new).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::InvalidProtocol`] for a non-positive filter.
    pub fn new(max_rsd_percent: f64) -> Result<Self, BenchError> {
        Self::with_layout(
            max_rsd_percent,
            DEFAULT_HIST_LO,
            DEFAULT_HIST_HI,
            DEFAULT_HIST_BINS,
            DEFAULT_TOP_K,
        )
    }

    /// Creates an aggregate with an explicit histogram layout and
    /// leaderboard capacity. All partials that will ever be merged must be
    /// built with the same layout.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::InvalidProtocol`] for a non-positive RSD
    /// filter or an invalid histogram layout.
    pub fn with_layout(
        max_rsd_percent: f64,
        hist_lo: f64,
        hist_hi: f64,
        bins: usize,
        k: usize,
    ) -> Result<Self, BenchError> {
        if !(max_rsd_percent > 0.0 && max_rsd_percent.is_finite()) {
            return Err(BenchError::InvalidProtocol("max_rsd must be > 0"));
        }
        Ok(Self {
            max_rsd: max_rsd_percent,
            moments: Moments::new(),
            hist: Histogram::new(hist_lo, hist_hi, bins)?,
            top: TopK::new(k),
            accepted: 0,
            rejected: 0,
        })
    }

    /// An empty partial with this aggregate's layout — what each group of
    /// a streamed sweep is folded into.
    pub fn fresh_partial(&self) -> Self {
        let mut p = self.clone();
        p.moments = Moments::new();
        p.hist = Histogram::new(
            self.hist.bin_edge(0),
            self.hist.bin_edge(self.hist.bins()),
            self.hist.bins(),
        )
        .unwrap_or_else(|_| p.hist.clone());
        p.top = TopK::new(self.top.capacity());
        p.accepted = 0;
        p.rejected = 0;
        p
    }

    /// The pure admission decision — exactly the oracle's
    /// `CrowdDatabase::submit` rule, with no state change.
    pub fn admits(&self, score: f64, rsd: f64) -> bool {
        score.is_finite() && score > 0.0 && rsd.is_finite() && rsd <= self.max_rsd
    }

    /// Folds one submission in, applying exactly the oracle's admission
    /// rule. Returns `true` when accepted.
    pub fn fold(&mut self, device: &str, score: f64, rsd: f64) -> bool {
        if !self.admits(score, rsd) {
            self.rejected += 1;
            return false;
        }
        self.accepted += 1;
        self.moments.push(score);
        self.hist.add(score);
        self.top.offer(device, score);
        true
    }

    /// Merges a partial built with the same layout. `self` must be the
    /// lower-index (earlier-in-stream) block; merge partials in ascending
    /// block order for deterministic moments.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] when the histogram layouts differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), BenchError> {
        self.hist.merge(&other.hist)?;
        self.moments.merge(&other.moments);
        self.top.merge(&other.top);
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        Ok(())
    }

    /// Accepted submissions folded in.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Submissions rejected by the admission filter.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The RSD admission filter.
    pub fn max_rsd(&self) -> f64 {
        self.max_rsd
    }

    /// Streaming moments over the accepted scores.
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// Fixed-bin histogram over the accepted scores.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Bounded leaderboard of the best accepted scores.
    pub fn leaderboard(&self) -> &TopK {
        &self.top
    }

    /// Mean accepted score.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptySample`] when nothing was accepted.
    pub fn mean(&self) -> Result<f64, StatsError> {
        self.moments.mean()
    }

    /// RSD (%) of the accepted scores.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptySample`] with fewer than two accepted scores.
    pub fn rsd_percent(&self) -> Result<f64, StatsError> {
        self.moments.rsd_percent()
    }

    /// Approximate `q`-quantile of the accepted scores from the histogram,
    /// with linear interpolation inside the covering bin. Resolution is
    /// the bin width; a quantile that lands in the under/overflow mass is
    /// clamped to the histogram bound. `None` when nothing was accepted.
    pub fn approx_quantile(&self, q: f64) -> Option<f64> {
        let total = self.hist.total_weight();
        if total <= 0.0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * total;
        let mut acc = self.hist.underflow();
        if target <= acc {
            return Some(self.hist.bin_edge(0));
        }
        for (i, &c) in self.hist.counts().iter().enumerate() {
            if acc + c >= target && c > 0.0 {
                let lo = self.hist.bin_edge(i);
                let hi = self.hist.bin_edge(i + 1);
                return Some(lo + (hi - lo) * ((target - acc) / c).clamp(0.0, 1.0));
            }
            acc += c;
        }
        Some(self.hist.bin_edge(self.hist.bins()))
    }

    /// Fraction of accepted scores outside the histogram range — when this
    /// is large, quantile estimates degrade and the renderer warns.
    pub fn out_of_range_fraction(&self) -> f64 {
        let total = self.hist.total_weight();
        if total <= 0.0 {
            return 0.0;
        }
        (self.hist.underflow() + self.hist.overflow()) / total
    }

    /// Approximate resident size in bytes — the memory-boundedness check
    /// benches assert on. Counts the fixed struct, histogram bins and
    /// leaderboard entries; independent of how many devices were folded.
    pub fn approx_bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + self.hist.bins() * core::mem::size_of::<f64>()
            + self
                .top
                .entries()
                .iter()
                .map(|e| core::mem::size_of::<TopEntry>() + e.device.len())
                .sum::<usize>()
    }
}

impl fmt::Display for ScoreAggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "score aggregate: {} accepted, {} rejected (filter {:.1}% RSD)",
            self.accepted, self.rejected, self.max_rsd
        )
    }
}

pv_json::impl_to_json!(TopEntry { device, score });
pv_json::impl_to_json!(TopK { k, entries });
pv_json::impl_to_json!(ScoreAggregate {
    max_rsd,
    moments,
    hist,
    top,
    accepted,
    rejected
});

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::crowd::{CrowdDatabase, CrowdScore};
    use pv_rng::rngs::StdRng;
    use pv_rng::{Rng, SeedableRng};
    use pv_stats::Summary;

    fn submissions(n: usize) -> Vec<(String, f64, f64)> {
        (0..n)
            .map(|i| {
                let score = 60.0 + 40.0 * ((i as f64 * 0.37).sin() + 1.0);
                // Every 11th submission is thermally noisy, every 17th bogus.
                let (score, rsd) = if i % 17 == 0 {
                    (f64::NAN, 0.2)
                } else if i % 11 == 0 {
                    (score, 9.5)
                } else {
                    (score, 0.3 + (i % 5) as f64 * 0.2)
                };
                (format!("dev-{i:04}"), score, rsd)
            })
            .collect()
    }

    #[test]
    fn admission_matches_oracle_exactly() {
        let subs = submissions(300);
        let mut agg = ScoreAggregate::new(5.0).unwrap();
        let mut db = CrowdDatabase::new(5.0).unwrap();
        for (d, s, r) in &subs {
            let a = agg.fold(d, *s, *r);
            let b = db.submit(CrowdScore {
                model: "Pixel".into(),
                device: d.clone(),
                score: *s,
                rsd: *r,
            });
            assert_eq!(a, b, "{d}");
        }
        assert_eq!(agg.accepted() as usize, db.scores().len());
        assert_eq!(agg.rejected() as usize, db.rejected());
    }

    #[test]
    fn topk_matches_oracle_ranking_prefix() {
        let subs = submissions(200);
        let mut agg = ScoreAggregate::new(5.0).unwrap();
        let mut db = CrowdDatabase::new(5.0).unwrap();
        for (d, s, r) in &subs {
            agg.fold(d, *s, *r);
            db.submit(CrowdScore {
                model: "Pixel".into(),
                device: d.clone(),
                score: *s,
                rsd: *r,
            });
        }
        let ranked = db.ranking("Pixel");
        let top = agg.leaderboard().entries();
        assert_eq!(top.len(), DEFAULT_TOP_K);
        for (t, r) in top.iter().zip(&ranked) {
            assert_eq!(t.score, r.score, "{} vs {}", t.device, r.device);
        }
    }

    /// The satellite property test: folding through split/merged partials
    /// agrees with the single-writer full-fleet path — exactly for counts,
    /// histogram bins and the top-K set, and within an asserted relative
    /// bound for the moments — across worker counts 1/2/8 and random
    /// split points.
    #[test]
    fn split_merge_agrees_with_single_writer() {
        const REL_BOUND: f64 = 1e-12;
        let subs = submissions(500);
        // Single-writer reference fold.
        let mut reference = ScoreAggregate::new(5.0).unwrap();
        for (d, s, r) in &subs {
            reference.fold(d, *s, *r);
        }
        let oracle: Vec<f64> = subs
            .iter()
            .filter(|(_, s, r)| s.is_finite() && *s > 0.0 && r.is_finite() && *r <= 5.0)
            .map(|(_, s, _)| *s)
            .collect();
        let oracle = Summary::from_slice(&oracle).unwrap();
        let mut rng = StdRng::seed_from_u64(0xA66_0001);
        for workers in [1usize, 2, 8] {
            for _trial in 0..5 {
                // Random split points partition the stream into `workers`
                // contiguous chunks.
                let mut cuts: Vec<usize> = (0..workers - 1)
                    .map(|_| rng.gen_range(0..subs.len()))
                    .collect();
                cuts.push(0);
                cuts.push(subs.len());
                cuts.sort_unstable();
                let mut merged = reference.fresh_partial();
                for w in cuts.windows(2) {
                    let mut part = reference.fresh_partial();
                    for (d, s, r) in &subs[w[0]..w[1]] {
                        part.fold(d, *s, *r);
                    }
                    merged.merge(&part).unwrap();
                }
                // Exact: counters, histogram bins, leaderboard set.
                assert_eq!(merged.accepted(), reference.accepted());
                assert_eq!(merged.rejected(), reference.rejected());
                assert_eq!(merged.histogram().counts(), reference.histogram().counts());
                assert_eq!(
                    merged.histogram().underflow(),
                    reference.histogram().underflow()
                );
                assert_eq!(
                    merged.histogram().overflow(),
                    reference.histogram().overflow()
                );
                assert_eq!(merged.leaderboard(), reference.leaderboard());
                // ULP-bounded: the merged moments, against both the
                // sequential fold and the oracle Summary.
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
                assert!(
                    rel(merged.mean().unwrap(), reference.mean().unwrap()) < REL_BOUND,
                    "workers {workers}: mean diverged"
                );
                assert!(
                    rel(merged.mean().unwrap(), oracle.mean()) < 1e-9,
                    "workers {workers}: mean vs oracle"
                );
                assert!(
                    rel(merged.moments().sample_std().unwrap(), oracle.std()) < 1e-9,
                    "workers {workers}: std vs oracle"
                );
            }
        }
    }

    #[test]
    fn topk_bounded_and_tie_broken_by_label() {
        let mut t = TopK::new(3);
        t.offer("b", 10.0);
        t.offer("a", 10.0);
        t.offer("c", 12.0);
        t.offer("d", 9.0);
        t.offer("e", 11.0);
        let labels: Vec<&str> = t.entries().iter().map(|e| e.device.as_str()).collect();
        assert_eq!(labels, ["c", "e", "a"]);
        // Merge order never changes the result.
        let mut left = TopK::new(3);
        left.offer("c", 12.0);
        left.offer("a", 10.0);
        let mut right = TopK::new(3);
        right.offer("b", 10.0);
        right.offer("e", 11.0);
        right.offer("d", 9.0);
        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right;
        ba.merge(&left);
        assert_eq!(ab, ba);
        assert_eq!(ab, t);
    }

    #[test]
    fn zero_capacity_leaderboard_stays_empty() {
        let mut t = TopK::new(0);
        t.offer("a", 1.0);
        assert!(t.entries().is_empty());
    }

    #[test]
    fn approx_quantile_interpolates() {
        let mut agg = ScoreAggregate::with_layout(5.0, 0.0, 100.0, 100, 5).unwrap();
        for i in 0..1000 {
            agg.fold(&format!("d{i}"), (i % 100) as f64 + 0.5, 0.1);
        }
        let p50 = agg.approx_quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() < 1.5, "{p50}");
        let p90 = agg.approx_quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() < 1.5, "{p90}");
        assert_eq!(agg.out_of_range_fraction(), 0.0);
        assert!(ScoreAggregate::new(5.0)
            .unwrap()
            .approx_quantile(0.5)
            .is_none());
    }

    #[test]
    fn out_of_range_is_flagged_not_lost() {
        let mut agg = ScoreAggregate::with_layout(5.0, 0.0, 10.0, 10, 5).unwrap();
        agg.fold("lo", 5.0, 0.1);
        agg.fold("hi", 500.0, 0.1);
        assert_eq!(agg.accepted(), 2);
        assert!((agg.out_of_range_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memory_is_independent_of_device_count() {
        let mut small = ScoreAggregate::new(5.0).unwrap();
        let mut large = ScoreAggregate::new(5.0).unwrap();
        for i in 0..10 {
            small.fold(&format!("dev-{i:06}"), 80.0 + i as f64, 0.1);
        }
        for i in 0..100_000 {
            large.fold(&format!("dev-{i:06}"), 80.0 + (i % 50) as f64, 0.1);
        }
        // Same layout, same label width ⇒ identical resident footprint.
        assert_eq!(small.approx_bytes(), large.approx_bytes());
        assert!(large.approx_bytes() < 16 * 1024);
    }

    #[test]
    fn invalid_layouts_rejected() {
        assert!(ScoreAggregate::new(0.0).is_err());
        assert!(ScoreAggregate::new(f64::NAN).is_err());
        assert!(ScoreAggregate::with_layout(5.0, 10.0, 0.0, 4, 4).is_err());
        assert!(ScoreAggregate::with_layout(5.0, 0.0, 10.0, 0, 4).is_err());
    }

    #[test]
    fn json_includes_the_whole_aggregate() {
        use pv_json::ToJson;
        let mut agg = ScoreAggregate::new(5.0).unwrap();
        agg.fold("a", 90.0, 0.1);
        let j = agg.to_json().to_string_compact();
        assert!(j.contains("\"accepted\":1"));
        assert!(j.contains("\"entries\""));
    }
}
