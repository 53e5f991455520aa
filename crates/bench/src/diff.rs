//! Baseline-vs-current comparison engine behind the `benchdiff` binary.
//!
//! Given two [`BenchReport`]s — a committed baseline and a fresh run —
//! this module decides, metric by metric, whether performance regressed.
//! The rules, in the order they apply:
//!
//! 1. **Direction** comes from the metric's `higher_is_better` flag; a
//!    regression is movement in the *worse* direction only.
//! 2. **Tolerance band**: the allowed worse-direction drift. Starts at
//!    `tolerance` (default 10 % — tight enough to catch a 10 % slip on a
//!    quiet runner) and is widened by the *noise-aware rule*:
//!    `band = max(tolerance, noise_factor · max(spread_base, spread_cur))`.
//!    A metric flagged `noisy` on either side widens further to at least
//!    `noisy_band` (default 30 %) — noisy metrics warn rather than flap.
//! 3. **Environment rule**: when the baseline was recorded on a host
//!    with different parallelism or a different rustc, absolute numbers
//!    (`ns/step`, `devices/s`, `ms`, …) are not comparable
//!    machine-to-machine at all — those metrics are reported
//!    *informationally* and never fail on drift. Dimensionless ratios
//!    (unit `x`: speedups) survive a machine change, so they still
//!    gate, with their band widened to at least `noisy_band`. The
//!    mismatch is always reported with a refresh hint.
//! 4. **Absolute floors** (the old one-shot CI gates, kept as
//!    backstops): `sweep` must hold ≥ 2× speedup at 4 threads (skipped
//!    when the measuring host has < 4 CPUs, matching the old gate) and
//!    `step` must hold ≥ 5× exponential-vs-RK4 thermal step rate.
//!    Floors bind the *current* run regardless of baseline drift.
//! 5. **Checks** (`reports_identical`, `steady_state_allocs_zero`…)
//!    fail the diff unconditionally — they are invariants, not numbers.
//!
//! The output is a rendered markdown table (readable in a terminal and
//! in a GitHub job summary) plus a one-line `trend:` summary for
//! longitudinal tracking, and a boolean verdict for the process exit
//! code.

use crate::report::BenchReport;

/// Tuning knobs for a diff run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Base worse-direction tolerance (fraction, default 0.10).
    pub tolerance: f64,
    /// Multiplier on observed relative spread when widening (default 3).
    pub noise_factor: f64,
    /// Minimum band for `noisy`-flagged metrics or mismatched
    /// environments (default 0.30).
    pub noisy_band: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            tolerance: 0.10,
            noise_factor: 3.0,
            noisy_band: 0.30,
        }
    }
}

/// Verdict for one metric row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Within the band (includes small improvements).
    Ok,
    /// Better than baseline by more than the band — worth a look, never
    /// a failure.
    Improved,
    /// Worse than baseline by more than the band. Fails the diff.
    Regressed,
    /// Band was widened because the metric is noisy or the environment
    /// differs; still within the widened band.
    NoisyOk,
    /// Machine-dependent metric compared across mismatched
    /// environments: shown for context, never a failure.
    EnvInfo,
    /// Metric exists only in the current run (new metric — informational).
    New,
    /// Metric exists in the baseline but vanished from the current run.
    /// Fails the diff: a silently dropped metric is a silently dropped
    /// gate.
    Missing,
    /// Current value violates an absolute floor. Fails the diff.
    FloorViolation,
    /// Floor exists but was skipped (e.g. too few CPUs to gate speedup).
    FloorSkipped,
}

impl Status {
    fn label(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Regressed => "REGRESSED",
            Status::NoisyOk => "ok (noisy)",
            Status::EnvInfo => "info (env)",
            Status::New => "new",
            Status::Missing => "MISSING",
            Status::FloorViolation => "FLOOR FAIL",
            Status::FloorSkipped => "floor skipped",
        }
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Metric name.
    pub name: String,
    /// Display unit.
    pub unit: String,
    /// Baseline point estimate, if present.
    pub baseline: Option<f64>,
    /// Current point estimate, if present.
    pub current: Option<f64>,
    /// Signed relative delta `(current − baseline) / baseline`.
    pub delta: Option<f64>,
    /// Effective worse-direction band after widening.
    pub band: f64,
    /// Verdict.
    pub status: Status,
}

/// Absolute floor on a current-run metric.
#[derive(Debug, Clone, Copy)]
pub enum Floor {
    /// Value must be at least this.
    AtLeast(f64),
    /// Value must be at most this.
    AtMost(f64),
}

/// Built-in floors: the pre-benchdiff one-shot CI gates, kept as
/// backstops so a corrupted baseline can never wave a real collapse
/// through. `min_host_parallelism` skips the floor on starved hosts
/// (the 4-thread speedup gate is meaningless on a 1-CPU runner).
pub struct FloorRule {
    /// Bench the rule applies to.
    pub bench: &'static str,
    /// Metric name within that bench.
    pub metric: &'static str,
    /// The bound.
    pub floor: Floor,
    /// Skip unless the *current* host has at least this many CPUs.
    pub min_host_parallelism: usize,
}

/// The floor table. See [`FloorRule`].
pub const FLOORS: &[FloorRule] = &[
    FloorRule {
        bench: "sweep",
        metric: "speedup/t4",
        floor: Floor::AtLeast(2.0),
        min_host_parallelism: 4,
    },
    FloorRule {
        bench: "step",
        metric: "thermal_speedup_exp_vs_rk4",
        floor: Floor::AtLeast(5.0),
        min_host_parallelism: 0,
    },
    // Batched lockstep stepping (DESIGN.md §15) must keep paying for its
    // complexity: a clean sweep at `--batch 8` must never fall below the
    // scalar chunk path on a single worker, so no host-parallelism gate.
    // The honest ceiling is modest — thermal is ~21% of a device step and
    // the rest is inherently scalar (Amdahl; see DESIGN.md §15), with the
    // measured session-level ratio ≈1.07× — so the backstop guards against
    // *regression to below-scalar*, while drift against the committed
    // baseline ratio is what catches erosion of the real gain.
    FloorRule {
        bench: "sweep",
        metric: "batch_speedup/b8",
        floor: Floor::AtLeast(1.0),
        min_host_parallelism: 0,
    },
    // Stratified subsampling (DESIGN.md §16) exists to make million-device
    // sweeps affordable: simulating n = 2000 of a 100k population must beat
    // exhaustively sweeping the population by a wide margin. The honest
    // ratio is ≈ pop/n = 50× (selection and estimation overhead are
    // negligible next to device simulation); ≥ 10× is the collapse
    // backstop, and the ratio is host-independent, so no parallelism gate.
    FloorRule {
        bench: "sweep",
        metric: "sample_speedup/n2000",
        floor: Floor::AtLeast(10.0),
        min_host_parallelism: 0,
    },
];

/// Full result of one diff run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Bench name (from the current report).
    pub bench: String,
    /// Per-metric rows, baseline order first, then new metrics.
    pub rows: Vec<MetricDiff>,
    /// Human-readable failure reasons (empty ⇔ `passed()`).
    pub failures: Vec<String>,
    /// Non-fatal notes (env mismatch, skipped floors, new metrics).
    pub notes: Vec<String>,
    /// Commit SHAs, for the trend line.
    pub baseline_sha: String,
    /// Current commit SHA.
    pub current_sha: String,
}

impl DiffReport {
    /// True when nothing regressed, no floor broke, and every check held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the comparison as a markdown table (also readable as
    /// plain text). Suitable for `$GITHUB_STEP_SUMMARY`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### benchdiff: `{}` — {} vs baseline {}\n\n",
            self.bench,
            short_sha(&self.current_sha),
            short_sha(&self.baseline_sha),
        ));
        out.push_str("| metric | unit | baseline | current | delta | band | status |\n");
        out.push_str("|---|---|---:|---:|---:|---:|---|\n");
        for row in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | ±{:.1}% | {} |\n",
                row.name,
                row.unit,
                row.baseline.map_or("—".to_owned(), fmt_value),
                row.current.map_or("—".to_owned(), fmt_value),
                row.delta
                    .map_or("—".to_owned(), |d| format!("{:+.1}%", d * 100.0)),
                row.band * 100.0,
                row.status.label(),
            ));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(&format!("- note: {note}\n"));
            }
        }
        if !self.failures.is_empty() {
            out.push('\n');
            for f in &self.failures {
                out.push_str(&format!("- **FAIL**: {f}\n"));
            }
        }
        out
    }

    /// One-line longitudinal summary: worst and best deltas plus the
    /// verdict, suitable for grep-able job logs.
    pub fn trend_line(&self) -> String {
        let deltas: Vec<(&str, f64)> = self
            .rows
            .iter()
            .filter_map(|r| r.delta.map(|d| (r.name.as_str(), d)))
            .collect();
        let verdict = if self.passed() { "pass" } else { "FAIL" };
        match (
            deltas
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)),
            deltas
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)),
        ) {
            (Some(worst), Some(best)) => format!(
                "trend: {} @ {} vs {}: worst {} {:+.1}%, best {} {:+.1}% [{}]",
                self.bench,
                short_sha(&self.current_sha),
                short_sha(&self.baseline_sha),
                worst.0,
                worst.1 * 100.0,
                best.0,
                best.1 * 100.0,
                verdict,
            ),
            _ => format!(
                "trend: {} @ {} vs {}: no comparable metrics [{}]",
                self.bench,
                short_sha(&self.current_sha),
                short_sha(&self.baseline_sha),
                verdict,
            ),
        }
    }
}

fn short_sha(sha: &str) -> String {
    if sha.len() >= 8 && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        sha[..8].to_owned()
    } else {
        sha.to_owned()
    }
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 10_000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Compares `current` against `baseline` under `cfg`. See the module
/// docs for the rules.
pub fn diff(baseline: &BenchReport, current: &BenchReport, cfg: &DiffConfig) -> DiffReport {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut notes = Vec::new();

    if baseline.bench != current.bench {
        failures.push(format!(
            "bench mismatch: baseline is `{}`, current is `{}`",
            baseline.bench, current.bench
        ));
    }

    // Rule 3: machine comparability. Different host shape or compiler
    // makes absolute numbers incomparable — absolute-unit metrics go
    // informational, ratios gate on a widened band.
    let env_mismatch = baseline.env.host_parallelism != current.env.host_parallelism
        || baseline.env.rustc_version != current.env.rustc_version;
    if env_mismatch {
        notes.push(format!(
            "environment mismatch (baseline: {} CPUs, {}; current: {} CPUs, {}) — \
             absolute metrics reported informationally, ratio (`x`) bands widened \
             to ≥{:.0}%; refresh the baseline from this class of host to restore \
             tight gating",
            baseline.env.host_parallelism,
            baseline.env.rustc_version,
            current.env.host_parallelism,
            current.env.rustc_version,
            cfg.noisy_band * 100.0,
        ));
    }

    for base_metric in &baseline.metrics {
        let Some(cur_metric) = current.metric(&base_metric.name) else {
            rows.push(MetricDiff {
                name: base_metric.name.clone(),
                unit: base_metric.unit.clone(),
                baseline: Some(base_metric.value),
                current: None,
                delta: None,
                band: cfg.tolerance,
                status: Status::Missing,
            });
            failures.push(format!(
                "metric `{}` present in baseline but missing from current run",
                base_metric.name
            ));
            continue;
        };

        // Rule 2: noise-aware band widening.
        let spread = base_metric.rel_spread.max(cur_metric.rel_spread);
        let mut band = cfg.tolerance.max(cfg.noise_factor * spread);
        let noisy = base_metric.noisy || cur_metric.noisy;
        if noisy || env_mismatch {
            band = band.max(cfg.noisy_band);
        }

        let delta = if base_metric.value != 0.0 {
            (cur_metric.value - base_metric.value) / base_metric.value
        } else {
            0.0
        };
        // Rule 1: only worse-direction movement can regress.
        let worse = if cur_metric.higher_is_better {
            -delta
        } else {
            delta
        };

        // Rule 3: across machines only dimensionless ratios gate.
        let machine_dependent = cur_metric.unit != "x";
        let status = if env_mismatch && machine_dependent {
            Status::EnvInfo
        } else if worse > band {
            failures.push(format!(
                "metric `{}` regressed {:+.1}% (band ±{:.1}%): baseline {} → current {} {}",
                cur_metric.name,
                delta * 100.0,
                band * 100.0,
                fmt_value(base_metric.value),
                fmt_value(cur_metric.value),
                cur_metric.unit,
            ));
            Status::Regressed
        } else if -worse > band {
            Status::Improved
        } else if noisy || env_mismatch {
            Status::NoisyOk
        } else {
            Status::Ok
        };

        rows.push(MetricDiff {
            name: cur_metric.name.clone(),
            unit: cur_metric.unit.clone(),
            baseline: Some(base_metric.value),
            current: Some(cur_metric.value),
            delta: Some(delta),
            band,
            status,
        });
    }

    for cur_metric in &current.metrics {
        if baseline.metric(&cur_metric.name).is_none() {
            notes.push(format!(
                "new metric `{}` has no baseline yet (value {})",
                cur_metric.name,
                fmt_value(cur_metric.value)
            ));
            rows.push(MetricDiff {
                name: cur_metric.name.clone(),
                unit: cur_metric.unit.clone(),
                baseline: None,
                current: Some(cur_metric.value),
                delta: None,
                band: cfg.tolerance,
                status: Status::New,
            });
        }
    }

    // Rule 4: absolute floors on the current run.
    for rule in FLOORS {
        if rule.bench != current.bench {
            continue;
        }
        let Some(metric) = current.metric(rule.metric) else {
            failures.push(format!(
                "floor metric `{}` missing from current `{}` report",
                rule.metric, rule.bench
            ));
            continue;
        };
        if current.env.host_parallelism < rule.min_host_parallelism {
            notes.push(format!(
                "floor on `{}` skipped: host has {} CPU(s), rule needs ≥ {}",
                rule.metric, current.env.host_parallelism, rule.min_host_parallelism
            ));
            mark_floor(&mut rows, rule.metric, Status::FloorSkipped);
            continue;
        }
        let violated = match rule.floor {
            Floor::AtLeast(min) => metric.value < min,
            Floor::AtMost(max) => metric.value > max,
        };
        if violated {
            let bound = match rule.floor {
                Floor::AtLeast(min) => format!("≥ {min}"),
                Floor::AtMost(max) => format!("≤ {max}"),
            };
            failures.push(format!(
                "absolute floor violated: `{}` is {} {}, must be {}",
                rule.metric,
                fmt_value(metric.value),
                metric.unit,
                bound,
            ));
            mark_floor(&mut rows, rule.metric, Status::FloorViolation);
        }
    }

    // Rule 5: checks are unconditional.
    for check in &current.checks {
        if !check.ok {
            failures.push(format!("check `{}` failed in current run", check.name));
        }
    }
    for base_check in &baseline.checks {
        if !current.checks.iter().any(|c| c.name == base_check.name) {
            failures.push(format!(
                "check `{}` present in baseline but missing from current run",
                base_check.name
            ));
        }
    }

    DiffReport {
        bench: current.bench.clone(),
        rows,
        failures,
        notes,
        baseline_sha: baseline.env.commit_sha.clone(),
        current_sha: current.env.commit_sha.clone(),
    }
}

/// Floor verdicts override the drift verdict on their row — a floor
/// break must be visible even if the drift band was technically met.
fn mark_floor(rows: &mut [MetricDiff], metric: &str, status: Status) {
    if let Some(row) = rows.iter_mut().find(|r| r.name == metric) {
        if status == Status::FloorViolation || row.status == Status::Ok {
            row.status = status;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchReport, Check, EnvFingerprint, Metric};

    fn report(bench: &str, mut metrics: Vec<Metric>) -> BenchReport {
        // Every floor metric must be present in a current report of its
        // bench, so sweep fixtures carry a passing batch ratio unless the
        // test supplies its own (appended, to keep `rows[0]` stable).
        if bench == "sweep" && !metrics.iter().any(|m| m.name == "batch_speedup/b8") {
            metrics.push(Metric::scalar(
                "batch_speedup/b8",
                "x",
                true,
                2.0,
                0.01,
                false,
            ));
        }
        if bench == "sweep" && !metrics.iter().any(|m| m.name == "sample_speedup/n2000") {
            metrics.push(Metric::scalar(
                "sample_speedup/n2000",
                "x",
                true,
                50.0,
                0.01,
                false,
            ));
        }
        BenchReport {
            bench: bench.to_owned(),
            env: EnvFingerprint {
                host_parallelism: 4,
                rustc_version: "rustc-test".to_owned(),
                commit_sha: "deadbeefdeadbeef".to_owned(),
                sample_count: 5,
            },
            metrics,
            checks: vec![Check {
                name: "reports_identical".to_owned(),
                ok: true,
            }],
        }
    }

    fn quiet(name: &str, value: f64, higher_is_better: bool) -> Metric {
        Metric::scalar(name, "u", higher_is_better, value, 0.01, false)
    }

    #[test]
    fn identical_reports_pass() {
        let base = report("sweep", vec![quiet("speedup/t4", 2.5, true)]);
        let d = diff(&base, &base.clone(), &DiffConfig::default());
        assert!(d.passed(), "{:?}", d.failures);
        assert_eq!(d.rows[0].status, Status::Ok);
    }

    #[test]
    fn fifteen_percent_regression_fails_tight_band() {
        // A bench name outside the floor table isolates the band logic.
        let base = report(
            "micro",
            vec![quiet("thermal_steps_per_sec/exponential", 100.0, true)],
        );
        let cur = report(
            "micro",
            vec![quiet("thermal_steps_per_sec/exponential", 85.0, true)],
        );
        let d = diff(&base, &cur, &DiffConfig::default());
        assert!(!d.passed());
        assert_eq!(d.rows[0].status, Status::Regressed);
        assert!(d.failures[0].contains("-15.0%"), "{}", d.failures[0]);
    }

    #[test]
    fn lower_is_better_direction_respected() {
        // ns/step going DOWN 15% is an improvement, not a regression.
        let base = report(
            "micro",
            vec![quiet("thermal_ns_per_step/rk4", 100.0, false)],
        );
        let cur = report("micro", vec![quiet("thermal_ns_per_step/rk4", 85.0, false)]);
        let d = diff(&base, &cur, &DiffConfig::default());
        assert!(d.passed(), "{:?}", d.failures);
        assert_eq!(d.rows[0].status, Status::Improved);
        // …and going UP 15% fails.
        let worse = report(
            "micro",
            vec![quiet("thermal_ns_per_step/rk4", 115.0, false)],
        );
        assert!(!diff(&base, &worse, &DiffConfig::default()).passed());
    }

    #[test]
    fn noisy_metric_passes_where_quiet_would_fail() {
        let mut base_metric =
            Metric::scalar("devices_per_sec/t1", "devices/s", true, 100.0, 0.12, true);
        let mut cur_metric =
            Metric::scalar("devices_per_sec/t1", "devices/s", true, 80.0, 0.12, true);
        base_metric.noisy = true;
        cur_metric.noisy = true;
        let base = report("micro", vec![base_metric]);
        let cur = report("micro", vec![cur_metric]);
        // −20% would fail the default ±10% band, but the noisy flag
        // widens the band to ≥30%.
        let d = diff(&base, &cur, &DiffConfig::default());
        assert!(d.passed(), "{:?}", d.failures);
        assert_eq!(d.rows[0].status, Status::NoisyOk);
    }

    #[test]
    fn floor_violation_fails_even_with_matching_baseline() {
        // Both baseline and current agree at 1.5× — drift is zero, but
        // the ≥2× backstop must still fire.
        let base = report("sweep", vec![quiet("speedup/t4", 1.5, true)]);
        let d = diff(&base, &base.clone(), &DiffConfig::default());
        assert!(!d.passed());
        assert!(
            d.failures.iter().any(|f| f.contains("floor")),
            "{:?}",
            d.failures
        );
        assert_eq!(d.rows[0].status, Status::FloorViolation);
    }

    #[test]
    fn batch_floor_gates_even_single_core_hosts() {
        // 0.9× at width 8 is below the ≥1.0× floor (batching slower than
        // scalar) — and the rule has no host-parallelism gate, so a 1-CPU
        // runner still enforces it.
        let base = report(
            "sweep",
            vec![
                quiet("speedup/t4", 2.5, true),
                Metric::scalar("batch_speedup/b8", "x", true, 0.9, 0.01, false),
            ],
        );
        let mut cur = base.clone();
        cur.env.host_parallelism = 1;
        let mut base1 = base.clone();
        base1.env.host_parallelism = 1;
        let d = diff(&base1, &cur, &DiffConfig::default());
        assert!(!d.passed());
        assert!(
            d.failures
                .iter()
                .any(|f| f.contains("batch_speedup/b8") && f.contains("floor")),
            "{:?}",
            d.failures
        );
        // A sweep report that omits the metric entirely fails too: the
        // floor cannot be dodged by not measuring.
        let cur_missing = BenchReport {
            metrics: vec![quiet("speedup/t4", 2.5, true)],
            ..base.clone()
        };
        let d = diff(&base, &cur_missing, &DiffConfig::default());
        assert!(!d.passed());
        assert!(
            d.failures.iter().any(|f| f.contains("missing")),
            "{:?}",
            d.failures
        );
    }

    #[test]
    fn sample_floor_gates_collapse() {
        // A sampled sweep that only manages 6× over the extrapolated
        // full-fleet cost has lost its reason to exist; the ≥10× backstop
        // fires even with a matching (equally collapsed) baseline.
        let base = report(
            "sweep",
            vec![
                quiet("speedup/t4", 2.5, true),
                Metric::scalar("sample_speedup/n2000", "x", true, 6.0, 0.01, false),
            ],
        );
        let d = diff(&base, &base.clone(), &DiffConfig::default());
        assert!(!d.passed());
        assert!(
            d.failures
                .iter()
                .any(|f| f.contains("sample_speedup/n2000") && f.contains("floor")),
            "{:?}",
            d.failures
        );
    }

    #[test]
    fn floor_skipped_on_starved_host() {
        let base = report("sweep", vec![quiet("speedup/t4", 1.2, true)]);
        let mut cur = base.clone();
        cur.env.host_parallelism = 1;
        cur.metrics[0] = quiet("speedup/t4", 1.2, true);
        let mut base2 = base.clone();
        base2.env.host_parallelism = 1;
        let d = diff(&base2, &cur, &DiffConfig::default());
        assert!(d.passed(), "{:?}", d.failures);
        assert!(d.notes.iter().any(|n| n.contains("floor")), "{:?}", d.notes);
    }

    #[test]
    fn missing_metric_fails() {
        let base = report(
            "sweep",
            vec![
                quiet("speedup/t4", 2.5, true),
                quiet("devices_per_sec/t1", 50.0, true),
            ],
        );
        let cur = report("sweep", vec![quiet("speedup/t4", 2.5, true)]);
        let d = diff(&base, &cur, &DiffConfig::default());
        assert!(!d.passed());
        assert!(d.rows.iter().any(|r| r.status == Status::Missing));
    }

    #[test]
    fn new_metric_is_informational() {
        let base = report("sweep", vec![quiet("speedup/t4", 2.5, true)]);
        let cur = report(
            "sweep",
            vec![
                quiet("speedup/t4", 2.5, true),
                quiet("devices_per_sec/t8", 99.0, true),
            ],
        );
        let d = diff(&base, &cur, &DiffConfig::default());
        assert!(d.passed(), "{:?}", d.failures);
        assert!(d.rows.iter().any(|r| r.status == Status::New));
    }

    #[test]
    fn failed_check_fails_diff() {
        let base = report("sweep", vec![quiet("speedup/t4", 2.5, true)]);
        let mut cur = base.clone();
        cur.checks[0].ok = false;
        let d = diff(&base, &cur, &DiffConfig::default());
        assert!(!d.passed());
        assert!(d.failures[0].contains("reports_identical"));
    }

    fn ratio(name: &str, value: f64) -> Metric {
        Metric::scalar(name, "x", true, value, 0.01, false)
    }

    #[test]
    fn env_mismatch_widens_ratio_bands_and_notes() {
        let base = report("sweep", vec![ratio("speedup/t4", 2.8)]);
        let mut cur = report("sweep", vec![ratio("speedup/t4", 2.2)]);
        cur.env.host_parallelism = 16;
        // −21% would fail tight, passes under the widened ≥30% band —
        // ratios stay comparable (and gated) across machines.
        let d = diff(&base, &cur, &DiffConfig::default());
        assert!(d.passed(), "{:?}", d.failures);
        assert_eq!(d.rows[0].status, Status::NoisyOk);
        assert!(d.notes.iter().any(|n| n.contains("environment mismatch")));
        // …but a ratio collapse beyond even the widened band still
        // fails (non-floor bench isolates the band logic).
        let base2 = report("micro", vec![ratio("speedup/t2", 2.8)]);
        let mut bad2 = report("micro", vec![ratio("speedup/t2", 1.6)]);
        bad2.env.host_parallelism = 16;
        assert!(!diff(&base2, &bad2, &DiffConfig::default()).passed());
    }

    #[test]
    fn env_mismatch_absolute_metrics_are_informational() {
        // ns/step halving across machines says "different CPU", not
        // "regression" — must not fail, must be labelled info (env).
        let base = report("micro", vec![quiet("device_ns_per_step/rk4", 150.0, false)]);
        let mut cur = report("micro", vec![quiet("device_ns_per_step/rk4", 390.0, false)]);
        cur.env.host_parallelism = 16;
        let d = diff(&base, &cur, &DiffConfig::default());
        assert!(d.passed(), "{:?}", d.failures);
        assert_eq!(d.rows[0].status, Status::EnvInfo);
        // Same drift with matching environments is a hard failure.
        let cur_same_env = report("micro", vec![quiet("device_ns_per_step/rk4", 390.0, false)]);
        assert!(!diff(&base, &cur_same_env, &DiffConfig::default()).passed());
    }

    #[test]
    fn table_and_trend_render() {
        let base = report("sweep", vec![quiet("speedup/t4", 2.5, true)]);
        let cur = report("sweep", vec![quiet("speedup/t4", 2.6, true)]);
        let d = diff(&base, &cur, &DiffConfig::default());
        let table = d.render_table();
        assert!(table.contains("| speedup/t4 |"), "{table}");
        let trend = d.trend_line();
        assert!(trend.starts_with("trend: sweep @"), "{trend}");
        assert!(trend.contains("[pass]"), "{trend}");
    }
}
