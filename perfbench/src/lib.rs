//! The repository's benchmark: the three workloads `repro` users run
//! (`paper-repro`, `fleet-sweep`, `census-sampled`), timed end to end
//! through the library's public entry points, with an optional traced run
//! that measures each layer from the outside. See `README.md` beside this
//! crate for the metric → layer → workload map.

pub mod alloc;
pub mod golden;
pub mod layers;
pub mod probes;
pub mod reference;
pub mod trace;
pub mod workload;

use accubench::experiments::ExperimentConfig;
use accubench::storage::Storage;
use probes::{StorageCounts, TimingStorage};
use pv_json::Json;
use pv_units::Celsius;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use workload::{Kind, SweepSpec, DEFAULT_SEED};

/// Fewest repetitions an untraced run makes, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Fewest untraced/traced repetition pairs a traced run makes.
const MIN_PAIRS: usize = 2;
/// Stand-alone set-up samples a run takes after each untraced repetition,
/// each between two host-speed reference samples; `setup_s` is their
/// median.
const SETUPS_PER_REP: usize = 5;
/// Shortest set-up sample, s. paper-repro's set-up takes ~0.1 ms; timed one
/// at a time its median moved by a third between runs, timed ten back to
/// back by a tenth.
const SETUP_SAMPLE_S: f64 = 1e-3;

/// The ambient every sweep session sits in (`SweepConfig::clean`).
const SWEEP_AMBIENT: Celsius = Celsius(26.0);

/// End-to-end metrics the result line carries with `--trace 0`, as
/// `BENCHMARK.json` declares them: every one applies to every workload.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics the result line carries with `--trace 1`: those a
/// traced run measures on every workload. Layer metrics that exist on one
/// workload only are printed above the result line and kept in the spans.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("soc.build_us", "us"),
    ("soc.step_ns", "ns"),
    ("soc.steps_per_session", "count"),
    ("soc.sensor_reads_per_session", "count"),
    ("batch.lane_step_ns", "ns"),
    ("thermal.step_ns", "ns"),
    ("thermal.share", "ratio"),
    ("power.draws_per_session", "count"),
    ("harness.session_ms.p50", "ms"),
    ("harness.session_ms.p90", "ms"),
    ("harness.self_share", "ratio"),
    ("journal.writes", "count"),
    ("journal.fsyncs", "count"),
    ("journal.bytes", "bytes"),
    ("aggregate.bytes", "bytes"),
    ("alloc.count", "count"),
    ("alloc.bytes", "bytes"),
    ("trace.overhead_share", "ratio"),
];

/// Scopes whose bodies are only calls into layers; the composition check
/// holds their spans to [`trace::COMPOSITION_TOLERANCE`].
pub const GLUE_SPANS: [&str; 3] = ["rep", "setup", "call"];

const USAGE: &str = "usage: perfbench --workload <paper-repro|fleet-sweep|census-sampled> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub kind: Kind,
    /// Input seed; [`DEFAULT_SEED`] reproduces the README commands.
    pub seed: u64,
    /// How long to keep repeating the workload.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
///
/// # Errors
///
/// Returns a message naming the bad or missing argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed must be an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                seconds = match value()?.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err("--seconds must be a non-negative number".into()),
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    /// Metric name.
    name: String,
    /// Value as measured.
    value: f64,
    /// Unit.
    unit: &'static str,
}

/// What a whole run produced.
#[derive(Debug, Clone)]
struct Outcome {
    /// Whether every output check passed.
    correct: bool,
    /// Operations attempted (experiments or device sessions).
    attempted: u64,
    /// Operations that failed.
    failed: u64,
    /// Metrics for the result line, in declaration order.
    result: Vec<Metric>,
    /// Every metric this run measured, for the human-readable report.
    report: Vec<Metric>,
    /// Correctness findings, one per line.
    problems: Vec<String>,
    /// Output fingerprints of the untraced repetitions.
    fingerprint: Vec<(&'static str, u64)>,
    /// Spans the traced run recorded (empty when untraced).
    spans: Vec<trace::Span>,
    /// Wall time of each untraced repetition's timed call, in run order.
    run_samples: Vec<f64>,
    /// Median reference sample around each untraced repetition's call, s.
    reference_samples: Vec<f64>,
    /// Parts of the timed call that `run_s` sums (1 for a sweep).
    parts: usize,
}

/// The timed call of one repetition at the reference host speed
/// (see [`reference`]); filled in untraced repetitions only.
#[derive(Debug, Clone, Default)]
struct AtReference {
    /// Each part of the timed call, in order.
    parts_s: Vec<f64>,
    /// Median reference sample around the call, s.
    sample_s: f64,
}

/// One repetition: set-up, timed call, check.
#[derive(Debug, Clone, Default)]
struct Rep {
    run_id: u64,
    /// Wall time of the timed call (paper-repro: its experiments').
    run_s: f64,
    /// The timed call's parts — every experiment of paper-repro, the whole
    /// call of a sweep — at the reference host speed.
    at_reference: AtReference,
    attempted: u64,
    failed: u64,
    completed: u64,
    fingerprint: Vec<(&'static str, u64)>,
    problems: Vec<String>,
    table2_err_pp: Option<f64>,
    devices_built: usize,
    alloc: (u64, u64),
    populate_cpu_s: Option<f64>,
    aggregate_bytes: usize,
    storage: Option<(u64, u64, u64)>,
    /// Process peak RSS right after the timed call, MB.
    peak_rss_mb: Option<f64>,
}

fn alloc_delta(before: (u64, u64)) -> (u64, u64) {
    let after = alloc::snapshot();
    (after.0 - before.0, after.1 - before.1)
}

/// Fingerprints the default seed must reproduce (paper-repro's inputs do
/// not depend on the seed, so its golden holds for every seed).
fn golden(kind: Kind, seed: u64) -> Option<Vec<(&'static str, u64)>> {
    match kind {
        Kind::PaperRepro => Some(vec![("document", golden::PAPER_ALL_JSON)]),
        Kind::FleetSweep if seed == DEFAULT_SEED => Some(vec![
            ("document", golden::FLEET_SWEEP_JSON),
            ("journal", golden::FLEET_SWEEP_JOURNAL),
        ]),
        Kind::CensusSampled if seed == DEFAULT_SEED => {
            Some(vec![("document", golden::CENSUS_SAMPLED_JSON)])
        }
        _ => None,
    }
}

/// The sweep a workload runs, `None` for paper-repro.
fn sweep_spec(kind: Kind) -> Option<SweepSpec> {
    match kind {
        Kind::PaperRepro => None,
        Kind::FleetSweep => Some(SweepSpec::fleet()),
        Kind::CensusSampled => Some(SweepSpec::census()),
    }
}

/// Times one stand-alone set-up sample: set-ups back to back, each one's
/// inputs kept until the end, until [`SETUP_SAMPLE_S`] has passed (at least
/// one); returns the mean per set-up. The inputs (and journals) are then
/// discarded.
fn time_setup(spec: Option<&SweepSpec>, seed: u64, dir: &Path) -> Result<f64, String> {
    let mut kept: Vec<Box<dyn std::any::Any>> = Vec::new();
    let mut journals = Vec::new();
    let t = Instant::now();
    while kept.is_empty() || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        let Some(spec) = spec else {
            kept.push(Box::new(
                workload::paper_setup().map_err(|e| format!("set-up: {e}"))?,
            ));
            continue;
        };
        let path = spec
            .journal
            .then(|| dir.join(format!("setup-{}.journal", kept.len())));
        let inputs = workload::sweep_setup(spec, seed, path.as_deref(), Storage::os())
            .map_err(|e| format!("set-up: {e}"))?;
        kept.push(Box::new(inputs));
        journals.extend(path);
    }
    let secs = t.elapsed().as_secs_f64() / kept.len() as f64;
    drop(std::hint::black_box(kept));
    for p in &journals {
        std::fs::remove_file(p).map_err(|e| format!("removing {}: {e}", p.display()))?;
    }
    Ok(secs)
}

/// One repetition; with `reference`, the host-speed reference is sampled
/// around the timed call's parts (only in untraced runs, so it adds
/// nothing to a traced run's allocation counts or spans).
fn rep(
    spec: Option<&SweepSpec>,
    seed: u64,
    run_id: u64,
    dir: &Path,
    traced: bool,
    reference: bool,
) -> Result<Rep, String> {
    trace::set_run(run_id);
    trace::enable(traced);
    let root = trace::span("rep");
    let mut r = Rep {
        run_id,
        ..Rep::default()
    };
    match spec {
        None => {
            let devices = {
                let _s = trace::span("setup");
                workload::paper_setup().map_err(|e| format!("set-up: {e}"))?
            };
            r.devices_built = devices.len();
            let cfg = ExperimentConfig::paper();
            let a = alloc::snapshot();
            let (results, samples) = {
                let _s = trace::span("call");
                workload::paper_call(&cfg, reference)
            };
            r.run_s = results.iter().map(|(_, _, secs)| secs).sum();
            r.alloc = alloc_delta(a);
            r.peak_rss_mb = probes::peak_rss_mb();
            if reference {
                r.at_reference = AtReference {
                    parts_s: results
                        .iter()
                        .zip(samples.windows(2))
                        .map(|((_, _, secs), w)| reference::at_reference(*secs, w[0], w[1]))
                        .collect(),
                    sample_s: median(&samples),
                };
            }
            let check = {
                let _s = trace::span("check");
                workload::paper_check(&results)
            };
            r.attempted = results.len() as u64;
            r.failed = check.failed as u64;
            r.fingerprint = vec![("document", check.document)];
            r.problems = check.problems;
            r.table2_err_pp = Some(check.table2_err_pp);
        }
        Some(spec) => {
            let path = spec
                .journal
                .then(|| workload::journal_path(dir, run_id as usize));
            let counts = Arc::new(StorageCounts::default());
            let storage = if traced {
                Storage::new(Arc::new(TimingStorage::new(Arc::clone(&counts))))
            } else {
                Storage::os()
            };
            let inputs = {
                let _s = trace::span("setup");
                workload::sweep_setup(spec, seed, path.as_deref(), storage)
                    .map_err(|e| format!("set-up: {e}"))?
            };
            r.devices_built = inputs.devices.len();
            let before = reference.then(|| reference::sample(spec.threads));
            let a = alloc::snapshot();
            let t = Instant::now();
            let run = {
                let _s = trace::span("call");
                workload::sweep_call(spec, inputs).map_err(|e| format!("sweep: {e}"))?
            };
            r.run_s = t.elapsed().as_secs_f64();
            r.alloc = alloc_delta(a);
            r.peak_rss_mb = probes::peak_rss_mb();
            if let Some(before) = before {
                let after = reference::sample(spec.threads);
                r.at_reference = AtReference {
                    parts_s: vec![reference::at_reference(r.run_s, before, after)],
                    sample_s: (before + after) / 2.0,
                };
            }
            let check = {
                let _s = trace::span("check");
                workload::sweep_check(&run, path.as_deref())
            };
            if let Some(p) = &path {
                std::fs::remove_file(p).map_err(|e| format!("removing {}: {e}", p.display()))?;
            }
            r.attempted = run.sweep.devices as u64;
            r.failed = check.holes as u64;
            r.completed = run.sweep.completed as u64;
            r.fingerprint = vec![("document", check.document)];
            if let Some(j) = check.journal {
                r.fingerprint.push(("journal", j));
            }
            r.problems = check.problems;
            r.populate_cpu_s = run.populate_cpu_s;
            r.aggregate_bytes = run.agg.approx_bytes();
            if traced && spec.journal {
                r.storage = Some((
                    counts.writes.load(Ordering::Relaxed),
                    counts.fsyncs.load(Ordering::Relaxed),
                    counts.bytes.load(Ordering::Relaxed),
                ));
            }
        }
    }
    drop(root);
    trace::enable(false);
    Ok(r)
}

/// Median of `v` (mean of the middle two for an even count); NaN if empty.
pub(crate) fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in (0, 1] of `v`; NaN if empty.
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `run_s`: the sum over the timed call's parts of each part's median time
/// at the reference host speed over the (untraced) repetitions.
fn run_at_reference(reps: &[Rep]) -> f64 {
    let parts = reps.first().map_or(0, |r| r.at_reference.parts_s.len());
    (0..parts)
        .map(|i| {
            median(
                &reps
                    .iter()
                    .map(|r| r.at_reference.parts_s[i])
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs the workload for `args.seconds` and measures it; journals go to
/// `dir`. The run stops before a pass (repetition, its extra set-ups and
/// its traced twin) that the previous pass's length says would end after
/// `args.seconds`, so a run takes about `args.seconds` whatever the
/// repetition's length.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up or run at all;
/// wrong outputs are reported through [`Outcome::correct`] instead.
fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let spec = sweep_spec(args.kind);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut setup_samples: Vec<f64> = Vec::new();
    let min = if args.trace { MIN_PAIRS } else { MIN_REPS };
    let mut run_id = 1u64;
    let mut pass_s = 0.0;
    let reference = !args.trace;
    while plain.len() < min || start.elapsed().as_secs_f64() + pass_s <= args.seconds {
        let pass = Instant::now();
        plain.push(rep(
            spec.as_ref(),
            args.seed,
            run_id,
            dir,
            false,
            reference,
        )?);
        run_id += 1;
        if reference {
            // After the repetition, so the first one's peak RSS is that of
            // one execution, as a fresh `repro` process has it.
            let mut before = reference::sample(1);
            for _ in 0..SETUPS_PER_REP {
                let secs = time_setup(spec.as_ref(), args.seed, dir)?;
                let after = reference::sample(1);
                setup_samples.push(reference::at_reference(secs, before, after));
                before = after;
            }
        }
        if args.trace {
            traced.push(rep(spec.as_ref(), args.seed, run_id, dir, true, false)?);
            run_id += 1;
        }
        pass_s = pass.elapsed().as_secs_f64();
    }

    let mut problems: Vec<String> = Vec::new();
    let fingerprint = plain[0].fingerprint.clone();
    for r in plain.iter().chain(&traced) {
        problems.extend(r.problems.iter().map(|p| format!("run {}: {p}", r.run_id)));
        if r.fingerprint != fingerprint {
            problems.push(format!(
                "run {}: fingerprint {} differs from run 1's {}",
                r.run_id,
                show(&r.fingerprint),
                show(&fingerprint)
            ));
        }
    }
    if let Some(expected) = golden(args.kind, args.seed) {
        if fingerprint != expected {
            problems.push(format!(
                "fingerprint {} does not match the recorded golden {}",
                show(&fingerprint),
                show(&expected)
            ));
        }
    }
    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.failed).sum();

    let run_wall_s = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let peak_rss_mb = plain[0]
        .peak_rss_mb
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut report = Vec::new();
    if reference {
        let run_s = run_at_reference(&plain);
        let samples: Vec<f64> = plain.iter().map(|r| r.at_reference.sample_s).collect();
        report.push(metric("setup_s", median(&setup_samples), "s"));
        report.push(metric("run_s", run_s, "s"));
        report.push(metric("reference_ms", 1e3 * median(&samples), "ms"));
        if spec.is_some() {
            let completed = median(&plain.iter().map(|r| r.completed as f64).collect::<Vec<_>>());
            report.push(metric("devices_per_s", completed / run_s, "devices/s"));
        }
    }
    report.push(metric("run_wall_s", run_wall_s, "s"));
    report.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    report.push(metric(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    if let Some(err) = plain[0].table2_err_pp {
        report.push(metric("table2_err_pp", err, "pp"));
    }

    let mut spans = Vec::new();
    if args.trace {
        let layer = layer_metrics(args, spec.as_ref(), &plain, &traced, run_id)?;
        spans = layer.spans;
        problems.extend(layer.problems);
        report.extend(layer.metrics);
    }

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut result = Vec::new();
    for (name, unit) in declared {
        match report.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() && m.unit == *unit => result.push(m.clone()),
            Some(m) => problems.push(format!("{name}: unusable value {} {}", m.value, m.unit)),
            None => problems.push(format!("{name}: not measured")),
        }
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        result,
        report,
        problems,
        fingerprint,
        spans,
        run_samples: plain.iter().map(|r| r.run_s).collect(),
        reference_samples: plain.iter().map(|r| r.at_reference.sample_s).collect(),
        parts: plain[0].at_reference.parts_s.len(),
    })
}

fn show(fp: &[(&str, u64)]) -> String {
    fp.iter()
        .map(|(k, v)| format!("{k}={v:016x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

struct LayerMetrics {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    spans: Vec<trace::Span>,
}

/// Per-layer metrics of a traced run: span totals of the traced
/// repetitions, then the session probe and kernel timings.
fn layer_metrics(
    args: &Args,
    spec: Option<&SweepSpec>,
    plain: &[Rep],
    traced: &[Rep],
    probe_run: u64,
) -> Result<LayerMetrics, String> {
    let mut problems = Vec::new();
    let cfg = spec.map_or_else(ExperimentConfig::paper, |s| s.cfg);
    let protocol = cfg.scaled(accubench::protocol::Protocol::unconstrained());

    // Probe inputs: ≥100 of the workload's own devices, spread across it.
    let (pool, batch_devices) = match spec {
        None => {
            let pool = workload::paper_setup().map_err(|e| e.to_string())?;
            let grades = workload::grades(layers::BATCH_WIDTH, DEFAULT_SEED);
            let idx: Vec<usize> = (0..layers::BATCH_WIDTH).collect();
            let batch = workload::build_fleet(&idx, &grades).map_err(|e| e.to_string())?;
            (pool, batch)
        }
        Some(spec) => {
            let inputs = workload::sweep_setup(spec, args.seed, None, Storage::os())
                .map_err(|e| e.to_string())?;
            let all = inputs.devices;
            let stride = (all.len() / layers::PROBE_SESSIONS).max(1);
            let pool: Vec<_> = all.into_iter().step_by(stride).collect();
            let batch = pool.iter().take(layers::BATCH_WIDTH).cloned().collect();
            (pool, batch)
        }
    };
    let probe_devices: Vec<_> = pool
        .iter()
        .cycle()
        .take(layers::PROBE_SESSIONS.max(pool.len()))
        .cloned()
        .collect();
    trace::set_run(probe_run);
    trace::enable(true);
    let probe = {
        let _s = trace::span("probe");
        layers::session_probe(probe_devices, protocol, cfg.iterations, SWEEP_AMBIENT)
            .map_err(|e| format!("session probe: {e}"))?
    };
    trace::enable(false);
    let thermal_ns =
        layers::thermal_step_ns(cfg.integrator, &protocol).map_err(|e| e.to_string())?;
    let batch_ns =
        layers::batch_lane_step_ns(batch_devices, &protocol).map_err(|e| e.to_string())?;

    let spans = trace::take();
    if let Err(e) = trace::check_composition(&spans, &GLUE_SPANS) {
        problems.push(format!("span composition: {e}"));
    }
    if probe.replay_mismatches > 0 {
        problems.push(format!(
            "session probe: {} replay(s) diverged from their session",
            probe.replay_mismatches
        ));
    }
    if probe.device_ns > probe.session_ns.iter().sum::<u64>() {
        problems.push("span composition: device time exceeds session time".into());
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let session_ms: Vec<f64> = probe.session_ns.iter().map(|&n| ms(n)).collect();
    let session_p50 = percentile(&session_ms, 0.5);
    let steps_per_session = probe.per_session(probe.dut.steps);

    // Per traced repetition: (name → total ns) over its spans.
    let per_run: Vec<BTreeMap<&str, u64>> = traced
        .iter()
        .map(|r| {
            let mut m = BTreeMap::new();
            for s in spans.iter().filter(|s| s.run == r.run_id) {
                *m.entry(s.name.as_str()).or_insert(0) += s.wall_ns();
            }
            m
        })
        .collect();
    let med_over_runs = |f: &dyn Fn(&BTreeMap<&str, u64>, &Rep) -> f64| {
        median(
            &per_run
                .iter()
                .zip(traced)
                .map(|(m, r)| f(m, r))
                .collect::<Vec<_>>(),
        )
    };
    let total = |m: &BTreeMap<&str, u64>, name: &str| m.get(name).copied().unwrap_or(0);

    let mut metrics = vec![
        metric(
            "soc.build_us",
            med_over_runs(&|m, r| {
                total(m, "soc.build") as f64 / 1e3 / r.devices_built.max(1) as f64
            }),
            "us",
        ),
        metric("soc.step_ns", probe.step_ns(), "ns"),
        metric("soc.steps_per_session", steps_per_session, "count"),
        metric(
            "soc.sensor_reads_per_session",
            probe.per_session(probe.dut.sensor_reads),
            "count",
        ),
        metric("batch.lane_step_ns", batch_ns, "ns"),
        metric("thermal.step_ns", thermal_ns, "ns"),
        // Derived estimate: kernel-timed thermal cost of a probe session's
        // steps over the session's median wall time.
        metric(
            "thermal.share",
            thermal_ns * steps_per_session / (session_p50 * 1e6),
            "ratio",
        ),
        metric(
            "power.draws_per_session",
            probe.per_session(probe.draws),
            "count",
        ),
        metric("harness.session_ms.p50", session_p50, "ms"),
        metric("harness.session_ms.p90", percentile(&session_ms, 0.9), "ms"),
        metric("harness.self_share", probe.harness_self_share(), "ratio"),
    ];
    let (writes, fsyncs, bytes) = traced.last().and_then(|r| r.storage).unwrap_or((0, 0, 0));
    metrics.push(metric("journal.writes", writes as f64, "count"));
    metrics.push(metric("journal.fsyncs", fsyncs as f64, "count"));
    metrics.push(metric("journal.bytes", bytes as f64, "bytes"));
    metrics.push(metric(
        "aggregate.bytes",
        plain[0].aggregate_bytes as f64,
        "bytes",
    ));
    metrics.push(metric(
        "alloc.count",
        median(&plain.iter().map(|r| r.alloc.0 as f64).collect::<Vec<_>>()),
        "count",
    ));
    metrics.push(metric(
        "alloc.bytes",
        median(&plain.iter().map(|r| r.alloc.1 as f64).collect::<Vec<_>>()),
        "bytes",
    ));
    let plain_run = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_run = median(&traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    metrics.push(metric(
        "trace.overhead_share",
        (traced_run - plain_run) / plain_run,
        "ratio",
    ));

    // Layers only some workloads exercise.
    match spec {
        None => {
            for name in workload::EXPERIMENTS {
                let span = format!("experiments.{name}");
                metrics.push(metric(
                    format!("experiments.{name}_ms"),
                    med_over_runs(&|m, _| ms(total(m, &span))),
                    "ms",
                ));
            }
        }
        Some(spec) => {
            let sweep_s = med_over_runs(&|m, _| total(m, "crowd.populate_streamed") as f64 / 1e9);
            let threads = spec.threads as f64;
            metrics.push(metric("crowd.sweep_s", sweep_s, "s"));
            metrics.push(metric(
                "executor.cpu_util",
                med_over_runs(&|m, r| {
                    r.populate_cpu_s.unwrap_or(f64::NAN)
                        / (threads * total(m, "crowd.populate_streamed") as f64 / 1e9)
                }),
                "ratio",
            ));
            let mean_session_s = session_ms.iter().sum::<f64>() / session_ms.len() as f64 / 1e3;
            let devices = traced.last().map_or(0, |r| r.completed) as f64;
            metrics.push(metric(
                "crowd.overhead_share",
                1.0 - devices * mean_session_s / (threads * sweep_s),
                "ratio",
            ));
            if spec.journal {
                let fsync_ms: Vec<f64> = spans
                    .iter()
                    .filter(|s| {
                        s.name == "journal.fsync" && traced.iter().any(|r| r.run_id == s.run)
                    })
                    .map(|s| ms(s.wall_ns()))
                    .collect();
                metrics.push(metric(
                    "journal.fsync_ms.p50",
                    percentile(&fsync_ms, 0.5),
                    "ms",
                ));
                metrics.push(metric(
                    "journal.fsync_ms.p90",
                    percentile(&fsync_ms, 0.9),
                    "ms",
                ));
                metrics.push(metric(
                    "journal.busy_share",
                    med_over_runs(&|m, _| {
                        (total(m, "journal.write") + total(m, "journal.fsync")) as f64
                            / total(m, "crowd.populate_streamed").max(1) as f64
                    }),
                    "ratio",
                ));
            }
            if spec.sample.is_some() {
                metrics.push(metric(
                    "sampling.select_ms",
                    med_over_runs(&|m, _| ms(total(m, "sampling.select"))),
                    "ms",
                ));
                metrics.push(metric(
                    "sampling.estimate_ms",
                    med_over_runs(&|m, _| ms(total(m, "sampling.estimate"))),
                    "ms",
                ));
            }
        }
    }
    metrics.push(metric("trace.spans", spans.len() as f64, "count"));
    Ok(LayerMetrics {
        metrics,
        problems,
        spans,
    })
}

/// The result line: one JSON object with exactly the keys the benchmark
/// contract names.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Json::object();
    for m in &outcome.result {
        let mut v = Json::object();
        v.insert("value", Json::Number(m.value));
        v.insert("unit", Json::String(m.unit.to_owned()));
        metrics.insert(m.name.clone(), v);
    }
    let mut obj = Json::object();
    obj.insert("correct", Json::Bool(outcome.correct));
    obj.insert("attempted", Json::Number(outcome.attempted as f64));
    obj.insert("failed", Json::Number(outcome.failed as f64));
    obj.insert("metrics", metrics);
    obj.to_string_compact()
}

/// Entry point shared by both binaries. `traced_build` says whether the
/// counting allocator is installed, which `--trace 1` requires.
pub fn main_with(traced_build: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_build {
        eprintln!(
            "perfbench: --trace {} runs in the `{}` binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(".perfbench");
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {}{}: {} operation(s), {} failed; fingerprint {}",
        args.kind.name(),
        args.seed,
        if args.trace { " (traced)" } else { "" },
        outcome.attempted,
        outcome.failed,
        show(&outcome.fingerprint)
    );
    let list = |v: &[f64], scale: f64| {
        v.iter()
            .map(|s| format!("{:.3}", s * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  {} untraced call(s) took {} s of wall time",
        outcome.run_samples.len(),
        list(&outcome.run_samples, 1.0)
    );
    if outcome.parts > 0 {
        println!(
            "  the reference loop took {} ms around them; run_s sums each of {} part(s)' \
             median at reference speed",
            list(&outcome.reference_samples, 1e3),
            outcome.parts
        );
    }
    for m in &outcome.report {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
        match trace::write_json(&path, &outcome.spans) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
