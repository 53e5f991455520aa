//! The three workloads, each split into set-up (inputs), the timed call
//! (the library entry points `repro` calls) and the output check.

use crate::trace;
use accubench::aggregate::{ScoreAggregate, DEFAULT_TOP_K};
use accubench::crowd::{populate_streamed, SamplePlan, StreamedSweep, SweepConfig};
use accubench::experiments::{self, study, ExperimentConfig};
use accubench::journal::{fnv64, CancelToken, Journal};
use accubench::protocol::Protocol;
use accubench::storage::Storage;
use accubench::BenchError;
use pv_json::{Json, ToJson};
use pv_rng::{Rng, SeedableRng, StdRng};
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_stats::sampling::{self, Estimates, Selection, Strategy, StratumSample};
use pv_thermal::network::Integrator;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed that reproduces the README's `repro` commands exactly.
pub const DEFAULT_SEED: u64 = 0;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every `repro list` experiment at the paper's protocol.
    PaperRepro,
    /// 1000 Pixels, full protocol, exponential integrator, journaled.
    FleetSweep,
    /// A stratified 4096-device sample of a 10⁶-device population.
    CensusSampled,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::PaperRepro, Kind::FleetSweep, Kind::CensusSampled];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperRepro => "paper-repro",
            Kind::FleetSweep => "fleet-sweep",
            Kind::CensusSampled => "census-sampled",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

// ---------------------------------------------------------------------------
// Sweeps (fleet-sweep, census-sampled)
// ---------------------------------------------------------------------------

/// Histogram layout `repro sweep` gives its streaming aggregate.
const SWEEP_HIST_LO: f64 = 0.0;
const SWEEP_HIST_HI: f64 = 2000.0;
const SWEEP_HIST_BINS: usize = 200;

/// Half-width of the grade jitter a non-default seed applies.
const GRADE_JITTER: f64 = 0.02;

/// One sweep configuration: what `repro sweep` is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec {
    /// Virtual population (`--devices`).
    pub population: usize,
    /// Simulated sample size (`--sample`), `None` to sweep everyone.
    pub sample: Option<usize>,
    /// Protocol scale, iterations and integrator.
    pub cfg: ExperimentConfig,
    /// Worker threads (`--threads`).
    pub threads: usize,
    /// Lockstep batch width (`--batch`).
    pub batch: usize,
    /// Whether the sweep is journaled (`--journal`).
    pub journal: bool,
}

impl SweepSpec {
    /// `repro sweep --devices 1000 --threads 2 --batch 64
    /// --integrator exponential --journal j --json`.
    pub fn fleet() -> Self {
        Self {
            population: 1000,
            sample: None,
            cfg: ExperimentConfig::paper().with_integrator(Integrator::Exponential),
            threads: 2,
            batch: 64,
            journal: true,
        }
    }

    /// `repro sweep --quick --devices 1000000 --sample 4096
    /// --sample-strategy stratified --threads 2 --json`.
    pub fn census() -> Self {
        Self {
            population: 1_000_000,
            sample: Some(4096),
            cfg: ExperimentConfig::quick(),
            threads: 2,
            batch: 1,
            journal: false,
        }
    }

    /// The protocol every device session runs.
    pub fn protocol(&self) -> Protocol {
        self.cfg.scaled(Protocol::unconstrained())
    }
}

/// Speed grades of the population. The default seed spreads them evenly
/// across the binning range exactly as `repro sweep` does; any other seed
/// jitters each grade by up to ±[`GRADE_JITTER`], kept inside the range.
pub fn grades(population: usize, seed: u64) -> Vec<f64> {
    let even = |i: usize| 0.05 + 0.9 * (i as f64) / (population.max(2) - 1) as f64;
    if seed == DEFAULT_SEED {
        return (0..population).map(even).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..population)
        .map(|i| (even(i) + rng.gen_range(-GRADE_JITTER..GRADE_JITTER)).clamp(0.05, 0.95))
        .collect()
}

/// Builds the Pixels for population `indices`, labelled like `repro sweep`.
pub fn build_fleet(indices: &[usize], grades: &[f64]) -> Result<Vec<Device>, BenchError> {
    indices
        .iter()
        .map(|&i| catalog::pixel(grades[i], format!("pixel-crowd-{i:03}")).map_err(Into::into))
        .collect()
}

/// Everything a sweep needs before the timed call.
#[derive(Debug)]
pub struct SweepInputs {
    /// The devices to simulate.
    pub devices: Vec<Device>,
    /// The sweep configuration.
    pub sweep_cfg: SweepConfig,
    /// The freshly created journal, when journaled.
    pub journal: Option<Journal>,
    /// The sampling plan and its selection, when sampled.
    pub selection: Option<(SamplePlan, Selection)>,
}

/// Set-up: grades, sample selection, journal creation and fleet build, in
/// the order `repro sweep` does them. `journal_path` must not exist yet.
pub fn sweep_setup(
    spec: &SweepSpec,
    seed: u64,
    journal_path: Option<&Path>,
    storage: Storage,
) -> Result<SweepInputs, BenchError> {
    let mut sweep_cfg = SweepConfig::clean(spec.protocol(), spec.cfg.iterations);
    let grades = {
        let _s = trace::span("inputs.grades");
        grades(spec.population, seed)
    };
    let selection = match spec.sample {
        None => None,
        Some(n) => {
            let _s = trace::span("sampling.select");
            let plan = SamplePlan {
                population: spec.population,
                n,
                strategy: Strategy::Stratified,
                seed,
            };
            let strata = pv_silicon::binning::nexus5::N_BINS as usize;
            let sel = sampling::select(plan.strategy, &grades, n, strata, plan.seed)?;
            sweep_cfg = sweep_cfg.with_sampling(plan.clone());
            Some((plan, sel))
        }
    };
    let journal = match journal_path {
        Some(path) => {
            let _s = trace::span("journal.create");
            Some(Journal::open_with(storage, path)?)
        }
        None => None,
    };
    let devices = {
        let _s = trace::span("soc.build");
        match &selection {
            Some((_, sel)) => build_fleet(&sel.indices, &grades)?,
            None => build_fleet(&(0..spec.population).collect::<Vec<_>>(), &grades)?,
        }
    };
    Ok(SweepInputs {
        devices,
        sweep_cfg,
        journal,
        selection,
    })
}

/// What the timed sweep call produced.
#[derive(Debug)]
pub struct SweepRun {
    /// The streaming sweep's summary.
    pub sweep: StreamedSweep,
    /// The fleet aggregate `repro sweep --json` prints.
    pub agg: ScoreAggregate,
    /// Sampled estimates, when sampled.
    pub estimates: Option<Estimates>,
    /// The sampling plan, when sampled.
    pub plan: Option<SamplePlan>,
    /// Process CPU seconds spent while `populate_streamed` ran (recorded
    /// only while tracing).
    pub populate_cpu_s: Option<f64>,
}

/// The timed call: `populate_streamed`, then (sampled) regrouping and the
/// bootstrap estimate — the calls `repro sweep` makes.
pub fn sweep_call(spec: &SweepSpec, inputs: SweepInputs) -> Result<SweepRun, BenchError> {
    let SweepInputs {
        devices,
        sweep_cfg,
        mut journal,
        selection,
    } = inputs;
    let mut agg = ScoreAggregate::with_layout(
        5.0,
        SWEEP_HIST_LO,
        SWEEP_HIST_HI,
        SWEEP_HIST_BINS,
        DEFAULT_TOP_K,
    )?;
    let (sweep, populate_cpu_s) = {
        let _s = trace::span_ambient("crowd.populate_streamed");
        let cpu_before = trace::enabled()
            .then(crate::probes::process_cpu_s)
            .flatten();
        let sweep = populate_streamed(
            &mut agg,
            "Pixel",
            devices,
            &sweep_cfg,
            journal.as_mut(),
            &CancelToken::new(),
            spec.threads,
            spec.batch,
            selection.is_some(),
        )?;
        let cpu = cpu_before
            .and_then(|before| crate::probes::process_cpu_s().map(|after| after - before));
        (sweep, cpu)
    };
    let estimates = match &selection {
        None => None,
        Some((plan, sel)) => {
            let groups = {
                let _s = trace::span("repro.regroup");
                let by_pop: HashMap<usize, f64> = sweep
                    .retained
                    .iter()
                    .map(|&(idx, score)| (sel.indices[idx], score))
                    .collect();
                sel.groups
                    .iter()
                    .map(|g| StratumSample {
                        weight: g.weight,
                        values: g
                            .indices
                            .iter()
                            .filter_map(|i| by_pop.get(i).copied())
                            .collect(),
                    })
                    .collect::<Vec<_>>()
            };
            let _s = trace::span("sampling.estimate");
            Some(sampling::estimate(&groups, 0.95, 1000, plan.seed)?)
        }
    };
    Ok(SweepRun {
        sweep,
        agg,
        estimates,
        plan: selection.map(|(plan, _)| plan),
        populate_cpu_s,
    })
}

/// The JSON document `repro sweep --json` prints for this run.
fn sweep_document(run: &SweepRun) -> Json {
    let sweep = &run.sweep;
    let mut obj = Json::object();
    obj.insert("model", sweep.model.to_json());
    obj.insert("devices", sweep.devices.to_json());
    obj.insert("completed", sweep.completed.to_json());
    obj.insert("holes", sweep.holes.len().to_json());
    obj.insert("complete", sweep.complete.to_json());
    obj.insert("resumed", sweep.resumed.to_json());
    obj.insert("verdict", Json::String(sweep.fleet_verdict().to_string()));
    obj.insert("aggregate", run.agg.to_json());
    if let Some(plan) = &run.plan {
        let mut p = Json::object();
        p.insert("population", plan.population.to_json());
        p.insert("n", plan.n.to_json());
        p.insert("strategy", Json::String(plan.strategy.as_str().to_owned()));
        p.insert("seed", plan.seed.to_json());
        obj.insert("sampling", p);
    }
    if let Some(est) = &run.estimates {
        obj.insert("estimates", est.to_json());
    }
    obj
}

/// Output fingerprints and invariant findings of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheck {
    /// `fnv64` of the `--json` document exactly as `repro` prints it.
    pub document: u64,
    /// `fnv64` of the journal's bytes, when journaled.
    pub journal: Option<u64>,
    /// Devices that ended as holes.
    pub holes: usize,
    /// Violated invariants (empty when the output is sound).
    pub problems: Vec<String>,
}

/// Fingerprints a sweep's outputs and checks the invariants every seed must
/// meet: a complete fleet with no holes, a clean `fsck`, and every sampled
/// CI containing its point estimate.
pub fn sweep_check(run: &SweepRun, journal_path: Option<&Path>) -> SweepCheck {
    let sweep = &run.sweep;
    let mut problems = Vec::new();
    let text = format!("{}\n", sweep_document(run).to_string_pretty());
    if !sweep.complete || sweep.completed != sweep.devices || !sweep.holes.is_empty() {
        problems.push(format!(
            "incomplete fleet: {} of {} completed, {} hole(s)",
            sweep.completed,
            sweep.devices,
            sweep.holes.len()
        ));
    }
    let journal = journal_path.map(|path| {
        match accubench::journal::fsck(path) {
            Ok(report) if report.is_clean() => {}
            Ok(report) => problems.push(format!("journal fsck not clean: {report}")),
            Err(e) => problems.push(format!("journal fsck failed: {e}")),
        }
        match std::fs::read(path) {
            Ok(bytes) => fnv64(&bytes),
            Err(e) => {
                problems.push(format!("journal unreadable: {e}"));
                0
            }
        }
    });
    if let Some(est) = &run.estimates {
        for (name, ci) in [
            ("mean", &est.mean),
            ("rsd_percent", &est.rsd_percent),
            ("p50", &est.p50),
            ("p90", &est.p90),
        ] {
            if !(ci.lo <= ci.point && ci.point <= ci.hi) {
                problems.push(format!(
                    "{name} CI [{}, {}] misses its point {}",
                    ci.lo, ci.hi, ci.point
                ));
            }
        }
    }
    SweepCheck {
        document: fnv64(text.as_bytes()),
        journal,
        holes: sweep.holes.len(),
        problems,
    }
}

/// A fresh journal path under `dir` for repetition `rep`.
pub(crate) fn journal_path(dir: &Path, rep: usize) -> PathBuf {
    dir.join(format!("sweep-{rep}.journal"))
}

// ---------------------------------------------------------------------------
// paper-repro
// ---------------------------------------------------------------------------

/// `repro list`, in order.
pub const EXPERIMENTS: [&str; 26] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "rsd",
    "cluster",
    "ablation",
    "ambient",
    "ranking",
    "lowerbound",
    "forecast",
    "load",
    "skin",
    "aging",
    "governor",
];

/// Paper bands `tests/full_paper.rs` holds the full-protocol results to.
const TABLE2_BAND_PP: f64 = 3.0;

/// One experiment's result, reduced to what the checks need.
pub struct Ran {
    /// The result; `repro <name> --json` prints its JSON form.
    pub result: Box<dyn ToJson>,
    /// `Some(Err)` when the experiment misses its full-paper band.
    pub band: Option<Result<(), String>>,
    /// Table II's worst cell error in percentage points (`table2` only).
    pub table2_err_pp: Option<f64>,
}

/// The experiments' own device fleets, built the way they build them.
pub fn paper_setup() -> Result<Vec<Device>, BenchError> {
    let _s = trace::span("soc.build");
    let fleets = [
        catalog::fleet::nexus5_study()?,
        catalog::fleet::nexus5_all_bins()?,
        catalog::fleet::nexus6_study()?,
        catalog::fleet::nexus6p_study()?,
        catalog::fleet::lg_g5_study()?,
        catalog::fleet::pixel_study()?,
        catalog::fleet::pixel2_forecast()?,
    ];
    Ok(fleets.into_iter().flatten().collect())
}

/// One experiment's outcome in [`paper_call`], with its wall time in s.
pub type Timed = (&'static str, Result<Ran, BenchError>, f64);

/// The timed call: every experiment in `repro list` order with the run and
/// render calls `repro all` makes, each with its wall time. JSON
/// conversion is left to the check. With `reference`, the host-speed
/// reference is also sampled before the first experiment and after each,
/// outside their times; the samples come second, in order.
pub fn paper_call(cfg: &ExperimentConfig, reference: bool) -> (Vec<Timed>, Vec<f64>) {
    let mut samples = Vec::new();
    if reference {
        samples.push(crate::reference::sample(1));
    }
    let results = EXPERIMENTS
        .iter()
        .map(|&name| {
            let secs;
            let result = {
                let _s = trace::span(format!("experiments.{name}"));
                let t = Instant::now();
                let result = run_experiment(name, cfg);
                secs = t.elapsed().as_secs_f64();
                result
            };
            if reference {
                samples.push(crate::reference::sample(1));
            }
            (name, result, secs)
        })
        .collect();
    (results, samples)
}

/// Keeps `text` (what `repro all` would print) from being optimised away.
fn ran(result: impl ToJson + 'static, text: String) -> Ran {
    std::hint::black_box(text);
    Ran {
        result: Box::new(result),
        band: None,
        table2_err_pp: None,
    }
}

fn band(ok: bool, what: impl FnOnce() -> String) -> Option<Result<(), String>> {
    Some(if ok { Ok(()) } else { Err(what()) })
}

fn study_text(s: &study::SocStudy) -> Result<String, BenchError> {
    Ok(format!(
        "{}{:.1}{:.1}",
        s.render()?,
        s.perf_spread_percent()?,
        s.energy_spread_percent()?
    ))
}

/// Runs one experiment with exactly the library calls `repro <name>` makes
/// in text mode. The JSON document is derived from the same result.
fn run_experiment(name: &str, cfg: &ExperimentConfig) -> Result<Ran, BenchError> {
    use experiments::*;
    Ok(match name {
        "table1" => {
            let t = table1::run()?;
            let text = format!("{}{}", t.render(), t.worst_deviation_mv());
            ran(t, text)
        }
        "fig1" => {
            let f = fig1::run(cfg)?;
            let text = format!(
                "{}{}{}",
                f.render(),
                f.energy_excess_fraction(),
                f.time_excess_fraction()
            );
            ran(f, text)
        }
        "fig2" => {
            let f = fig2::run(cfg)?;
            let mut text = f.render();
            for s in &f.sweeps {
                text.push_str(&format!("{}", s.energy_growth_fraction()));
            }
            ran(f, text)
        }
        "fig3" => {
            let f = fig3::run(cfg)?;
            let text = f.render();
            ran(f, text)
        }
        "fig4" => {
            let f = fig45::run(cfg)?;
            let text = f.unconstrained.render();
            ran(f, text)
        }
        "fig5" => {
            let f = fig45::run(cfg)?;
            let text = f.fixed.render();
            ran(f, text)
        }
        "fig6" => {
            let s = study::plans::nexus5(cfg)?;
            let text = study_text(&s)?;
            ran(s, text)
        }
        "fig7" => {
            let s = study::plans::nexus6p(cfg)?;
            let text = study_text(&s)?;
            ran(s, text)
        }
        "fig8" => {
            let s = study::plans::lg_g5(cfg)?;
            let text = study_text(&s)?;
            ran(s, text)
        }
        "fig9" => {
            let s = study::plans::pixel(cfg)?;
            let text = study_text(&s)?;
            ran(s, text)
        }
        "fig10" => {
            let f = fig10::run(cfg)?;
            let (nominal, max) = (f.nominal_vs_battery(), f.max_vs_battery());
            let text = format!("{}{nominal}{max}", f.render());
            let mut r = ran(f, text);
            // tests/full_paper.rs: ≈20 % throttled at the nominal voltage.
            r.band = band(
                (0.70..=0.90).contains(&nominal) && (max - 1.0).abs() < 0.02,
                || format!("fig10: nominal/battery {nominal:.3}, max/battery {max:.3}"),
            );
            r
        }
        "fig11" => {
            let f = fig1112::run(cfg)?;
            let text = f.pixel.render();
            ran(f, text)
        }
        "fig12" => {
            let f = fig1112::run(cfg)?;
            let text = f.nexus5.render();
            ran(f, text)
        }
        "fig13" => {
            let f = fig13::run(cfg)?;
            let (dip, slope) = (f.sd805_dip(), f.trend()?.slope);
            let text = format!("{}{dip}{slope}", f.render());
            let mut r = ran(f, text);
            r.band = band(dip && slope > 0.0, || {
                format!("fig13: SD-805 dip {dip}, trend slope {slope:+.3}")
            });
            r
        }
        "table2" => {
            let t2 = table2::run(cfg)?;
            let text = t2.render();
            let mut worst = 0.0f64;
            let mut shape_ok = t2.rows.len() == table2::Table2::PAPER_VALUES.len();
            for (row, (soc, n, paper_perf, paper_energy)) in
                t2.rows.iter().zip(table2::Table2::PAPER_VALUES)
            {
                shape_ok &= row.soc == soc && row.devices == n;
                worst = worst
                    .max((row.perf_variation - paper_perf).abs())
                    .max((row.energy_variation - paper_energy).abs());
            }
            let mut r = ran(t2, text);
            r.band = band(shape_ok && worst <= TABLE2_BAND_PP, || {
                format!("table2: worst cell {worst:.2} pp off the paper (band {TABLE2_BAND_PP} pp)")
            });
            r.table2_err_pp = Some(worst);
            r
        }
        "rsd" => {
            let rep = rsd::run_with_faults(cfg, None)?;
            let text = rep.render();
            let (avg, total) = (rep.average_rsd(), rep.total_iterations());
            let mut r = ran(rep, text);
            // tests/full_paper.rs: at least as repeatable as the paper's 1.1 %.
            r.band = band(avg < 1.1 && total >= 40, || {
                format!("rsd: average {avg:.2}% over {total} iteration(s)")
            });
            r
        }
        "cluster" => {
            let c = cluster::run(cfg, 30, 4, 2024)?;
            let text = c.render();
            ran(c, text)
        }
        "ablation" => {
            let a = ablation::run(cfg)?;
            let text = a.render();
            ran(a, text)
        }
        "ambient" => {
            let a = ambient_estimate::run(cfg)?;
            let text = a.render();
            ran(a, text)
        }
        "ranking" => {
            let r = ranking::run(cfg, 20, 2024)?;
            let text = r.render();
            ran(r, text)
        }
        "lowerbound" => {
            let mc = lowerbound::run(cfg, 500, 40, 31337)?;
            let text = mc.render()?;
            ran(mc, text)
        }
        "forecast" => {
            let f = forecast::run(cfg)?;
            let text = f.render()?;
            ran(f, text)
        }
        "load" => {
            let l = load_sensitivity::run(cfg)?;
            let text = l.render();
            ran(l, text)
        }
        "skin" => {
            let s = skin::run(cfg)?;
            let text = s.render();
            ran(s, text)
        }
        "aging" => {
            let a = aging::run(cfg)?;
            let text = a.render();
            ran(a, text)
        }
        "governor" => {
            let g = governor_study::run(cfg)?;
            let text = g.render();
            ran(g, text)
        }
        _ => return Err(BenchError::InvalidProtocol("unknown experiment")),
    })
}

/// Fingerprint and findings of one paper reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperCheck {
    /// `fnv64` of exactly what `repro all --json` prints.
    pub document: u64,
    /// Experiments that errored or missed their band.
    pub failed: usize,
    /// Table II's worst cell error against the paper, pp.
    pub table2_err_pp: f64,
    /// One line per failed experiment.
    pub problems: Vec<String>,
}

/// Fingerprints every experiment's JSON and applies the full-paper bands.
pub fn paper_check(results: &[Timed]) -> PaperCheck {
    let mut text = String::new();
    let mut problems = Vec::new();
    let mut table2_err_pp = f64::NAN;
    for (name, result, _) in results {
        text.push_str(&format!("==== {name} ====\n"));
        match result {
            Ok(r) => {
                text.push_str(&r.result.to_json().to_string_pretty());
                text.push('\n');
                if let Some(Err(why)) = &r.band {
                    problems.push(why.clone());
                }
                if let Some(err) = r.table2_err_pp {
                    table2_err_pp = err;
                }
            }
            Err(e) => problems.push(format!("{name} failed: {e}")),
        }
    }
    PaperCheck {
        document: fnv64(text.as_bytes()),
        failed: problems.len(),
        table2_err_pp,
        problems,
    }
}
