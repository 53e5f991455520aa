//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--quick]
//! repro all [--quick]
//! repro list
//! ```
//!
//! Experiments: `table1 fig1 fig2 fig3 fig4 fig5 fig10 fig11 fig12 fig13
//! table2 rsd cluster ablation` (`fig6`–`fig9` are the per-SoC studies and
//! run as part of `table2`, or individually as `fig6 fig7 fig8 fig9`).
//!
//! By default the paper's full protocol is used (3 min warmup, 5 min
//! workload, 5 iterations); `--quick` shrinks it for a fast smoke pass,
//! `--json` emits machine-readable results instead of text tables, and
//! `--export <dir>` additionally writes plot-ready `.dat` files for the
//! figure experiments.
//!
//! `--integrator <euler|rk4|exponential>` selects the thermal integration
//! scheme for every experiment (default: `euler`, the seed-era reference).
//! `exponential` is the fast path — a dense discrete-time propagator that
//! steps the whole RC network in one fused matrix-vector product (see
//! DESIGN.md §11); figure verdicts match the reference within the
//! documented tolerance. In debug builds `--verbose` prints the per-run
//! step/substep counters so the integrators' work can be compared.
//!
//! `--faults <plan.toml>` arms a fault-injection plan for the
//! session-based `rsd` experiment (other experiments ignore it and run
//! clean): sessions then exercise the harness's retry/quarantine path and
//! report per-session verdicts.
//!
//! The `sweep` target runs a §VI crowd-population sweep over a fleet of
//! Pixel devices, and is where the durability options live:
//!
//! ```text
//! repro sweep [--quick] [--devices N] [--seed S] [--threads T] \
//!             [--batch B] [--journal run.journal] [--resume] [--json] \
//!             [--sample K] [--sample-strategy srs|rss|stratified] \
//!             [--sample-seed S] [--oracle] \
//!             [--max-task-seconds W] [--on-failure abort|quarantine] \
//!             [--chaos-seed S] [--chaos-panics N] [--chaos-stalls N] \
//!             [--storage-faults plan.toml] \
//!             [--storage-escalation degrade|abort]
//! repro fsck <journal> [--repair]
//! repro verify <dir>
//! ```
//!
//! With `--journal` every finished device is appended to a write-ahead
//! journal (fsynced, self-checksummed) before the sweep moves on, so the
//! process can be killed — Ctrl-C, SIGTERM, power loss — and re-run with
//! `--resume` to continue from the last journaled device; the final
//! report is bit-identical to an uninterrupted run. `--seed` arms
//! per-device pseudo-random fault injection to exercise the resilient
//! path. `--threads` (default: the host's available parallelism) fans
//! device sessions out across a work-stealing pool; the report, database
//! and journal stay bit-identical to `--threads 1`. Each worker task is a
//! chunk of up to 64 consecutive devices (shorter on a fleet too small to
//! give every thread several); `--batch` (default 1) sets the
//! lockstep width: each run of up to that many devices in a chunk steps
//! its clean devices in SIMD-friendly lockstep through the
//! shared-propagator mat-mat kernel (DESIGN.md §15); faulted,
//! chaos-struck, traced, and deadline-supervised devices fall back to the
//! scalar supervised path, so every byte of output stays identical at any
//! `--batch` × `--threads` combination.
//!
//! By default the sweep runs on the **streaming aggregation engine**
//! (DESIGN.md §16): per-group partial aggregates (count/mean/M2 moments, a
//! fixed-bin score histogram, a bounded top-10 leaderboard) folded and
//! merged in canonical order on an absolute 64-device grid, so memory stays
//! O(bins + K + holes) however large the fleet, and the aggregate's bits —
//! like the journal's — are identical at any `--threads`/`--batch` and
//! across kill+resume. `--oracle` switches back to the exact full-fleet
//! [`CrowdDatabase`] path (every score retained in memory), the reference
//! the streaming engine is tested against.
//!
//! `--sample K` turns the sweep into a *subsampled census* of the
//! `--devices N` virtual population: only K devices are simulated, chosen
//! by `--sample-strategy` (default `stratified` — two-phase stratified over
//! the silicon-grade bins; `rss` is ranked-set sampling on grade; `srs` is
//! simple random sampling) under the deterministic `--sample-seed`. The
//! report then quotes mean/RSD/p50/p90 *estimates with 95 % bootstrap
//! confidence intervals* instead of exact fleet statistics (error bands:
//! DESIGN.md §16). The sampling plan enters the config digest, so a
//! sampled journal resumes only under the identical plan. `--sample`
//! requires the streaming engine (it is incompatible with `--oracle`).
//!
//! The sweep runs under the supervision layer (DESIGN.md §12):
//! `--max-task-seconds` arms a per-session wall-clock watchdog on top of
//! the always-armed simulated-time budget, and `--on-failure` picks the
//! escalation policy — `quarantine` (default) records the device as a
//! hole and completes the fleet `degraded` with exit 0; `abort` fails the
//! whole sweep on the first unrecovered device. `--chaos-panics` /
//! `--chaos-stalls` inject deterministic session panics and stalls into
//! `--chaos-seed`-chosen victims to exercise that machinery end to end.
//!
//! Storage durability (DESIGN.md §13): `--storage-faults <plan.toml>`
//! wraps the journal's filesystem in a deterministic fault injector
//! (`storage-enospc`, `storage-eio-transient`, `storage-eio-persistent`,
//! `storage-short-write`, `storage-fsync-lie`; `at`/`duration` count
//! storage operations, not seconds). The journal retries transients with
//! simulated-time backoff and rotates to a fresh segment on persistent
//! failures; when even that is exhausted, `--storage-escalation` decides:
//! `degrade` (default) stops journaling, finishes the sweep with exit 0
//! and reports the fleet `storage-degraded` — the sealed journal prefix
//! stays resumable — while `abort` fails the sweep with the I/O error.
//!
//! `repro fsck <journal>` verifies a run journal (all segments):
//! checksums, torn tails, header, duplicate outcomes. Exit 0 iff clean;
//! `--repair` truncates torn tails (the same healing `--resume` applies)
//! and re-checks. `repro verify <dir>` re-hashes an `--export` directory
//! against its manifest, naming each mismatched file with both checksums;
//! exit is non-zero on any mismatch.

use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{
    populate_batched, populate_streamed, CrowdDatabase, FleetVerdict, SamplePlan, SweepConfig,
};
use accubench::executor;
use accubench::experiments::{self, study, ExperimentConfig};
use accubench::journal::Journal;
use accubench::protocol::Protocol;
use accubench::storage::{FaultyStorage, Storage, StorageEscalation};
use accubench::supervise::{OnFailure, SessionChaos, SupervisionPolicy};
use pv_faults::FaultPlan;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_stats::sampling::{self, Strategy, StratumSample};
use pv_units::Seconds;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

#[path = "../sigint.rs"]
mod sigint;

const EXPERIMENTS: &[&str] = &[
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

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--json] [--export dir] \
         [--faults plan.toml] [--integrator euler|rk4|exponential] [--verbose]"
    );
    eprintln!(
        "       repro sweep [--quick] [--json] [--devices N] [--seed S] \
         [--threads T] [--batch B] [--journal run.journal] [--resume] \
         [--sample K] [--sample-strategy srs|rss|stratified] \
         [--sample-seed S] [--oracle] \
         [--integrator euler|rk4|exponential] \
         [--max-task-seconds W] [--on-failure abort|quarantine] \
         [--chaos-seed S] [--chaos-panics N] [--chaos-stalls N] \
         [--storage-faults plan.toml] [--storage-escalation degrade|abort]"
    );
    eprintln!("       repro fsck <journal> [--repair]");
    eprintln!("       repro verify <dir>");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    ExitCode::FAILURE
}

/// Flags that take a value. This one table drives parsing, so a value is
/// never mistaken for a positional target.
const VALUE_FLAGS: &[&str] = &[
    "--export",
    "--faults",
    "--devices",
    "--seed",
    "--journal",
    "--threads",
    "--batch",
    "--integrator",
    "--max-task-seconds",
    "--on-failure",
    "--chaos-seed",
    "--chaos-panics",
    "--chaos-stalls",
    "--storage-faults",
    "--storage-escalation",
    "--sample",
    "--sample-strategy",
    "--sample-seed",
];

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "--quick",
    "--json",
    "--oracle",
    "--resume",
    "--verbose",
    "--repair",
];

/// The command line split into switches, flag values and positional
/// arguments.
struct Args {
    switches: Vec<&'static str>,
    values: HashMap<&'static str, String>,
    positional: Vec<String>,
}

impl Args {
    /// Rejects an unknown `--flag`, a value flag with no value, and a value
    /// that is itself a `--flag`. The first occurrence of a flag wins.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args {
            switches: Vec::new(),
            values: HashMap::new(),
            positional: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&flag) = VALUE_FLAGS.iter().find(|f| **f == arg) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {
                        parsed.values.entry(flag).or_insert(value);
                    }
                    Some(value) => return Err(format!("{flag} requires a value, got {value}")),
                    None => return Err(format!("{flag} requires a value")),
                }
            } else if let Some(&flag) = SWITCHES.iter().find(|f| **f == arg) {
                parsed.switches.push(flag);
            } else if arg.starts_with("--") {
                return Err(format!("unknown option: {arg}"));
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let quick = args.has("--quick");
    let json = args.has("--json");
    let export_dir = args.value("--export");
    let faults_path = args.value("--faults");
    let devices_arg = args.value("--devices");
    let seed_arg = args.value("--seed");
    let journal_path = args.value("--journal");
    let threads_arg = args.value("--threads");
    let batch_arg = args.value("--batch");
    let integrator_arg = args.value("--integrator");
    let max_task_seconds_arg = args.value("--max-task-seconds");
    let on_failure_arg = args.value("--on-failure");
    let chaos_seed_arg = args.value("--chaos-seed");
    let chaos_panics_arg = args.value("--chaos-panics");
    let chaos_stalls_arg = args.value("--chaos-stalls");
    let storage_faults_path = args.value("--storage-faults");
    let storage_escalation_arg = args.value("--storage-escalation");
    let sample_arg = args.value("--sample");
    let sample_strategy_arg = args.value("--sample-strategy");
    let sample_seed_arg = args.value("--sample-seed");
    let oracle = args.has("--oracle");
    let resume = args.has("--resume");
    let verbose = args.has("--verbose");
    let repair = args.has("--repair");
    let mut positional = args.positional.iter();
    let target = match positional.next() {
        Some(t) => t.clone(),
        None => return usage(),
    };
    if target == "list" {
        println!("{}", EXPERIMENTS.join("\n"));
        return ExitCode::SUCCESS;
    }
    if target == "fsck" {
        let Some(path) = positional.next() else {
            eprintln!("fsck: missing journal path");
            return usage();
        };
        return run_fsck(path, repair);
    }
    if target == "verify" {
        let Some(dir) = positional.next() else {
            eprintln!("verify: missing export directory");
            return usage();
        };
        return match accubench::export::FigureExporter::verify(dir) {
            Ok(n) => {
                println!("verified {n} file(s) in {dir}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("verify: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut cfg = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    };
    if let Some(name) = &integrator_arg {
        match pv_thermal::network::Integrator::parse(name) {
            Some(i) => cfg = cfg.with_integrator(i),
            None => {
                eprintln!("--integrator: unknown scheme {name:?} (euler|rk4|exponential)");
                return ExitCode::FAILURE;
            }
        }
    }
    if target == "sweep" {
        let supervision = match parse_supervision(max_task_seconds_arg, on_failure_arg) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let chaos = match parse_chaos(chaos_seed_arg, chaos_panics_arg, chaos_stalls_arg) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let storage_escalation = match storage_escalation_arg {
            None => StorageEscalation::Degrade,
            Some(s) => match StorageEscalation::parse(s) {
                Some(e) => e,
                None => {
                    eprintln!("--storage-escalation: unknown policy {s:?} (degrade|abort)");
                    return ExitCode::FAILURE;
                }
            },
        };
        let storage_faults = match &storage_faults_path {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => match FaultPlan::from_toml_str(&text) {
                    Ok(plan) => Some(plan),
                    Err(e) => {
                        eprintln!("--storage-faults: {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                Err(e) => {
                    eprintln!("--storage-faults: could not read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        let sampling =
            match parse_sampling(sample_arg, sample_strategy_arg, sample_seed_arg, oracle) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
        return run_sweep(
            &cfg,
            devices_arg,
            seed_arg,
            threads_arg,
            batch_arg,
            journal_path,
            resume,
            json,
            supervision,
            chaos,
            storage_faults.as_ref(),
            storage_escalation,
            sampling,
            oracle,
        );
    }
    let fault_plan = match &faults_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match FaultPlan::from_toml_str(&text) {
                Ok(plan) => {
                    eprintln!("armed fault plan {path}: {} event(s)", plan.events.len());
                    Some(plan)
                }
                Err(e) => {
                    eprintln!("--faults: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("--faults: could not read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let emit = |value: pv_json::Json| {
        println!("{}", value.to_string_pretty());
    };
    let exporter = match &export_dir {
        Some(dir) => match accubench::export::FigureExporter::new(dir) {
            Ok(e) => Some(e),
            Err(e) => {
                eprintln!("--export: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let run_one = |name: &str| -> Result<(), accubench::BenchError> {
        if let Some(exporter) = &exporter {
            match name {
                "fig2" => {
                    let paths = exporter.export_fig2(&experiments::fig2::run(&cfg)?)?;
                    eprintln!("exported {} file(s) for fig2", paths.len());
                }
                "fig4" | "fig5" => {
                    let paths = exporter.export_fig45(&experiments::fig45::run(&cfg)?)?;
                    eprintln!("exported {} file(s) for fig4/fig5", paths.len());
                }
                "fig11" | "fig12" => {
                    let paths = exporter.export_fig1112(&experiments::fig1112::run(&cfg)?)?;
                    eprintln!("exported {} file(s) for fig11/fig12", paths.len());
                }
                "fig6" => {
                    exporter.export_study("fig6", &study::plans::nexus5(&cfg)?)?;
                }
                "fig7" => {
                    exporter.export_study("fig7", &study::plans::nexus6p(&cfg)?)?;
                }
                "fig8" => {
                    exporter.export_study("fig8", &study::plans::lg_g5(&cfg)?)?;
                }
                "fig9" => {
                    exporter.export_study("fig9", &study::plans::pixel(&cfg)?)?;
                }
                _ => {}
            }
        }
        if json {
            let value = match name {
                "table1" => pv_json::ToJson::to_json(&experiments::table1::run()?),
                "fig1" => pv_json::ToJson::to_json(&experiments::fig1::run(&cfg)?),
                "fig2" => pv_json::ToJson::to_json(&experiments::fig2::run(&cfg)?),
                "fig3" => pv_json::ToJson::to_json(&experiments::fig3::run(&cfg)?),
                "fig4" | "fig5" => pv_json::ToJson::to_json(&experiments::fig45::run(&cfg)?),
                "fig6" => pv_json::ToJson::to_json(&study::plans::nexus5(&cfg)?),
                "fig7" => pv_json::ToJson::to_json(&study::plans::nexus6p(&cfg)?),
                "fig8" => pv_json::ToJson::to_json(&study::plans::lg_g5(&cfg)?),
                "fig9" => pv_json::ToJson::to_json(&study::plans::pixel(&cfg)?),
                "fig10" => pv_json::ToJson::to_json(&experiments::fig10::run(&cfg)?),
                "fig11" | "fig12" => pv_json::ToJson::to_json(&experiments::fig1112::run(&cfg)?),
                "fig13" => pv_json::ToJson::to_json(&experiments::fig13::run(&cfg)?),
                "table2" => pv_json::ToJson::to_json(&experiments::table2::run(&cfg)?),
                "rsd" => pv_json::ToJson::to_json(&experiments::rsd::run_with_faults(
                    &cfg,
                    fault_plan.as_ref(),
                )?),
                "cluster" => {
                    pv_json::ToJson::to_json(&experiments::cluster::run(&cfg, 30, 4, 2024)?)
                }
                "ablation" => pv_json::ToJson::to_json(&experiments::ablation::run(&cfg)?),
                "ambient" => pv_json::ToJson::to_json(&experiments::ambient_estimate::run(&cfg)?),
                "ranking" => pv_json::ToJson::to_json(&experiments::ranking::run(&cfg, 20, 2024)?),
                "lowerbound" => {
                    pv_json::ToJson::to_json(&experiments::lowerbound::run(&cfg, 500, 40, 31337)?)
                }
                "forecast" => pv_json::ToJson::to_json(&experiments::forecast::run(&cfg)?),
                "load" => pv_json::ToJson::to_json(&experiments::load_sensitivity::run(&cfg)?),
                "skin" => pv_json::ToJson::to_json(&experiments::skin::run(&cfg)?),
                "aging" => pv_json::ToJson::to_json(&experiments::aging::run(&cfg)?),
                "governor" => pv_json::ToJson::to_json(&experiments::governor_study::run(&cfg)?),
                other => {
                    eprintln!("unknown experiment: {other}");
                    return Err(accubench::BenchError::InvalidProtocol("unknown experiment"));
                }
            };
            emit(value);
            return Ok(());
        }
        match name {
            "table1" => {
                let t = experiments::table1::run()?;
                println!("{}", t.render());
                println!(
                    "worst model-vs-kernel deviation: {} mV\n",
                    t.worst_deviation_mv()
                );
            }
            "fig1" => {
                let f = experiments::fig1::run(&cfg)?;
                println!("{}", f.render());
                println!(
                    "paper: bin-4 ≈ +20% energy, ≈ +18-20% time vs bin-0; core shutdown at 80 °C",
                );
                println!(
                    "measured: worst-vs-best energy +{:.0}%, time +{:.0}%\n",
                    f.energy_excess_fraction() * 100.0,
                    f.time_excess_fraction() * 100.0
                );
            }
            "fig2" => {
                let f = experiments::fig2::run(&cfg)?;
                println!("{}", f.render());
                for s in &f.sweeps {
                    println!(
                        "{}: energy growth cool→hot {:.0}% (paper: 25-30%+)",
                        s.label,
                        s.energy_growth_fraction() * 100.0
                    );
                }
                println!();
            }
            "fig3" => {
                let f = experiments::fig3::run(&cfg)?;
                println!("{}", f.render());
                println!("paper: holds 26 ± 0.5 °C\n");
            }
            "fig4" => {
                let f = experiments::fig45::run(&cfg)?;
                println!("{}", f.unconstrained.render());
            }
            "fig5" => {
                let f = experiments::fig45::run(&cfg)?;
                println!("{}", f.fixed.render());
            }
            "fig6" => print_study(study::plans::nexus5(&cfg)?, 14.0, 19.0)?,
            "fig7" => print_study(study::plans::nexus6p(&cfg)?, 10.0, 12.0)?,
            "fig8" => print_study(study::plans::lg_g5(&cfg)?, 4.0, 10.0)?,
            "fig9" => print_study(study::plans::pixel(&cfg)?, 5.0, 9.0)?,
            "fig10" => {
                let f = experiments::fig10::run(&cfg)?;
                println!("{}", f.render());
                println!("paper: nominal-voltage Monsoon ≈ 20% throttled; 4.4 V ≈ battery",);
                println!(
                    "measured: nominal/battery {:.3}, max/battery {:.3}\n",
                    f.nominal_vs_battery(),
                    f.max_vs_battery()
                );
            }
            "fig11" => {
                let f = experiments::fig1112::run(&cfg)?;
                println!("{}", f.pixel.render());
                println!("paper: 7% perf gap matching the mean-frequency gap\n");
            }
            "fig12" => {
                let f = experiments::fig1112::run(&cfg)?;
                println!("{}", f.nexus5.render());
                println!("paper: 11% perf gap matching the mean-frequency gap\n");
            }
            "fig13" => {
                let f = experiments::fig13::run(&cfg)?;
                println!("{}", f.render());
                println!(
                    "SD-805 dip (paper: present): {}; efficiency trend slope: {:+.3}/gen\n",
                    f.sd805_dip(),
                    f.trend()?.slope
                );
            }
            "table2" => {
                let t2 = experiments::table2::run(&cfg)?;
                println!("{}", t2.render());
            }
            "rsd" => {
                let r = experiments::rsd::run_with_faults(&cfg, fault_plan.as_ref())?;
                println!("{}", r.render());
                println!("paper: average 1.1% RSD over ~300 iterations\n");
            }
            "cluster" => {
                let c = experiments::cluster::run(&cfg, 30, 4, 2024)?;
                println!("{}", c.render());
            }
            "ablation" => {
                let a = experiments::ablation::run(&cfg)?;
                println!("{}", a.render());
            }
            "ambient" => {
                let a = experiments::ambient_estimate::run(&cfg)?;
                println!("{}", a.render());
                println!("paper (§VI): cooldown-based ambient estimation called 'encouraging'\n");
            }
            "ranking" => {
                let r = experiments::ranking::run(&cfg, 20, 2024)?;
                println!("{}", r.render());
            }
            "lowerbound" => {
                let mc = experiments::lowerbound::run(&cfg, 500, 40, 31337)?;
                println!("{}", mc.render()?);
                println!("paper (§VII): Table II spreads are minimum lower bounds\n");
            }
            "forecast" => {
                let f = experiments::forecast::run(&cfg)?;
                println!("{}", f.render()?);
            }
            "load" => {
                let l = experiments::load_sensitivity::run(&cfg)?;
                println!("{}", l.render());
            }
            "skin" => {
                let s = experiments::skin::run(&cfg)?;
                println!("{}", s.render());
            }
            "aging" => {
                let a = experiments::aging::run(&cfg)?;
                println!("{}", a.render());
                println!("paper (§IV-C): input-voltage throttling 'reminiscent of old iPhones being throttled'\n");
            }
            "governor" => {
                let g = experiments::governor_study::run(&cfg)?;
                println!("{}", g.render());
            }
            other => {
                eprintln!("unknown experiment: {other}");
                return Err(accubench::BenchError::InvalidProtocol("unknown experiment"));
            }
        }
        Ok(())
    };

    let targets: Vec<&str> = if target == "all" {
        EXPERIMENTS.to_vec()
    } else {
        vec![target.as_str()]
    };
    for t in targets {
        println!("==== {t} ====");
        if let Err(e) = run_one(t) {
            eprintln!("{t} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if verbose {
        #[cfg(debug_assertions)]
        {
            let (steps, substeps) = pv_thermal::network::step_stats::snapshot();
            eprintln!(
                "[step-stats] integrator={}: {steps} thermal steps, {substeps} substeps",
                cfg.integrator
            );
        }
        #[cfg(not(debug_assertions))]
        eprintln!("[step-stats] only collected in debug builds");
    }
    ExitCode::SUCCESS
}

/// Parses `--max-task-seconds` / `--on-failure` into a supervision policy.
fn parse_supervision(
    max_task_seconds: Option<&str>,
    on_failure: Option<&str>,
) -> Result<SupervisionPolicy, String> {
    let mut policy = SupervisionPolicy::default();
    if let Some(w) = max_task_seconds {
        match w.parse::<f64>() {
            Ok(secs) if secs > 0.0 && secs.is_finite() => policy.max_wall_seconds = Some(secs),
            _ => return Err("--max-task-seconds must be a positive number".into()),
        }
    }
    if let Some(mode) = on_failure {
        policy.on_failure = OnFailure::parse(mode)
            .ok_or_else(|| format!("--on-failure: unknown policy {mode:?} (abort|quarantine)"))?;
    }
    Ok(policy)
}

/// Parses the `--chaos-*` flags into an optional session-chaos plan.
fn parse_chaos(
    seed: Option<&str>,
    panics: Option<&str>,
    stalls: Option<&str>,
) -> Result<Option<SessionChaos>, String> {
    let count = |arg: Option<&str>, flag: &str| -> Result<usize, String> {
        arg.map_or(Ok(0), |v| {
            v.parse()
                .map_err(|_| format!("{flag} must be a non-negative integer"))
        })
    };
    let panics = count(panics, "--chaos-panics")?;
    let stalls = count(stalls, "--chaos-stalls")?;
    if panics == 0 && stalls == 0 {
        if seed.is_some() {
            return Err("--chaos-seed needs --chaos-panics or --chaos-stalls".into());
        }
        return Ok(None);
    }
    let seed: u64 = match seed.map_or(Ok(0), str::parse) {
        Ok(s) => s,
        Err(_) => return Err("--chaos-seed must be an unsigned integer".into()),
    };
    Ok(Some(SessionChaos::new(seed, panics, stalls)))
}

/// Parses the `--sample*` flags into an optional sampling plan.
fn parse_sampling(
    sample: Option<&str>,
    strategy: Option<&str>,
    seed: Option<&str>,
    oracle: bool,
) -> Result<Option<SamplePlan>, String> {
    let Some(k) = sample else {
        if strategy.is_some() || seed.is_some() {
            return Err("--sample-strategy/--sample-seed need --sample <n>".into());
        }
        return Ok(None);
    };
    if oracle {
        return Err("--sample needs the streaming engine; drop --oracle".into());
    }
    let n: usize = match k.parse() {
        Ok(n) if n > 0 => n,
        _ => return Err("--sample must be a positive integer".into()),
    };
    let strategy = match strategy {
        None => Strategy::Stratified,
        Some(s) => Strategy::parse(s)
            .map_err(|_| format!("--sample-strategy: unknown design {s:?} (srs|rss|stratified)"))?,
    };
    let seed: u64 = match seed.map_or(Ok(0), str::parse) {
        Ok(s) => s,
        Err(_) => return Err("--sample-seed must be an unsigned integer".into()),
    };
    // `population` is filled in from --devices by run_sweep.
    Ok(Some(SamplePlan {
        population: 0,
        n,
        strategy,
        seed,
    }))
}

/// Speed grade of virtual device `i` in a population of `population`:
/// spread evenly across the binning range.
fn grade_of(i: usize, population: usize) -> f64 {
    0.05 + 0.9 * (i as f64) / (population.max(2) - 1) as f64
}

/// Builds sweep devices for the given population indices: Pixels graded by
/// [`grade_of`], labelled `pixel-crowd-NNN` by population index (so a
/// sampled fleet keeps its population identities).
fn fleet_of(
    indices: impl Iterator<Item = usize>,
    population: usize,
) -> Result<Vec<Device>, accubench::BenchError> {
    indices
        .map(|i| {
            catalog::pixel(grade_of(i, population), format!("pixel-crowd-{i:03}"))
                .map_err(Into::into)
        })
        .collect()
}

/// How a sweep ended, for the closing lines both engines share.
struct SweepEnd<'a> {
    resumed: usize,
    storage_degraded: Option<&'a str>,
    verdict: FleetVerdict,
    complete: bool,
    processed: usize,
}

/// The closing steps of every sweep: the resume notice, journal storage
/// health and storage-degraded lines, then `print_report`, then — for an
/// interrupted sweep — the resume hint and a failing exit code.
fn finish_sweep(
    end: SweepEnd<'_>,
    journal: &Option<Journal>,
    journal_path: Option<&str>,
    print_report: impl FnOnce(),
) -> ExitCode {
    if end.resumed > 0 {
        eprintln!("resumed {} journaled device(s)", end.resumed);
    }
    if let Some(j) = journal {
        let h = j.health();
        if !h.is_clean() {
            eprintln!(
                "journal storage health: {} retried write(s), {} segment rotation(s), \
                 {:.2}s simulated backoff",
                h.retries, h.rotations, h.backoff_sim_s,
            );
            for event in &h.events {
                eprintln!("  {event}");
            }
        }
    }
    if let Some(detail) = end.storage_degraded {
        // Degrade policy: the sweep itself is whole (exit 0 below), but
        // only the sealed journal prefix survives a crash from here on.
        eprintln!("storage degraded: {detail}");
        eprintln!("fleet verdict: {}", end.verdict);
    }
    print_report();
    if !end.complete {
        eprintln!(
            "interrupted after {} device(s); resume with: repro sweep --journal {} --resume",
            end.processed,
            journal_path.unwrap_or("<path>"),
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `sweep` target: a journaled, interruptible, parallel, supervised
/// crowd-population sweep — streaming by default, exact with `--oracle`,
/// subsampled with `--sample`.
#[allow(clippy::too_many_arguments)]
fn run_sweep(
    cfg: &ExperimentConfig,
    devices_arg: Option<&str>,
    seed_arg: Option<&str>,
    threads_arg: Option<&str>,
    batch_arg: Option<&str>,
    journal_path: Option<&str>,
    resume: bool,
    json: bool,
    supervision: SupervisionPolicy,
    chaos: Option<SessionChaos>,
    storage_faults: Option<&FaultPlan>,
    storage_escalation: StorageEscalation,
    sampling_plan: Option<SamplePlan>,
    oracle: bool,
) -> ExitCode {
    let n: usize = match devices_arg.map_or(Ok(100), str::parse) {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("--devices must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let seed: Option<u64> = match seed_arg.map(str::parse).transpose() {
        Ok(s) => s,
        Err(_) => {
            eprintln!("--seed must be an unsigned integer");
            return ExitCode::FAILURE;
        }
    };
    let threads: usize = match threads_arg.map_or(Ok(executor::default_threads()), str::parse) {
        Ok(t) if t > 0 => t,
        _ => {
            eprintln!("--threads must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let batch: usize = match batch_arg.map_or(Ok(1), str::parse) {
        Ok(b) if b > 0 => b,
        _ => {
            eprintln!("--batch must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    if resume && journal_path.is_none() {
        eprintln!("--resume requires --journal <path>");
        return ExitCode::FAILURE;
    }

    // `scaled` also pins the configured integrator, which the journal's
    // config digest covers: a journal written with one scheme cannot be
    // silently resumed with another.
    let protocol = cfg.scaled(Protocol::unconstrained());
    let mut sweep_cfg = SweepConfig::clean(protocol, cfg.iterations)
        .with_supervision(supervision)
        .with_storage_escalation(storage_escalation);
    if let Some(seed) = seed {
        let iteration = protocol.warmup.value() + protocol.workload.value() + 100.0;
        sweep_cfg = sweep_cfg.with_faults(
            seed,
            Seconds(iteration * 10.0),
            pv_faults::ALL_KINDS.to_vec(),
        );
    }
    if let Some(chaos) = chaos {
        sweep_cfg = sweep_cfg.with_chaos(chaos);
    }

    // Resolve the sampling plan against the population and select the
    // simulated subset. The selection is deterministic for the plan, so a
    // resumed run re-derives the identical device list (and the digest
    // guards against resuming under a different plan).
    let selection = match sampling_plan {
        None => None,
        Some(mut plan) => {
            if plan.n > n {
                eprintln!("--sample {} exceeds --devices {n}", plan.n);
                return ExitCode::FAILURE;
            }
            plan.population = n;
            let aux: Vec<f64> = (0..n).map(|i| grade_of(i, n)).collect();
            let strata = pv_silicon::binning::nexus5::N_BINS as usize;
            let sel = match sampling::select(plan.strategy, &aux, plan.n, strata, plan.seed) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("--sample: {e}");
                    return ExitCode::FAILURE;
                }
            };
            sweep_cfg = sweep_cfg.with_sampling(plan.clone());
            Some((plan, sel))
        }
    };

    // The journal's filesystem, optionally wrapped in the deterministic
    // storage fault injector.
    let storage = match storage_faults {
        Some(plan) => {
            let armed = plan.events.iter().filter(|e| e.kind.is_storage()).count();
            eprintln!("armed storage fault plan: {armed} storage event(s)");
            Storage::new(Arc::new(FaultyStorage::new(Storage::os(), plan)))
        }
        None => Storage::os(),
    };
    let journal = match journal_path {
        Some(path) => match Journal::open_with(storage, path) {
            Ok(j) => {
                if j.dropped_bytes() > 0 {
                    eprintln!(
                        "journal {path}: dropped {} byte(s) of torn tail",
                        j.dropped_bytes()
                    );
                }
                if !j.recovered().is_empty() && !resume {
                    eprintln!(
                        "journal {path} already holds {} record(s); \
                         pass --resume to continue it or choose a fresh path",
                        j.recovered().len()
                    );
                    return ExitCode::FAILURE;
                }
                Some(j)
            }
            Err(e) => {
                eprintln!("--journal: {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let devices = match &selection {
        Some((plan, sel)) => fleet_of(sel.indices.iter().copied(), plan.population),
        None => fleet_of(0..n, n),
    };
    let devices = match devices {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cancel = sigint::install();
    let sweeping = match &selection {
        Some((plan, _)) => format!(
            "sweeping {} sampled of {n} device(s) ({})",
            plan.n,
            plan.strategy.as_str()
        ),
        None => format!("sweeping {n} device(s)"),
    };
    eprintln!(
        "{sweeping}, {} iteration(s) each, {threads} thread(s){}{} ...",
        cfg.iterations,
        if oracle { ", oracle engine" } else { "" },
        journal_path.map_or_else(String::new, |p| format!(", journal {p}")),
    );

    if oracle {
        return run_sweep_oracle(
            devices,
            &sweep_cfg,
            journal,
            &cancel,
            threads,
            batch,
            json,
            journal_path,
        );
    }
    run_sweep_streamed(
        devices,
        &sweep_cfg,
        journal,
        &cancel,
        threads,
        batch,
        json,
        journal_path,
        selection,
    )
}

/// The exact reference path: every score retained in a [`CrowdDatabase`].
#[allow(clippy::too_many_arguments)]
fn run_sweep_oracle(
    devices: Vec<Device>,
    sweep_cfg: &SweepConfig,
    mut journal: Option<Journal>,
    cancel: &accubench::journal::CancelToken,
    threads: usize,
    batch: usize,
    json: bool,
    journal_path: Option<&str>,
) -> ExitCode {
    let mut db = match CrowdDatabase::new(5.0) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sweep = match populate_batched(
        &mut db,
        "Pixel",
        devices,
        sweep_cfg,
        journal.as_mut(),
        cancel,
        threads,
        batch,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let end = SweepEnd {
        resumed: sweep.resumed,
        storage_degraded: sweep.storage_degraded.as_deref(),
        verdict: sweep.fleet_verdict(),
        complete: sweep.complete,
        processed: sweep.report.outcomes.len(),
    };
    finish_sweep(end, &journal, journal_path, || {
        if json {
            println!(
                "{}",
                pv_json::ToJson::to_json(&sweep.report).to_string_pretty()
            );
        } else {
            println!("{}", sweep.report);
            if let Some(spread) = db.model_spread_percent("Pixel") {
                println!("model spread: {spread:.1}%");
            }
            if sweep.report.fleet_verdict() == FleetVerdict::Degraded {
                // Holes bias a plain mean, so a degraded fleet reports a
                // bootstrap interval computed over the survivors only.
                if let Ok(ci) = sweep.report.survivor_ci(&db, "Pixel") {
                    println!(
                        "survivor score: {:.1} (95% bootstrap CI {:.1}..{:.1} over {} device(s))",
                        ci.point,
                        ci.lo,
                        ci.hi,
                        sweep.report.outcomes.len() - sweep.report.quarantined_devices(),
                    );
                }
            }
        }
    })
}

/// Histogram layout of the streaming sweep aggregate: wide enough for any
/// protocol scaling the CLI offers, at ~10-point quantile resolution.
const SWEEP_HIST_LO: f64 = 0.0;
const SWEEP_HIST_HI: f64 = 2000.0;
const SWEEP_HIST_BINS: usize = 200;

/// The default streaming path: constant-memory mergeable aggregates, plus
/// sampled estimation when a `--sample` selection rode along.
#[allow(clippy::too_many_arguments)]
fn run_sweep_streamed(
    devices: Vec<Device>,
    sweep_cfg: &SweepConfig,
    mut journal: Option<Journal>,
    cancel: &accubench::journal::CancelToken,
    threads: usize,
    batch: usize,
    json: bool,
    journal_path: Option<&str>,
    selection: Option<(SamplePlan, sampling::Selection)>,
) -> ExitCode {
    let mut agg = match ScoreAggregate::with_layout(
        5.0,
        SWEEP_HIST_LO,
        SWEEP_HIST_HI,
        SWEEP_HIST_BINS,
        accubench::aggregate::DEFAULT_TOP_K,
    ) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sweep = match populate_streamed(
        &mut agg,
        "Pixel",
        devices,
        sweep_cfg,
        journal.as_mut(),
        cancel,
        threads,
        batch,
        selection.is_some(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let end = SweepEnd {
        resumed: sweep.resumed,
        storage_degraded: sweep.storage_degraded.as_deref(),
        verdict: sweep.fleet_verdict(),
        complete: sweep.complete,
        processed: sweep.processed,
    };
    finish_sweep(end, &journal, journal_path, || {
        // Sampled estimation: group the retained scores back into the
        // selection's weighted strata (devices that quarantined simply leave
        // their stratum lighter) and bootstrap the population estimates.
        let estimates = selection.as_ref().and_then(|(plan, sel)| {
            let by_pop: HashMap<usize, f64> = sweep
                .retained
                .iter()
                .map(|&(idx, score)| (sel.indices[idx], score))
                .collect();
            let groups: Vec<StratumSample> = sel
                .groups
                .iter()
                .map(|g| StratumSample {
                    weight: g.weight,
                    values: g
                        .indices
                        .iter()
                        .filter_map(|i| by_pop.get(i).copied())
                        .collect(),
                })
                .collect();
            match sampling::estimate(&groups, 0.95, 1000, plan.seed) {
                Ok(est) => Some(est),
                Err(e) => {
                    eprintln!("sampled estimation failed: {e}");
                    None
                }
            }
        });

        if json {
            let mut obj = pv_json::Json::object();
            obj.insert("model", pv_json::ToJson::to_json(&sweep.model));
            obj.insert("devices", pv_json::ToJson::to_json(&sweep.devices));
            obj.insert("completed", pv_json::ToJson::to_json(&sweep.completed));
            obj.insert("holes", pv_json::ToJson::to_json(&sweep.holes.len()));
            obj.insert("complete", pv_json::ToJson::to_json(&sweep.complete));
            obj.insert("resumed", pv_json::ToJson::to_json(&sweep.resumed));
            obj.insert(
                "verdict",
                pv_json::Json::String(sweep.fleet_verdict().to_string()),
            );
            obj.insert("aggregate", pv_json::ToJson::to_json(&agg));
            if let Some((plan, _)) = &selection {
                let mut p = pv_json::Json::object();
                p.insert("population", pv_json::ToJson::to_json(&plan.population));
                p.insert("n", pv_json::ToJson::to_json(&plan.n));
                p.insert(
                    "strategy",
                    pv_json::Json::String(plan.strategy.as_str().to_owned()),
                );
                p.insert("seed", pv_json::ToJson::to_json(&plan.seed));
                obj.insert("sampling", p);
            }
            if let Some(est) = &estimates {
                obj.insert("estimates", pv_json::ToJson::to_json(est));
            }
            println!("{}", obj.to_string_pretty());
        } else {
            print!("{sweep}");
            render_streamed_stats(&agg);
            if sweep.fleet_verdict() == FleetVerdict::Degraded {
                // Holes bias a plain mean; quote the survivors-only interval
                // (normal approximation — the streaming path holds no raw
                // scores to bootstrap).
                if let Ok(ci) = sweep.survivor_ci() {
                    println!(
                        "survivor score: {:.1} (95% CI {:.1}..{:.1} over {} device(s))",
                        ci.point,
                        ci.lo,
                        ci.hi,
                        agg.accepted(),
                    );
                }
            }
            if let (Some((plan, _)), Some(est)) = (&selection, &estimates) {
                println!(
                    "sampled estimates ({} n={} of {}; 95% bootstrap CI):",
                    plan.strategy.as_str(),
                    est.n,
                    plan.population
                );
                println!(
                    "  mean score: {:.1}  [{:.1}, {:.1}]",
                    est.mean.point, est.mean.lo, est.mean.hi
                );
                println!(
                    "  RSD:        {:.2}% [{:.2}%, {:.2}%]",
                    est.rsd_percent.point, est.rsd_percent.lo, est.rsd_percent.hi
                );
                println!(
                    "  p50:        {:.1}  [{:.1}, {:.1}]",
                    est.p50.point, est.p50.lo, est.p50.hi
                );
                println!(
                    "  p90:        {:.1}  [{:.1}, {:.1}]",
                    est.p90.point, est.p90.lo, est.p90.hi
                );
            }
        }
    })
}

/// Prints the streaming aggregate's fleet statistics.
fn render_streamed_stats(agg: &ScoreAggregate) {
    if let (Ok(mean), Ok(rsd)) = (agg.mean(), agg.rsd_percent()) {
        println!("fleet mean score: {mean:.1} (RSD {rsd:.2}%)");
    }
    if let (Some(p50), Some(p90)) = (agg.approx_quantile(0.50), agg.approx_quantile(0.90)) {
        println!(
            "approx p50 {p50:.0}, p90 {p90:.0} (histogram resolution {:.0})",
            (SWEEP_HIST_HI - SWEEP_HIST_LO) / SWEEP_HIST_BINS as f64
        );
    }
    let oor = agg.out_of_range_fraction();
    if oor > 0.01 {
        eprintln!(
            "warning: {:.1}% of scores outside the [{SWEEP_HIST_LO}, {SWEEP_HIST_HI}] \
             histogram range; quantiles are clamped",
            oor * 100.0
        );
    }
}

/// The `fsck` target: verify a run journal across all its segments, and
/// with `--repair` truncate torn tails (the same healing `--resume`
/// applies) and re-check. Exit 0 iff the journal ends up clean.
fn run_fsck(path: &str, repair: bool) -> ExitCode {
    let report = match accubench::journal::fsck(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fsck: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{report}");
    if report.is_clean() {
        println!("{path}: clean");
        return ExitCode::SUCCESS;
    }
    if !repair {
        eprintln!("{path}: dirty; `repro fsck {path} --repair` truncates torn tails");
        return ExitCode::FAILURE;
    }
    // Opening the journal performs exactly the repair `--resume` would:
    // every segment's torn tail is truncated away.
    match Journal::open(path) {
        Ok(j) => eprintln!(
            "repaired: {} record(s) kept across {} segment(s)",
            j.recovered().len(),
            j.segments().len(),
        ),
        Err(e) => {
            eprintln!("fsck --repair: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match accubench::journal::fsck(path) {
        Ok(r) => {
            println!("{r}");
            if r.is_clean() {
                println!("{path}: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("{path}: still dirty after repair (not a torn-tail problem)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fsck: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_study(
    s: study::SocStudy,
    paper_perf: f64,
    paper_energy: f64,
) -> Result<(), accubench::BenchError> {
    println!("{}", s.render()?);
    println!(
        "paper: perf variation {paper_perf:.0}%, energy variation {paper_energy:.0}% | measured: perf {:.1}%, energy {:.1}%\n",
        s.perf_spread_percent()?,
        s.energy_spread_percent()?
    );
    Ok(())
}
