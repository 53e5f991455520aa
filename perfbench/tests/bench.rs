//! The benchmark's own checks: its metric names, the reference-speed
//! conversion, determinism of the fingerprints it compares across thread
//! counts, and the span composition check on a tiny traced run.

use accubench::experiments::ExperimentConfig;
use accubench::storage::Storage;
use perfbench::probes::{StorageCounts, TimingStorage};
use perfbench::trace::{self, Span};
use perfbench::workload::{self, Kind, SweepSpec};
use pv_json::Json;
use pv_thermal::network::Integrator;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The span recorder is process-wide; tests that run workloads take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
            )
        })
        .collect()
}

#[test]
fn metric_and_workload_names_follow_the_grammar_and_the_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), owned(&perfbench::END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&perfbench::PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Kind::ALL.map(Kind::name));

    let mut names: Vec<String> = workloads.iter().map(|w| (*w).to_owned()).collect();
    names.extend(perfbench::END_TO_END.iter().map(|(n, _)| (*n).to_owned()));
    names.extend(perfbench::PER_LAYER.iter().map(|(n, _)| (*n).to_owned()));
    names.extend(
        workload::EXPERIMENTS
            .iter()
            .map(|e| format!("experiments.{e}_ms")),
    );
    for name in &names {
        assert!(valid_name(name), "{name:?} breaks the name grammar");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

#[test]
fn arguments_parse_and_reject_bad_values() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
    let a = perfbench::parse_args(&args(
        "--workload fleet-sweep --seed 7 --seconds 2 --trace 1",
    ))
    .unwrap();
    assert_eq!(a.kind, Kind::FleetSweep);
    assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, true));
    for bad in [
        "--workload nope",
        "--seed 1",
        "--workload paper-repro --trace 2",
        "--workload paper-repro --seconds -1",
        "--workload paper-repro --seed",
        "--workload paper-repro --extra 1",
    ] {
        assert!(perfbench::parse_args(&args(bad)).is_err(), "{bad}");
    }
}

#[test]
fn reference_speed_scales_by_the_loops_time_around_the_part() {
    use perfbench::reference::{at_reference, sample, REFERENCE_S, SENSITIVITY};
    // Loop at its nominal time: wall time unchanged; twice as slow on
    // average: scaled by 2^-SENSITIVITY.
    assert!((at_reference(2.0, REFERENCE_S, REFERENCE_S) - 2.0).abs() < 1e-12);
    let slow = at_reference(2.0, REFERENCE_S, 3.0 * REFERENCE_S);
    assert!((slow - 2.0 * 0.5f64.powf(SENSITIVITY)).abs() < 1e-12);
    for threads in [1, 2] {
        let s = sample(threads);
        assert!(s.is_finite() && s > 0.0, "{threads} thread(s): {s}");
    }
}

/// A tiny protocol so the shrunken sweeps finish quickly in debug builds.
fn tiny(integrator: Integrator) -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.05,
        iterations: 2,
        integrator,
    }
}

fn sweep_fingerprint(spec: &SweepSpec, seed: u64, tag: &str) -> (u64, Option<u64>) {
    let dir = scratch(tag);
    let path = spec.journal.then(|| dir.join("sweep.journal"));
    let inputs = workload::sweep_setup(spec, seed, path.as_deref(), Storage::os()).unwrap();
    let run = workload::sweep_call(spec, inputs).unwrap();
    let check = workload::sweep_check(&run, path.as_deref());
    assert!(check.problems.is_empty(), "{:?}", check.problems);
    assert_eq!(check.holes, 0);
    (check.document, check.journal)
}

#[test]
fn fingerprints_are_identical_at_one_and_two_threads() {
    let _g = serial();
    let fleet = SweepSpec {
        population: 24,
        cfg: tiny(Integrator::Exponential),
        batch: 8,
        ..SweepSpec::fleet()
    };
    let census = SweepSpec {
        population: 20_000,
        sample: Some(48),
        cfg: tiny(Integrator::Euler),
        ..SweepSpec::census()
    };
    for (spec, seed) in [(fleet, 0), (fleet, 5), (census, 0), (census, 5)] {
        let one = sweep_fingerprint(&SweepSpec { threads: 1, ..spec }, seed, "t1");
        let two = sweep_fingerprint(&SweepSpec { threads: 2, ..spec }, seed, "t2");
        assert_eq!(one, two, "seed {seed}: {spec:?}");
        assert_eq!(one.1.is_some(), spec.journal);
    }
    // A non-default seed draws a different sample.
    let a = sweep_fingerprint(&census, 0, "s0");
    let b = sweep_fingerprint(&census, 5, "s5");
    assert_ne!(a, b);
}

fn span(id: u64, parent: Option<u64>, name: &str, thread: u64, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name: name.to_owned(),
        run: 1,
        thread,
        start_ns: start,
        end_ns: end,
    }
}

#[test]
fn composition_check_flags_double_counting_and_unattributed_glue() {
    let ok = [
        span(1, None, "call", 1, 0, 1_000_000),
        span(2, Some(1), "a", 1, 0, 600_000),
        span(3, Some(1), "b", 1, 600_000, 995_000),
        // Concurrent work on another thread does not count against "call".
        span(4, Some(1), "c", 2, 0, 1_000_000),
    ];
    assert!(trace::check_composition(&ok, &["call"]).is_ok());

    let gap = [
        span(1, None, "call", 1, 0, 1_000_000),
        span(2, Some(1), "a", 1, 0, 900_000),
    ];
    assert!(trace::check_composition(&gap, &["call"]).is_err());
    assert!(trace::check_composition(&gap, &[]).is_ok());

    let double = [
        span(1, None, "x", 1, 0, 1_000_000),
        span(2, Some(1), "a", 1, 0, 800_000),
        span(3, Some(1), "b", 1, 0, 800_000),
    ];
    assert!(trace::check_composition(&double, &[]).is_err());
}

#[test]
fn spans_of_a_tiny_traced_sweep_compose() {
    let _g = serial();
    let spec = SweepSpec {
        population: 16,
        cfg: tiny(Integrator::Exponential),
        batch: 4,
        ..SweepSpec::fleet()
    };
    let dir = scratch("traced");
    let path = dir.join("sweep.journal");
    let counts = Arc::new(StorageCounts::default());
    let storage = Storage::new(Arc::new(TimingStorage::new(Arc::clone(&counts))));
    trace::take();
    trace::set_run(1);
    trace::enable(true);
    let run = {
        let _rep = trace::span("rep");
        let inputs = {
            let _s = trace::span("setup");
            workload::sweep_setup(&spec, 0, Some(&path), storage).unwrap()
        };
        let _s = trace::span("call");
        workload::sweep_call(&spec, inputs).unwrap()
    };
    trace::enable(false);
    let spans = trace::take();
    assert!(run.sweep.complete);
    trace::check_composition(&spans, &perfbench::GLUE_SPANS).unwrap();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "rep",
        "setup",
        "inputs.grades",
        "journal.create",
        "soc.build",
        "call",
        "crowd.populate_streamed",
        "journal.write",
        "journal.fsync",
    ] {
        assert!(names.contains(&expected), "no {expected} span in {names:?}");
    }
    // Journal I/O hangs off the call that caused it, whichever thread wrote.
    let id_of = |name: &str| spans.iter().find(|s| s.name == name).map(|s| s.id);
    let causes = [id_of("crowd.populate_streamed"), id_of("journal.create")];
    for s in spans
        .iter()
        .filter(|s| s.name.starts_with("journal.") && s.name != "journal.create")
    {
        assert!(
            causes.contains(&s.parent),
            "{} has parent {:?}",
            s.name,
            s.parent
        );
    }
    let fsyncs = counts.fsyncs.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        fsyncs as usize,
        names.iter().filter(|n| **n == "journal.fsync").count()
    );
    assert!(fsyncs >= 16, "one fsync per device at least, got {fsyncs}");
}
