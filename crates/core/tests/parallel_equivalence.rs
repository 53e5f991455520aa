//! Determinism contract of the parallel sweep executor: for any thread
//! count, the merged report, the crowd database, and the journal bytes are
//! **bit-identical** to the serial path's — and killing or cancelling a
//! parallel sweep mid-flight resumes to the same bytes.
//!
//! These tests are scheduling-independent by construction (they assert
//! equality against a serial reference, not against a recorded schedule),
//! so they are also the target of CI's 100-iteration stress loop and
//! ThreadSanitizer run.

use accubench::crowd::{
    populate_batched, populate_journaled, populate_parallel, CrowdDatabase, SweepConfig,
    SweepReport,
};
use accubench::journal::{CancelToken, Journal};
use accubench::protocol::Protocol;
use accubench::supervise::SessionChaos;
use pv_faults::ALL_KINDS;
use pv_json::ToJson;
use pv_rng::{Rng, SeedableRng, StdRng};
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::Seconds;
use std::path::PathBuf;

fn quick() -> Protocol {
    Protocol::unconstrained()
        .with_warmup(Seconds(20.0))
        .with_workload(Seconds(30.0))
}

fn fleet(n: usize) -> Vec<Device> {
    (0..n)
        .map(|i| {
            let grade = 0.05 + 0.9 * (i as f64) / (n.max(2) - 1) as f64;
            catalog::pixel(grade, format!("pixel-crowd-{i:03}")).unwrap()
        })
        .collect()
}

/// Faulty enough that devices quarantine, fail, and finish at uneven
/// speeds — the workloads where a scheduling-dependent merge would show.
fn faulty_cfg() -> SweepConfig {
    SweepConfig::clean(quick(), 2).with_faults(0xC0FFEE, Seconds(1500.0), ALL_KINDS.to_vec())
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pv-par-{tag}-{}", std::process::id()))
}

fn db() -> CrowdDatabase {
    CrowdDatabase::new(5.0).unwrap()
}

/// Serialized fingerprint of a sweep: compact report JSON + compact
/// database JSON. String equality here is byte equality.
fn fingerprint(report: &SweepReport, db: &CrowdDatabase) -> (String, String) {
    (
        report.to_json().to_string_compact(),
        db.to_json().to_string_compact(),
    )
}

const DEVICES: usize = 10;

/// The acceptance test: the same sweep at 1, 2, 3 and 8 threads produces a
/// byte-identical report, database, and journal file.
#[test]
fn serial_parallel_reports_and_journals_bit_identical() {
    let cfg = faulty_cfg();

    // Serial journaled reference.
    let serial_path = tmp_path("serial");
    let _ = std::fs::remove_file(&serial_path);
    let mut serial_db = db();
    let mut journal = Journal::open(&serial_path).unwrap();
    let serial = populate_journaled(
        &mut serial_db,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
    )
    .unwrap();
    assert!(serial.complete);
    drop(journal);
    let serial_bytes = std::fs::read(&serial_path).unwrap();
    let serial_print = fingerprint(&serial.report, &serial_db);

    for threads in [1usize, 2, 3, 8] {
        let path = tmp_path(&format!("par{threads}"));
        let _ = std::fs::remove_file(&path);
        let mut pdb = db();
        let mut journal = Journal::open(&path).unwrap();
        let parallel = populate_parallel(
            &mut pdb,
            "Pixel",
            fleet(DEVICES),
            &cfg,
            Some(&mut journal),
            &CancelToken::new(),
            threads,
        )
        .unwrap();
        assert!(parallel.complete, "threads={threads}");
        assert_eq!(parallel.resumed, 0, "threads={threads}");
        drop(journal);

        assert_eq!(
            fingerprint(&parallel.report, &pdb),
            serial_print,
            "threads={threads}: report/database JSON diverged"
        );
        assert_eq!(parallel.report, serial.report, "threads={threads}");
        assert_eq!(pdb.scores(), serial_db.scores(), "threads={threads}");
        assert_eq!(pdb.rejected(), serial_db.rejected(), "threads={threads}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            serial_bytes,
            "threads={threads}: journal bytes diverged"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&serial_path);
}

/// Kill a 4-thread journaled sweep at seeded random byte offsets (what a
/// power cut leaves on disk), resume with 4 threads, and require the
/// result — and the healed journal's bytes — to match the uninterrupted
/// serial run exactly.
#[test]
fn kill_mid_parallel_sweep_resume_is_deterministic() {
    let cfg = faulty_cfg();

    // Serial unjournaled baseline.
    let mut base_db = db();
    let baseline_journal_path = tmp_path("kill-full");
    let _ = std::fs::remove_file(&baseline_journal_path);
    let mut journal = Journal::open(&baseline_journal_path).unwrap();
    let baseline = populate_journaled(
        &mut base_db,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
    )
    .unwrap();
    drop(journal);
    let full_bytes = std::fs::read(&baseline_journal_path).unwrap();

    let mut rng = StdRng::seed_from_u64(0xFEED_FACE);
    let resume_path = tmp_path("kill-resume");
    for round in 0..6 {
        let cut = rng.gen_range(1..full_bytes.len());
        std::fs::write(&resume_path, &full_bytes[..cut]).unwrap();

        let mut rdb = db();
        let mut journal = Journal::open(&resume_path).unwrap();
        let resumed = populate_parallel(
            &mut rdb,
            "Pixel",
            fleet(DEVICES),
            &cfg,
            Some(&mut journal),
            &CancelToken::new(),
            4,
        )
        .unwrap();
        assert!(resumed.complete, "round {round} (cut {cut})");
        assert_eq!(resumed.report, baseline.report, "round {round} (cut {cut})");
        assert_eq!(rdb.scores(), base_db.scores(), "round {round} (cut {cut})");
        drop(journal);
        assert_eq!(
            std::fs::read(&resume_path).unwrap(),
            full_bytes,
            "round {round} (cut {cut}): healed journal bytes diverged"
        );
    }
    let _ = std::fs::remove_file(&baseline_journal_path);
    let _ = std::fs::remove_file(&resume_path);
}

/// Cancellation under parallelism: the journal holds a contiguous prefix
/// of outcome indices (never a gap), and a resume converges byte-exactly
/// on the uninterrupted journal.
#[test]
fn cancelled_parallel_sweep_is_resumable() {
    let cfg = faulty_cfg();

    let full_path = tmp_path("cancel-full");
    let _ = std::fs::remove_file(&full_path);
    let mut base_db = db();
    let mut journal = Journal::open(&full_path).unwrap();
    let baseline = populate_journaled(
        &mut base_db,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
    )
    .unwrap();
    drop(journal);
    let full_bytes = std::fs::read(&full_path).unwrap();

    // Pre-cancelled: nothing runs, nothing but the header is journaled.
    let path = tmp_path("cancel");
    let _ = std::fs::remove_file(&path);
    let cancel = CancelToken::new();
    cancel.cancel();
    let mut journal = Journal::open(&path).unwrap();
    let stopped = populate_parallel(
        &mut db(),
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &cancel,
        4,
    )
    .unwrap();
    assert!(!stopped.complete);
    assert!(stopped.report.outcomes.is_empty());
    drop(journal);

    // Mid-flight cancel from another thread (as SIGINT would): however far
    // the sweep got, its journaled outcome indices are the contiguous
    // prefix 0..n.
    let mid_path = tmp_path("cancel-mid");
    let _ = std::fs::remove_file(&mid_path);
    let cancel = CancelToken::new();
    let trigger = cancel.clone();
    let arm = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(5));
        trigger.cancel();
    });
    let mut journal = Journal::open(&mid_path).unwrap();
    let mid = populate_parallel(
        &mut db(),
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &cancel,
        4,
    )
    .unwrap();
    arm.join().unwrap();
    drop(journal);
    let indices: Vec<usize> = Journal::read_records(&mid_path)
        .unwrap()
        .iter()
        .filter_map(|r| match r {
            accubench::journal::Record::Outcome { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    assert_eq!(
        indices,
        (0..indices.len()).collect::<Vec<_>>(),
        "cancelled journal must hold a contiguous prefix"
    );
    assert_eq!(mid.report.outcomes.len(), indices.len());

    // Resuming either interrupted journal converges byte-exactly.
    for p in [&path, &mid_path] {
        let mut rdb = db();
        let mut journal = Journal::open(p).unwrap();
        let resumed = populate_parallel(
            &mut rdb,
            "Pixel",
            fleet(DEVICES),
            &cfg,
            Some(&mut journal),
            &CancelToken::new(),
            4,
        )
        .unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.report, baseline.report);
        assert_eq!(rdb.scores(), base_db.scores());
        drop(journal);
        assert_eq!(std::fs::read(p).unwrap(), full_bytes);
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(&full_path);
}

/// A clean sweep (every device batch-admissible) across the full
/// `--batch` × `--threads` grid — including a width that doesn't divide
/// the fleet and one larger than it — produces byte-identical report,
/// database, and journal output.
#[test]
fn batched_sweep_bit_identical_across_widths_and_threads() {
    let cfg = SweepConfig::clean(quick(), 2);

    let serial_path = tmp_path("batch-serial");
    let _ = std::fs::remove_file(&serial_path);
    let mut serial_db = db();
    let mut journal = Journal::open(&serial_path).unwrap();
    let serial = populate_journaled(
        &mut serial_db,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
    )
    .unwrap();
    assert!(serial.complete);
    drop(journal);
    let serial_bytes = std::fs::read(&serial_path).unwrap();
    let serial_print = fingerprint(&serial.report, &serial_db);

    for batch in [1usize, 3, 8, 64] {
        for threads in [1usize, 4] {
            let path = tmp_path(&format!("batch{batch}t{threads}"));
            let _ = std::fs::remove_file(&path);
            let mut bdb = db();
            let mut journal = Journal::open(&path).unwrap();
            let batched = populate_batched(
                &mut bdb,
                "Pixel",
                fleet(DEVICES),
                &cfg,
                Some(&mut journal),
                &CancelToken::new(),
                threads,
                batch,
            )
            .unwrap();
            assert!(batched.complete, "batch={batch} threads={threads}");
            drop(journal);
            assert_eq!(
                fingerprint(&batched.report, &bdb),
                serial_print,
                "batch={batch} threads={threads}: report/database diverged"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                serial_bytes,
                "batch={batch} threads={threads}: journal bytes diverged"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
    let _ = std::fs::remove_file(&serial_path);
}

/// Mixed fleets — injected faults quarantining some devices and chaos
/// panicking another — must resolve identically whether the chunk width
/// is 1 (pure scalar) or covers several devices (lockstep + scalar
/// fallback inside one chunk).
#[test]
fn batched_faulted_chaos_sweep_matches_scalar() {
    let cfg = faulty_cfg().with_chaos(SessionChaos::new(3, 1, 0).striking_at(30.0));

    let mut serial_db = db();
    let serial = populate_parallel(
        &mut serial_db,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        None,
        &CancelToken::new(),
        1,
    )
    .unwrap();
    let serial_print = fingerprint(&serial.report, &serial_db);

    for batch in [3usize, 8] {
        for threads in [1usize, 4] {
            let mut bdb = db();
            let batched = populate_batched(
                &mut bdb,
                "Pixel",
                fleet(DEVICES),
                &cfg,
                None,
                &CancelToken::new(),
                threads,
                batch,
            )
            .unwrap();
            assert_eq!(
                fingerprint(&batched.report, &bdb),
                serial_print,
                "batch={batch} threads={threads}"
            );
        }
    }
}

/// Batch width is a scheduling knob, not a configuration: a journal
/// written at one width must resume at any other (the config digest —
/// still v3 — does not cover it), killing a batched sweep at arbitrary
/// byte offsets included.
#[test]
fn batched_kill_resume_across_widths_is_deterministic() {
    let cfg = faulty_cfg();

    let full_path = tmp_path("batch-kill-full");
    let _ = std::fs::remove_file(&full_path);
    let mut base_db = db();
    let mut journal = Journal::open(&full_path).unwrap();
    let baseline = populate_batched(
        &mut base_db,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
        64,
    )
    .unwrap();
    assert!(baseline.complete);
    drop(journal);
    let full_bytes = std::fs::read(&full_path).unwrap();

    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let resume_path = tmp_path("batch-kill-resume");
    for (round, resume_batch) in [1usize, 8, 64, 8].into_iter().enumerate() {
        let cut = rng.gen_range(1..full_bytes.len());
        std::fs::write(&resume_path, &full_bytes[..cut]).unwrap();

        let mut rdb = db();
        let mut journal = Journal::open(&resume_path).unwrap();
        let resumed = populate_batched(
            &mut rdb,
            "Pixel",
            fleet(DEVICES),
            &cfg,
            Some(&mut journal),
            &CancelToken::new(),
            4,
            resume_batch,
        )
        .unwrap();
        assert!(resumed.complete, "round {round} (cut {cut})");
        assert_eq!(resumed.report, baseline.report, "round {round} (cut {cut})");
        assert_eq!(rdb.scores(), base_db.scores(), "round {round} (cut {cut})");
        drop(journal);
        assert_eq!(
            std::fs::read(&resume_path).unwrap(),
            full_bytes,
            "round {round} (cut {cut}, batch {resume_batch}): journal bytes diverged"
        );
    }
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&resume_path);
}

/// Small, fast serial-vs-parallel check — the target of CI's 100-iteration
/// stress loop (`cargo test ... stress_quick_parallel_equivalence`).
#[test]
fn stress_quick_parallel_equivalence() {
    let cfg = faulty_cfg();
    let mut serial_db = db();
    let serial = populate_parallel(
        &mut serial_db,
        "Pixel",
        fleet(8),
        &cfg,
        None,
        &CancelToken::new(),
        1,
    )
    .unwrap();
    let mut par_db = db();
    let parallel = populate_parallel(
        &mut par_db,
        "Pixel",
        fleet(8),
        &cfg,
        None,
        &CancelToken::new(),
        4,
    )
    .unwrap();
    assert_eq!(
        fingerprint(&parallel.report, &par_db),
        fingerprint(&serial.report, &serial_db)
    );
}
