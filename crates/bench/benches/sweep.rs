//! Fleet-sweep throughput: serial vs work-stealing parallel executor.
//!
//! Runs the same journal-free crowd sweep at several thread counts,
//! checks the merged reports are identical (the executor's determinism
//! contract), and writes a `pv-bench-report/v1` report to
//! `BENCH_sweep.json` for `benchdiff`'s regression gate:
//!
//! ```text
//! cargo bench -p pv-bench --bench sweep -- --devices 192 --threads-list 1,2,4
//! ```
//!
//! Sampling discipline (DESIGN.md §14): each thread count is measured
//! `--samples` times, each sample a complete fleet sweep over a
//! freshly built fleet and database (the clean-state rule — nothing
//! warm carries over between configurations), with robust p50/p90/MAD
//! statistics and a `noisy` relative-spread guardrail instead of a
//! single unrepeatable number. Samples are taken in **interleaved
//! rounds** (round *i* sweeps every thread count once) so host drift
//! lands on every configuration instead of biasing one, and each
//! `speedup/tN` is computed **per round** (`secs_t1ᵢ / secs_tNᵢ`) —
//! common-mode drift cancels in the quotient, giving the ratio its own
//! robust spread and noisy verdict.
//!
//! A second section measures **batched lockstep stepping** (DESIGN.md
//! §15) on a *clean* (fault-free) fleet — the population batching
//! accelerates; armed fault plans make devices batch-inadmissible, so
//! they would only measure the scalar fallback. One worker thread, so
//! the `batch_speedup/bN` ratios isolate the kernel win from pool
//! scheduling; `benchdiff` holds the `batch_speedup/b8 ≥ 1.0×` floor
//! on single-core hosts too (`min_host_parallelism: 0`).
//!
//! A third section measures **stratified subsampling** (DESIGN.md §16)
//! on the streaming engine: a 100 000-device virtual population is
//! sampled down to n = 2000 (strata from the silicon-grade bins) and
//! only the selected devices are simulated. `sampled_devices_per_sec`
//! is the realised simulation rate; `sample_speedup/n2000` is the
//! per-round quotient of the *extrapolated* full-population cost (from
//! the clean width-1 rate measured in the batch section, same config)
//! over the measured sampled cost — `benchdiff` holds it ≥ 10× on any
//! host. The `aggregate_memory_bounded` check asserts the streaming
//! aggregate's footprint is identical for the n = 2000 sweep and a
//! 32-device sweep: O(bins + K), not O(devices).
//!
//! Flags: `--devices N` (fleet size, default 768), `--threads-list
//! a,b,c` (default 1,2,4 plus the host's available parallelism),
//! `--samples N` (sweeps per thread count, default 5), `--out PATH`
//! (default `BENCH_sweep.json`), `--test` (libtest smoke mode: a tiny
//! fleet and a shrunken sampled section, so `cargo bench -- --test`
//! stays fast).

use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{
    populate_batched, populate_parallel, populate_streamed, CrowdDatabase, SweepConfig,
};
use accubench::executor;
use accubench::journal::CancelToken;
use accubench::protocol::Protocol;
use pv_bench::report::{BenchReport, Check, Metric};
use pv_bench::stats::{robust, DEFAULT_NOISE_THRESHOLD};
use pv_faults::ALL_KINDS;
use pv_json::ToJson;
use pv_silicon::binning::nexus5::N_BINS;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_stats::sampling::{self, Strategy};
use pv_units::Seconds;
use std::time::Instant;

struct Options {
    devices: usize,
    threads_list: Vec<usize>,
    samples: usize,
    out: String,
    iterations: usize,
    sample_pop: usize,
    sample_n: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: cargo bench -p pv-bench --bench sweep -- \
         [--devices N] [--threads-list a,b,c] [--samples N] [--out PATH] [--test]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        devices: 768,
        threads_list: Vec::new(),
        samples: 5,
        out: "BENCH_sweep.json".to_owned(),
        iterations: 2,
        sample_pop: 100_000,
        sample_n: 2000,
    };
    let mut smoke = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--devices" => {
                i += 1;
                opts.devices = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--threads-list" => {
                i += 1;
                opts.threads_list = args
                    .get(i)
                    .map(|v| {
                        v.split(',')
                            .map(|t| t.trim().parse::<usize>())
                            .collect::<Result<Vec<_>, _>>()
                            .unwrap_or_else(|_| usage())
                    })
                    .filter(|l| !l.is_empty() && l.iter().all(|&t| t > 0))
                    .unwrap_or_else(|| usage());
            }
            "--samples" => {
                i += 1;
                opts.samples = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                opts.out = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            // `cargo bench -- --test` forwards libtest smoke flags to
            // every bench binary; shrink to a sanity-check run. (`--bench`
            // itself is cargo's routine marker — not smoke mode.)
            "--test" => smoke = true,
            "--bench" => {}
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => usage(),
            // Ignore bare libtest filter strings.
            _ => {}
        }
        i += 1;
    }
    if smoke {
        opts.devices = opts.devices.min(16);
        opts.samples = opts.samples.min(2);
        opts.sample_pop = 2048;
        opts.sample_n = 64;
    }
    if opts.threads_list.is_empty() {
        opts.threads_list = vec![1, 2, 4, executor::default_threads()];
    }
    if !opts.threads_list.contains(&1) {
        opts.threads_list.push(1); // speedup baseline
    }
    opts.threads_list.sort_unstable();
    opts.threads_list.dedup();
    opts
}

fn fleet(n: usize) -> Vec<Device> {
    (0..n)
        .map(|i| {
            let grade = 0.05 + 0.9 * (i as f64) / (n.max(2) - 1) as f64;
            catalog::pixel(grade, format!("pixel-bench-{i:04}")).unwrap()
        })
        .collect()
}

fn main() {
    let opts = parse_args();
    // Short protocol + faults: realistic uneven per-device cost without a
    // multi-minute serial baseline.
    let protocol = Protocol::unconstrained()
        .with_warmup(Seconds(20.0))
        .with_workload(Seconds(30.0));
    let cfg = SweepConfig::clean(protocol, opts.iterations).with_faults(
        0xC0FFEE,
        Seconds(1500.0),
        ALL_KINDS.to_vec(),
    );

    // Interleaved rounds: round i sweeps every thread count once, so a
    // slow host window hits all configurations instead of biasing one.
    let mut runs: Vec<(usize, Vec<f64>)> = opts
        .threads_list
        .iter()
        .map(|&t| (t, Vec::with_capacity(opts.samples)))
        .collect();
    let mut reports_identical = true;
    let mut reference_fingerprint: Option<String> = None;
    for _ in 0..opts.samples {
        for (threads, secs_samples) in &mut runs {
            // Clean state per sample: fresh fleet, fresh database —
            // iteration count is pinned at exactly one full sweep.
            let devices = fleet(opts.devices);
            let mut db = CrowdDatabase::new(5.0).unwrap();
            let start = Instant::now();
            let sweep = populate_parallel(
                &mut db,
                "Pixel",
                devices,
                &cfg,
                None,
                &CancelToken::new(),
                *threads,
            )
            .expect("sweep failed");
            secs_samples.push(start.elapsed().as_secs_f64());
            assert!(sweep.complete);
            let fingerprint = sweep.report.to_json().to_string_compact();
            match &reference_fingerprint {
                None => reference_fingerprint = Some(fingerprint),
                Some(reference) => {
                    if *reference != fingerprint {
                        reports_identical = false;
                    }
                }
            }
        }
    }
    for (threads, secs_samples) in &runs {
        let best = secs_samples.iter().cloned().fold(f64::INFINITY, f64::min);
        eprintln!(
            "threads={threads:>3}  best {best:7.3} s over {} sample(s)  {:8.1} devices/s",
            secs_samples.len(),
            opts.devices as f64 / best
        );
    }

    let mut report = BenchReport::new("sweep", opts.samples);
    // Rate stats per thread count: one sample = one full fleet sweep.
    let rate_stats: Vec<(usize, pv_bench::stats::RobustStats)> = runs
        .iter()
        .map(|(threads, secs)| {
            let rates: Vec<f64> = secs.iter().map(|s| opts.devices as f64 / s).collect();
            let stats = robust(&rates, DEFAULT_NOISE_THRESHOLD)
                .expect("at least one sample per thread count");
            (*threads, stats)
        })
        .collect();
    for (threads, stats) in &rate_stats {
        report.metrics.push(Metric::from_stats(
            format!("devices_per_sec/t{threads}"),
            "devices/s",
            true,
            stats,
            1,
        ));
    }
    let serial_secs = runs
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, secs)| secs.clone())
        .expect("threads=1 baseline always present");
    let serial = rate_stats
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, s)| s.clone())
        .expect("threads=1 baseline always present");
    // Per-round speedups: round i's quotient secs_t1ᵢ/secs_tNᵢ cancels
    // whatever the host was doing during round i.
    for (threads, secs) in &runs {
        if *threads == 1 {
            continue;
        }
        let per_round: Vec<f64> = serial_secs
            .iter()
            .zip(secs)
            .map(|(t1, tn)| t1 / tn)
            .collect();
        let stats = robust(&per_round, DEFAULT_NOISE_THRESHOLD)
            .expect("at least one sample per thread count");
        report.metrics.push(Metric::from_stats(
            format!("speedup/t{threads}"),
            "x",
            true,
            &stats,
            1,
        ));
    }
    // --- Batched lockstep section (clean fleet, one worker) ---
    //
    // The faulted config above leaves almost every device inadmissible
    // for lockstep (its point is uneven per-device cost), so batching is
    // measured on the clean config it targets, on the exponential
    // integrator — the only scheme whose propagator can be hoisted into
    // the shared mat-mat (Euler/RK4 lanes run the per-lane fallback).
    // Width 1 routes through the same chunked engine as the scalar
    // per-device path and is the ratio's denominator; per-round
    // quotients cancel host drift exactly as the thread-speedup ratios
    // do.
    const BATCH_WIDTHS: [usize; 3] = [1, 8, 64];
    let clean_cfg = SweepConfig::clean(
        protocol.with_integrator(pv_thermal::network::Integrator::Exponential),
        opts.iterations,
    );
    let mut batch_runs: Vec<(usize, Vec<f64>)> = BATCH_WIDTHS
        .iter()
        .map(|&b| (b, Vec::with_capacity(opts.samples)))
        .collect();
    let mut batch_reports_identical = true;
    let mut batch_reference: Option<String> = None;
    for _ in 0..opts.samples {
        for (batch, secs_samples) in &mut batch_runs {
            let devices = fleet(opts.devices);
            let mut db = CrowdDatabase::new(5.0).unwrap();
            let start = Instant::now();
            let sweep = populate_batched(
                &mut db,
                "Pixel",
                devices,
                &clean_cfg,
                None,
                &CancelToken::new(),
                1,
                *batch,
            )
            .expect("batched sweep failed");
            secs_samples.push(start.elapsed().as_secs_f64());
            assert!(sweep.complete);
            let fingerprint = sweep.report.to_json().to_string_compact();
            match &batch_reference {
                None => batch_reference = Some(fingerprint),
                Some(reference) => {
                    if *reference != fingerprint {
                        batch_reports_identical = false;
                    }
                }
            }
        }
    }
    let batch_stats: Vec<(usize, pv_bench::stats::RobustStats)> = batch_runs
        .iter()
        .map(|(batch, secs)| {
            let rates: Vec<f64> = secs.iter().map(|s| opts.devices as f64 / s).collect();
            let stats = robust(&rates, DEFAULT_NOISE_THRESHOLD)
                .expect("at least one sample per batch width");
            (*batch, stats)
        })
        .collect();
    for (batch, stats) in &batch_stats {
        report.metrics.push(Metric::from_stats(
            format!("devices_per_sec/b{batch}"),
            "devices/s",
            true,
            stats,
            1,
        ));
    }
    let scalar_secs = batch_runs
        .iter()
        .find(|(b, _)| *b == 1)
        .map(|(_, secs)| secs.clone())
        .expect("width-1 baseline always present");
    for (batch, secs) in &batch_runs {
        if *batch == 1 {
            continue;
        }
        let per_round: Vec<f64> = scalar_secs
            .iter()
            .zip(secs)
            .map(|(b1, bn)| b1 / bn)
            .collect();
        let stats = robust(&per_round, DEFAULT_NOISE_THRESHOLD)
            .expect("at least one sample per batch width");
        report.metrics.push(Metric::from_stats(
            format!("batch_speedup/b{batch}"),
            "x",
            true,
            &stats,
            1,
        ));
    }
    let scalar_rate = batch_stats
        .iter()
        .find(|(b, _)| *b == 1)
        .map(|(_, s)| s.p50)
        .expect("width-1 baseline always present");
    for (batch, stats) in &batch_stats {
        println!(
            "sweep/clean {} devices/batch={batch}: {:.1} devices/s p50 \
             ({:.2}x vs scalar, spread {:.1}%{})",
            opts.devices,
            stats.p50,
            stats.p50 / scalar_rate,
            stats.rel_spread * 100.0,
            if stats.noisy { " NOISY" } else { "" }
        );
    }

    // --- Stratified subsampling section (streaming engine, DESIGN.md §16) ---
    //
    // Only the n selected devices of a pop-sized virtual population are
    // simulated; the full-population cost is *extrapolated* from the
    // clean width-1 rate measured above (same config, same engine
    // family), so the per-round quotient
    // `(pop · b1_secsᵢ / devices) / sampled_secsᵢ` cancels host drift
    // like the other ratios. Per-device cost is grade-independent to
    // first order, so the extrapolation is honest.
    let aux: Vec<f64> = (0..opts.sample_pop)
        .map(|i| 0.05 + 0.9 * (i as f64) / (opts.sample_pop.max(2) - 1) as f64)
        .collect();
    let selection = sampling::select(
        Strategy::Stratified,
        &aux,
        opts.sample_n,
        N_BINS as usize,
        0x5EED_BE9C,
    )
    .expect("stratified selection");
    let sampled_fleet = |indices: &[usize]| -> Vec<Device> {
        indices
            .iter()
            .map(|&i| catalog::pixel(aux[i], format!("pixel-bench-{i:06}")).unwrap())
            .collect()
    };
    let mut sampled_secs: Vec<f64> = Vec::with_capacity(opts.samples);
    let mut sampled_reports_identical = true;
    let mut sampled_reference: Option<String> = None;
    let mut sampled_bytes = 0usize;
    for _ in 0..opts.samples {
        let devices = sampled_fleet(&selection.indices);
        let mut agg = ScoreAggregate::new(5.0).unwrap();
        let start = Instant::now();
        let sweep = populate_streamed(
            &mut agg,
            "Pixel",
            devices,
            &clean_cfg,
            None,
            &CancelToken::new(),
            1,
            1,
            false,
        )
        .expect("sampled sweep failed");
        sampled_secs.push(start.elapsed().as_secs_f64());
        assert!(sweep.complete);
        let fingerprint = agg.to_json().to_string_compact();
        match &sampled_reference {
            None => sampled_reference = Some(fingerprint),
            Some(reference) => {
                if *reference != fingerprint {
                    sampled_reports_identical = false;
                }
            }
        }
        sampled_bytes = agg.approx_bytes();
    }
    // O(bins + K) memory contract: a 32-device streamed sweep (enough to
    // saturate the top-K leaderboard) must report exactly the same
    // aggregate footprint as the n-device sampled sweep.
    let mut small_agg = ScoreAggregate::new(5.0).unwrap();
    populate_streamed(
        &mut small_agg,
        "Pixel",
        sampled_fleet(&selection.indices[..32.min(selection.indices.len())]),
        &clean_cfg,
        None,
        &CancelToken::new(),
        1,
        1,
        false,
    )
    .expect("small streamed sweep failed");
    let aggregate_memory_bounded = small_agg.approx_bytes() == sampled_bytes;

    let sampled_rates: Vec<f64> = sampled_secs
        .iter()
        .map(|s| opts.sample_n as f64 / s)
        .collect();
    let sampled_stats =
        robust(&sampled_rates, DEFAULT_NOISE_THRESHOLD).expect("at least one sampled sample");
    report.metrics.push(Metric::from_stats(
        "sampled_devices_per_sec".to_owned(),
        "devices/s",
        true,
        &sampled_stats,
        1,
    ));
    let per_round: Vec<f64> = scalar_secs
        .iter()
        .zip(&sampled_secs)
        .map(|(b1, s)| (opts.sample_pop as f64 * b1 / opts.devices as f64) / s)
        .collect();
    let sample_speedup_stats =
        robust(&per_round, DEFAULT_NOISE_THRESHOLD).expect("at least one sampled sample");
    report.metrics.push(Metric::from_stats(
        format!("sample_speedup/n{}", opts.sample_n),
        "x",
        true,
        &sample_speedup_stats,
        1,
    ));
    println!(
        "sweep/sampled n={} of {}: {:.1} devices/s p50, {:.1}x vs extrapolated \
         full population (spread {:.1}%{})",
        opts.sample_n,
        opts.sample_pop,
        sampled_stats.p50,
        sample_speedup_stats.p50,
        sample_speedup_stats.rel_spread * 100.0,
        if sample_speedup_stats.noisy {
            " NOISY"
        } else {
            ""
        }
    );

    report.checks.push(Check {
        name: "reports_identical".to_owned(),
        ok: reports_identical,
    });
    report.checks.push(Check {
        name: "batch_reports_identical".to_owned(),
        ok: batch_reports_identical,
    });
    report.checks.push(Check {
        name: "sampled_reports_identical".to_owned(),
        ok: sampled_reports_identical,
    });
    report.checks.push(Check {
        name: "aggregate_memory_bounded".to_owned(),
        ok: aggregate_memory_bounded,
    });
    report.write(&opts.out).expect("write BENCH_sweep.json");

    for (threads, stats) in &rate_stats {
        println!(
            "sweep/{} devices/threads={threads}: {:.1} devices/s p50 \
             ({:.2}x vs serial, spread {:.1}%{})",
            opts.devices,
            stats.p50,
            stats.p50 / serial.p50,
            stats.rel_spread * 100.0,
            if stats.noisy { " NOISY" } else { "" }
        );
    }
    println!("wrote {}", opts.out);
    if !reports_identical {
        eprintln!("FATAL: reports diverged across thread counts/samples");
        std::process::exit(1);
    }
    if !batch_reports_identical {
        eprintln!("FATAL: reports diverged across batch widths/samples");
        std::process::exit(1);
    }
    if !sampled_reports_identical {
        eprintln!("FATAL: sampled aggregates diverged across samples");
        std::process::exit(1);
    }
    if !aggregate_memory_bounded {
        eprintln!("FATAL: streaming aggregate footprint grew with fleet size");
        std::process::exit(1);
    }
}
