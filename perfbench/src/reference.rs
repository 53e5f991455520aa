//! Host-speed reference. Each CPU of the shared host this benchmark was
//! tuned on switches, independently of the other, between two speeds for
//! stretches of one to tens of seconds — the pattern of a CPU whose other
//! hardware thread goes busy or idle; process CPU time moves with wall
//! time, so it is not stolen time. A loop of small allocations ran ~1.9×
//! slower in the slow state, a dependent floating-point loop ~1.1×, and
//! paper-repro's experiments ~1.6×. A whole run can fall in either state,
//! so raw wall times moved by a quarter between runs.
//!
//! A fixed loop of this crate's own (small `BTreeMap`s of formatted
//! strings; no change to the library changes it) is timed right before
//! and after each part of a timed call, on as many threads as the part
//! runs on. The loop slows more than the workloads do, by a ratio that
//! differs between slow spells, so the part's wall time is scaled by
//! (`REFERENCE_S` / the loop's time there) to the power [`SENSITIVITY`]:
//! the part's time on a host where the loop takes [`REFERENCE_S`]. A
//! speed-up of the library moves it in full; a change of host speed mostly
//! cancels.

use std::collections::BTreeMap;
use std::time::Instant;

/// The loop's nominal time, s: about its time in the host's fast state.
pub const REFERENCE_S: f64 = 1e-3;

/// How a workload's time scales with the loop's: the slope of log wall time
/// against log loop time, fitted over repetitions, was 0.58 for
/// paper-repro's experiments and 0.52 for fleet-sweep's call, and the
/// spread of `run_s` over runs was smallest at 0.6–0.7 on all three
/// workloads (0.04 or less, against 0.05–0.10 with the plain ratio and
/// 0.09–0.21 with none).
pub const SENSITIVITY: f64 = 0.6;

/// Passes of the loop per thread in one sample; the sample is their median,
/// so a pass that pays for a fresh thread's first allocations is dropped.
const PASSES: usize = 3;
/// Maps built per pass.
const MAPS: u64 = 500;
/// Entries per map.
const ENTRIES: u64 = 32;

/// One pass of the reference loop; returns its wall time in s.
fn pass() -> f64 {
    let t = Instant::now();
    let mut len = 0usize;
    for i in 0..MAPS {
        let mut m = BTreeMap::new();
        for k in 0..ENTRIES {
            m.insert(k.wrapping_mul(2_654_435_761) ^ i, format!("{k}"));
        }
        len += m.values().map(String::len).sum::<usize>();
    }
    std::hint::black_box(len);
    t.elapsed().as_secs_f64()
}

/// Median time of [`PASSES`] passes, s.
fn reference_loop() -> f64 {
    crate::median(&(0..PASSES).map(|_| pass()).collect::<Vec<_>>())
}

/// Times the loop on `threads` threads at once (inline for one) and
/// returns the mean over threads of each one's median pass, s.
pub fn sample(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_loop();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(reference_loop)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference loop panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

/// `secs` of wall time measured between reference samples `before` and
/// `after`, converted to the reference speed.
pub fn at_reference(secs: f64, before: f64, after: f64) -> f64 {
    secs * (REFERENCE_S / ((before + after) / 2.0)).powf(SENSITIVITY)
}
