//! Batched lockstep fleet stepping — the sweep-level driver over
//! [`pv_soc::batch::DeviceBatch`] (DESIGN.md §15).
//!
//! A sweep chunk's devices all run the *same* protocol, so their sessions
//! are the same sequence of `(dt, demand, mode)` rounds — ideal lockstep
//! work. This module drives a chunk's **batch-admissible** devices through
//! one session in lockstep, hoisting the thermal integration of every lane
//! into a single shared-propagator mat-mat per round, while producing
//! [`Session`]s bit-identical to the scalar supervised path.
//!
//! # Admissibility
//!
//! The scalar path wraps every device in fault gates, a fault-clocked
//! meter, a watchdog, and `catch_unwind` isolation. All of that machinery
//! is a **bit-identical pass-through** when nothing can ever fire, which
//! is decidable up front from the sweep config alone. A device is
//! batch-admissible iff:
//!
//! * its regenerated per-device [`FaultPlan`] is empty, and no session
//!   chaos targets its index (nothing can fire ⇒ fault gates, retry,
//!   panic isolation are pass-throughs, and `fault_reports == 0`);
//! * the protocol does not record traces (lockstep lanes share one report
//!   scratch, not per-step trace buffers);
//! * the supervision policy uses the default watchdog budgets (the
//!   implicit sim budget is the fault horizon, which a clean session
//!   cannot approach, and there is no wall-clock limit — so the watchdog
//!   is also a pass-through).
//!
//! Inadmissible devices run the untouched scalar
//! [`supervise_device`] path inside the same chunk task. Faulted,
//! chaos-panicked, and chaos-stalled devices therefore resolve exactly as
//! before — per-device, with per-attempt isolation — and the journal,
//! report, and database bytes cannot depend on the batch width.
//!
//! # Eviction
//!
//! If a lockstep lane fails anyway (a step error, a meter error, or the
//! conservative watchdog-budget check), the lane is **evicted**: its
//! partial state is discarded and the pristine original device re-runs
//! through the scalar supervised path, which reproduces the failure — and
//! its exact bytes — by definition. The batch path therefore only ever
//! has to be bit-identical for clean completed sessions; everything else
//! is delegated to the reference implementation. A spurious eviction
//! costs time, never correctness.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::crowd::{
    replayed, run_from_session, supervise_device, DeviceRun, RestoredMap, SweepConfig,
};
use crate::harness::{judge_session, QualityGates};
use crate::protocol::Protocol;
use crate::session::{Event, Iteration, Session};
use pv_faults::FaultPlan;
use pv_power::EnergyMeter;
use pv_soc::batch::{BatchReport, DeviceBatch};
use pv_soc::device::{CpuDemand, Device};
use pv_soc::trace::{running_peak, Trace};
use pv_units::{Celsius, MegaHertz, Seconds};
use pv_workload::WorkloadSpec;

/// Whether device `index` may run in a lockstep batch — see the
/// [module docs](self) for why each condition makes the scalar path's
/// resilience machinery a pass-through.
pub(crate) fn batch_admissible(cfg: &SweepConfig, index: usize, fleet: usize) -> bool {
    if cfg.protocol.record_trace {
        return false;
    }
    if cfg.supervision.max_sim_seconds.is_some() || cfg.supervision.max_wall_seconds.is_some() {
        return false;
    }
    if let Some(chaos) = &cfg.chaos {
        if !chaos.events_for(index, fleet).is_empty() {
            return false;
        }
    }
    if let Some(seed) = cfg.fault_seed {
        let plan = FaultPlan::generate(
            seed.wrapping_add(index as u64),
            cfg.fault_horizon(),
            cfg.fault_mean_interval.value(),
            &cfg.fault_kinds,
        );
        if !plan.events.is_empty() {
            return false;
        }
    }
    true
}

/// Runs one chunk of a batched sweep: replays restored outcomes, runs
/// inadmissible devices through the scalar [`supervise_device`] path, and
/// steps the admissible remainder in lockstep (with eviction back to the
/// scalar path on any anomaly). Returns one [`DeviceRun`] per chunk entry,
/// in chunk order, each bit-identical to what the scalar path produces.
pub(crate) fn supervise_chunk(
    cfg: &SweepConfig,
    fleet: usize,
    chunk: Vec<(usize, Device)>,
    restored: &RestoredMap,
) -> Vec<DeviceRun> {
    let admitted: Vec<bool> = chunk
        .iter()
        .map(|(index, _)| !restored.contains_key(index) && batch_admissible(cfg, *index, fleet))
        .collect();
    let lanes: Vec<Device> = chunk
        .iter()
        .zip(&admitted)
        .filter(|(_, &admitted)| admitted)
        .map(|((_, device), _)| device.clone())
        .collect();
    let cohort = if lanes.is_empty() {
        Vec::new()
    } else {
        run_cohort(cfg, lanes)
    };
    let mut sessions = cohort.into_iter();
    chunk
        .into_iter()
        .zip(admitted)
        .map(|((index, device), admitted)| {
            if let Some(run) = replayed(restored, index) {
                return run;
            }
            let session = if admitted {
                sessions.next().flatten()
            } else {
                None
            };
            match session {
                // Admitted lanes succeed on their first attempt with zero
                // fault reports — exactly the scalar path's clean case.
                Some(session) => {
                    run_from_session(device.label().to_owned(), session, 0, 1, Vec::new())
                }
                // Inadmissible, or evicted: the pristine original runs the
                // reference path, which reproduces whatever went wrong
                // bit-for-bit.
                None => supervise_device(cfg, index, fleet, &device),
            }
        })
        .collect()
}

/// Per-lane per-iteration accumulator scratch, allocated once per cohort
/// and reused across rounds and iterations (the steady-state step loop
/// allocates nothing).
struct LaneScratch {
    t: Seconds,
    meter: EnergyMeter,
    work_cycles: f64,
    temp_weighted: f64,
    freq_weighted: Vec<f64>,
    throttled_time: f64,
    workload_time: f64,
    band_time: f64,
    timed_out: bool,
    cooldown_duration: Seconds,
    /// Peak die temperature over the iteration's steps so far.
    peak_temp: Option<Celsius>,
    events: Vec<(Seconds, Event)>,
    /// Cumulative simulated seconds across the whole session — the mirror
    /// of the scalar watchdog's charge counter.
    sim_spent: f64,
}

impl LaneScratch {
    fn new() -> Self {
        Self {
            t: Seconds::ZERO,
            meter: EnergyMeter::new(),
            work_cycles: 0.0,
            temp_weighted: 0.0,
            freq_weighted: Vec::new(),
            throttled_time: 0.0,
            workload_time: 0.0,
            band_time: 0.0,
            timed_out: true,
            cooldown_duration: Seconds::ZERO,
            peak_temp: None,
            events: Vec::new(),
            sim_spent: 0.0,
        }
    }
}

/// Drives `lanes` through one full session in lockstep. Returns, per lane,
/// `Some(session)` bit-identical to the scalar supervised run, or `None`
/// when the lane was evicted (any step/meter/budget anomaly) and must be
/// re-run through the scalar path.
fn run_cohort(cfg: &SweepConfig, lanes: Vec<Device>) -> Vec<Option<Session>> {
    let width = lanes.len();
    let protocol: &Protocol = &cfg.protocol;
    let ambient: Celsius = cfg.ambient;
    let gates = QualityGates::default();
    let workload_spec = WorkloadSpec::pi_digits_default();
    let sim_budget = cfg.sim_budget();
    let labels: Vec<String> = lanes.iter().map(|d| d.label().to_owned()).collect();

    let mut batch = DeviceBatch::new(lanes);
    let mut reports = BatchReport::new(width);
    let mut failures = Vec::new();
    let mut live = vec![true; width];
    let mut active = vec![false; width];
    let mut scratch: Vec<LaneScratch> = (0..width).map(|_| LaneScratch::new()).collect();
    let mut runs: Vec<Vec<Iteration>> = (0..width)
        .map(|_| Vec::with_capacity(cfg.iterations))
        .collect();

    // The ambient is a fixed boundary temperature for the whole session;
    // re-pinning it every step (as the scalar coupled step does) is
    // idempotent, so once per lane up front is bit-equivalent.
    for (lane, alive) in live.iter_mut().enumerate().take(width) {
        if batch.lane_mut(lane).set_ambient(ambient).is_err() {
            *alive = false;
        }
    }

    // One lockstep round: evict lanes whose watchdog budget would trip,
    // step the rest, evict lanes that failed the step.
    macro_rules! step_round {
        ($dt:expr, $demand:expr) => {{
            let dt: Seconds = $dt;
            for lane in 0..width {
                if active[lane] && scratch[lane].sim_spent + dt.value() > sim_budget {
                    live[lane] = false;
                    active[lane] = false;
                }
            }
            batch.step_active(
                dt,
                $demand,
                protocol.mode,
                &active,
                &mut reports,
                &mut failures,
            );
            for &(lane, _) in failures.iter() {
                live[lane] = false;
                active[lane] = false;
            }
            for lane in 0..width {
                if active[lane] {
                    let s = &mut scratch[lane];
                    s.sim_spent += dt.value();
                    s.peak_temp = running_peak(s.peak_temp, reports.lane(lane).die_temp);
                }
            }
        }};
    }

    for _ in 0..cfg.iterations {
        if !live.iter().any(|&l| l) {
            break;
        }
        // Per-iteration reset, mirroring the scalar `run_iteration` prologue.
        for lane in 0..width {
            if !live[lane] {
                continue;
            }
            batch.lane_mut(lane).set_integrator(protocol.integrator);
            let s = &mut scratch[lane];
            s.t = Seconds::ZERO;
            s.peak_temp = None;
            s.events = Vec::new();
            s.events.push((s.t, Event::WakelockAcquired));
        }

        // --- Warmup: all live lanes busy, identical dt sequence. ---
        let mut remaining = protocol.warmup.value();
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(protocol.busy_dt.value()));
            active.copy_from_slice(&live);
            step_round!(dt, CpuDemand::busy());
            for lane in 0..width {
                if active[lane] {
                    scratch[lane].t += dt;
                }
            }
            remaining -= dt.value();
        }

        // --- Cooldown: shared poll schedule, per-lane break-out. ---
        for lane in 0..width {
            if live[lane] {
                let s = &mut scratch[lane];
                s.events.push((s.t, Event::WakelockReleased));
                s.timed_out = true;
            }
        }
        let mut cooling = live.clone();
        let mut elapsed = 0.0f64;
        let mut since_poll = f64::INFINITY; // poll immediately
        let target = protocol.cooldown_target.resolve(ambient);
        let dt_cd = Seconds(protocol.idle_dt.value().min(protocol.cooldown_poll.value()));
        while elapsed < protocol.cooldown_timeout.value() {
            if since_poll >= protocol.cooldown_poll.value() {
                since_poll = 0.0;
                for lane in 0..width {
                    if !(cooling[lane] && live[lane]) {
                        continue;
                    }
                    let reading = batch.lane_mut(lane).read_sensor();
                    let s = &mut scratch[lane];
                    s.events.push((s.t, Event::CooldownPoll(reading)));
                    if reading < target {
                        s.timed_out = false;
                        s.cooldown_duration = Seconds(elapsed);
                        cooling[lane] = false;
                    }
                }
                if !cooling.iter().zip(&live).any(|(&c, &l)| c && l) {
                    break;
                }
            }
            for lane in 0..width {
                active[lane] = cooling[lane] && live[lane];
            }
            step_round!(dt_cd, CpuDemand::Idle);
            for lane in 0..width {
                if active[lane] {
                    scratch[lane].t += dt_cd;
                } else if cooling[lane] && !live[lane] {
                    cooling[lane] = false; // evicted mid-cooldown
                }
            }
            elapsed += dt_cd.value();
            since_poll += dt_cd.value();
        }
        let timeout_armed = protocol.cooldown_timeout.value() > 0.0;
        for lane in 0..width {
            if !live[lane] {
                continue;
            }
            let s = &mut scratch[lane];
            if cooling[lane] {
                s.cooldown_duration = Seconds(elapsed);
            }
            s.events.push((
                s.t,
                if s.timed_out && timeout_armed {
                    Event::CooldownTimedOut
                } else {
                    Event::WorkloadStarted
                },
            ));
        }

        // --- Workload: metered lockstep window. ---
        for lane in 0..width {
            if live[lane] {
                let s = &mut scratch[lane];
                s.meter = EnergyMeter::new();
                s.work_cycles = 0.0;
                s.temp_weighted = 0.0;
                s.freq_weighted.clear();
                s.throttled_time = 0.0;
                s.workload_time = 0.0;
                s.band_time = 0.0;
            }
        }
        let mut remaining = protocol.workload.value();
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(protocol.busy_dt.value()));
            active.copy_from_slice(&live);
            step_round!(dt, CpuDemand::busy());
            for lane in 0..width {
                if !active[lane] {
                    continue;
                }
                let rep = reports.lane(lane);
                let s = &mut scratch[lane];
                s.t += dt;
                if s.meter.record(rep.supply_power, dt).is_err() {
                    live[lane] = false;
                    continue;
                }
                s.work_cycles += rep.work_cycles;
                s.temp_weighted += rep.die_temp.value() * dt.value();
                if s.freq_weighted.is_empty() {
                    s.freq_weighted.resize(rep.cluster_freqs.len(), 0.0);
                }
                for (acc, f) in s.freq_weighted.iter_mut().zip(&rep.cluster_freqs) {
                    *acc += f.value() * dt.value();
                }
                s.workload_time += dt.value();
                if rep.throttled {
                    s.throttled_time += dt.value();
                }
                // An idealised fixed ambient is always inside its band.
                s.band_time += dt.value();
            }
            remaining -= dt.value();
        }

        for lane in 0..width {
            if !live[lane] {
                continue;
            }
            let s = &mut scratch[lane];
            s.events.push((s.t, Event::WorkloadEnded));
            let workload_secs = s.workload_time.max(f64::MIN_POSITIVE);
            runs[lane].push(Iteration {
                iterations_completed: s.work_cycles / workload_spec.cycles_per_iteration(),
                energy: s.meter.energy(),
                cooldown_duration: s.cooldown_duration,
                cooldown_timed_out: s.timed_out && timeout_armed,
                workload_mean_freqs: s
                    .freq_weighted
                    .iter()
                    .map(|w| MegaHertz(w / workload_secs))
                    .collect(),
                workload_mean_temp: Celsius(s.temp_weighted / workload_secs),
                // Folded over every step, as the scalar path does.
                peak_temp: s.peak_temp.unwrap_or_else(|| batch.lane(lane).die_temp()),
                throttled_fraction: s.throttled_time / workload_secs,
                band_occupancy: s.band_time / workload_secs,
                full_trace: Trace::new(),
                workload_trace: Trace::new(),
                events: std::mem::take(&mut s.events),
            });
        }
    }

    (0..width)
        .map(|lane| {
            if !live[lane] {
                return None;
            }
            let iterations = std::mem::take(&mut runs[lane]);
            let verdict = judge_session(&gates, &iterations, &[], cfg.iterations);
            Some(Session {
                device_label: labels[lane].clone(),
                iterations,
                quarantined: Vec::new(),
                verdict,
            })
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::harness::{Ambient, Harness};
    use crate::supervise::{SessionChaos, SupervisionPolicy};
    use pv_faults::ALL_KINDS;
    use pv_soc::catalog;
    use pv_thermal::network::Integrator;
    use std::collections::BTreeMap;

    fn fleet(n: usize) -> Vec<Device> {
        (0..n)
            .map(|i| {
                let grade = 0.05 + 0.9 * (i as f64) / (n.max(2) - 1) as f64;
                catalog::pixel(grade, format!("pixel-core-batch-{i:03}")).unwrap()
            })
            .collect()
    }

    fn quick_cfg() -> SweepConfig {
        SweepConfig::clean(
            Protocol::unconstrained()
                .with_warmup(Seconds(20.0))
                .with_workload(Seconds(30.0))
                .with_integrator(Integrator::Exponential),
            2,
        )
    }

    /// The core bit-identity claim at the session level: a lockstep cohort
    /// produces `Session`s equal (PartialEq covers every f64) to scalar
    /// `Harness::run_session` runs of the same devices.
    #[test]
    fn cohort_sessions_match_scalar_harness_bitwise() {
        let cfg = quick_cfg();
        for width in [1usize, 3, 8] {
            let sessions = run_cohort(&cfg, fleet(width));
            for (i, session) in sessions.into_iter().enumerate() {
                let session = session.expect("clean lanes never evict");
                let mut device = fleet(width).remove(i);
                let mut harness = Harness::new(cfg.protocol, Ambient::Fixed(cfg.ambient)).unwrap();
                let scalar = harness.run_session(&mut device, cfg.iterations).unwrap();
                assert_eq!(session, scalar, "lane {i} of width {width}");
            }
        }
    }

    /// A batched iteration's `peak_temp` is the peak over all of its
    /// steps: bit-equal to the scalar harness's and to the peak of the
    /// trace a traced scalar run records. The warmup outlasts the
    /// workload, so the peak is not the end-of-iteration temperature.
    #[test]
    fn cohort_peak_temp_matches_scalar_trace_peak() {
        let mut cfg = quick_cfg();
        cfg.protocol = cfg
            .protocol
            .with_warmup(Seconds(90.0))
            .with_workload(Seconds(10.0));
        let sessions = run_cohort(&cfg, fleet(3));
        let mut below_peak = 0;
        for (i, session) in sessions.into_iter().enumerate() {
            let session = session.expect("clean lanes never evict");
            let mut device = fleet(3).remove(i);
            let mut harness =
                Harness::new(cfg.protocol.with_trace(), Ambient::Fixed(cfg.ambient)).unwrap();
            let traced = harness.run_session(&mut device, cfg.iterations).unwrap();
            assert_eq!(session.iterations.len(), traced.iterations.len());
            for (b, t) in session.iterations.iter().zip(&traced.iterations) {
                let trace_peak = t.full_trace.peak_die_temp().unwrap();
                assert_eq!(b.peak_temp.value().to_bits(), t.peak_temp.value().to_bits());
                assert_eq!(b.peak_temp.value().to_bits(), trace_peak.value().to_bits());
                let end = t.full_trace.samples().last().unwrap().die_temp;
                if end < b.peak_temp {
                    below_peak += 1;
                }
            }
        }
        assert!(below_peak > 0, "no iteration ended below its peak");
    }

    #[test]
    fn admissibility_follows_the_config() {
        let clean = quick_cfg();
        assert!(batch_admissible(&clean, 0, 10));
        assert!(batch_admissible(&clean, 9, 10));

        let mut traced = quick_cfg();
        traced.protocol = traced.protocol.with_trace();
        assert!(!batch_admissible(&traced, 0, 10));

        let budgeted = quick_cfg().with_supervision(SupervisionPolicy {
            max_sim_seconds: Some(1e9),
            ..SupervisionPolicy::default()
        });
        assert!(!batch_admissible(&budgeted, 0, 10));

        // Chaos only blocks the targeted devices.
        let chaos = quick_cfg().with_chaos(SessionChaos::new(7, 1, 0));
        let fleet = 10;
        let blocked: Vec<usize> = (0..fleet)
            .filter(|&i| !batch_admissible(&chaos, i, fleet))
            .collect();
        assert_eq!(blocked.len(), 1, "exactly the panicked device: {blocked:?}");

        // A dense fault plan blocks nearly every device; admissibility must
        // agree exactly with the generated plan.
        let faulted = quick_cfg().with_faults(0xC0FFEE, Seconds(60.0), ALL_KINDS.to_vec());
        for i in 0..fleet {
            let plan = FaultPlan::generate(
                0xC0FFEEu64.wrapping_add(i as u64),
                faulted.fault_horizon(),
                60.0,
                &ALL_KINDS,
            );
            assert_eq!(
                batch_admissible(&faulted, i, fleet),
                plan.events.is_empty(),
                "device {i}"
            );
        }
    }

    /// A chunk mixing admissible and inadmissible devices produces, per
    /// device, the same `DeviceRun` outcome as the scalar path.
    #[test]
    fn mixed_chunk_matches_scalar_supervision() {
        let cfg = quick_cfg().with_chaos(SessionChaos::new(3, 1, 0).striking_at(30.0));
        let devices = fleet(6);
        let chunk: Vec<(usize, Device)> = devices.iter().cloned().enumerate().collect();
        let batched = supervise_chunk(&cfg, 6, chunk, &BTreeMap::new());
        for (i, device) in devices.iter().enumerate() {
            let scalar = supervise_device(&cfg, i, 6, device);
            assert_eq!(batched[i].outcome, scalar.outcome, "device {i}");
            assert_eq!(batched[i].score, scalar.score, "device {i}");
            assert_eq!(batched[i].rsd, scalar.rsd, "device {i}");
        }
    }
}
