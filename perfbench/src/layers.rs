//! Per-layer measurements the traced run takes besides its spans: a
//! session probe through the timing `Dut` and counting supply, and two
//! kernel timings (`ThermalNetwork::step`, `DeviceBatch::step_active`).

use crate::probes::{CountingSupply, DutStats, TimingDut};
use crate::trace;
use accubench::harness::{Ambient, Harness};
use accubench::protocol::Protocol;
use accubench::BenchError;
use pv_soc::batch::{BatchReport, DeviceBatch};
use pv_soc::catalog;
use pv_soc::device::{CpuDemand, Device};
use pv_thermal::network::{Integrator, ThermalNetworkBuilder};
use pv_units::{Celsius, Watts};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sessions the probe runs: enough for a p90 with ten sessions above it.
pub const PROBE_SESSIONS: usize = 100;

/// Lane count of the batch-kernel timing.
pub const BATCH_WIDTH: usize = 64;

/// Totals over the probe's sessions.
#[derive(Debug, Clone, Default)]
pub struct SessionProbe {
    /// Summed `Dut` call counts.
    pub dut: DutStats,
    /// `PowerSupply::draw` calls.
    pub draws: u64,
    /// Wall time of each `Harness::run_session`, ns.
    pub session_ns: Vec<u64>,
    /// Time the sessions spent inside device calls (by replay), ns.
    pub device_ns: u64,
    /// Sessions whose replay did not end in the session's device state.
    pub replay_mismatches: usize,
}

impl SessionProbe {
    /// Sessions run.
    pub fn sessions(&self) -> usize {
        self.session_ns.len()
    }

    /// Mean of a per-session count.
    pub fn per_session(&self, count: u64) -> f64 {
        count as f64 / self.sessions().max(1) as f64
    }

    /// Device time per step, ns.
    pub fn step_ns(&self) -> f64 {
        self.device_ns as f64 / self.dut.steps.max(1) as f64
    }

    /// Share of session time spent outside device calls.
    pub fn harness_self_share(&self) -> f64 {
        let total: u64 = self.session_ns.iter().sum();
        1.0 - self.device_ns as f64 / total.max(1) as f64
    }
}

/// Runs one `Harness::run_session` per device, as a sweep does (fixed
/// ambient, no chamber), through a [`TimingDut`] over a device whose supply
/// is a [`CountingSupply`]; then replays each session's device calls on a
/// clone taken before it to time the device's share.
pub fn session_probe(
    devices: Vec<Device>,
    protocol: Protocol,
    iterations: usize,
    ambient: Celsius,
) -> Result<SessionProbe, BenchError> {
    let mut probe = SessionProbe::default();
    let draws = Arc::new(AtomicU64::new(0));
    for device in devices {
        let mut replayed = device.clone();
        let mut device = device;
        let supply = CountingSupply::new(device.supply().clone_box(), Arc::clone(&draws));
        device.set_supply(Box::new(supply));
        let mut dut = TimingDut::new(device);
        let mut harness = Harness::new(protocol, Ambient::Fixed(ambient))?;
        let t = Instant::now();
        {
            let _s = trace::span("harness.session");
            black_box(harness.run_session(&mut dut, iterations)?);
        }
        probe
            .session_ns
            .push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        probe.device_ns += dut.replay(&mut replayed)?;
        if replayed.die_temp() != dut.inner().die_temp() {
            probe.replay_mismatches += 1;
        }
        let s = dut.stats();
        probe.dut.steps += s.steps;
        probe.dut.sensor_reads += s.sensor_reads;
    }
    probe.draws = draws.load(Ordering::Relaxed);
    Ok(probe)
}

/// ns per `ThermalNetwork::step` on the catalog Pixel's thermal topology
/// (built as `Device::new` builds it) with a constant heat load, median of
/// five timed blocks.
pub fn thermal_step_ns(integrator: Integrator, protocol: &Protocol) -> Result<f64, BenchError> {
    let spec = catalog::pixel_spec()?;
    let t = &spec.thermal;
    let ambient = spec.initial_ambient;
    let mut b = ThermalNetworkBuilder::new();
    b.integrator(integrator);
    let die = b.add_node("die", t.die_capacitance, ambient)?;
    let package = b.add_node("package", t.package_capacitance, ambient)?;
    let case = b.add_node("case", t.case_capacitance, ambient)?;
    let air = b.add_boundary("ambient", ambient)?;
    b.connect(die, package, t.die_to_package)?;
    b.connect(package, case, t.package_to_case)?;
    b.connect(case, air, t.case_to_ambient)?;
    let mut net = b.build()?;
    let heat = [(die, Watts(2.5)), (package, Watts(0.4))];
    let dt = protocol.busy_dt;
    const STEPS: u32 = 20_000;
    for _ in 0..1_000 {
        net.step(dt, black_box(&heat))?;
    }
    let mut blocks = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..STEPS {
            net.step(dt, black_box(&heat))?;
        }
        blocks.push(start.elapsed().as_nanos() as f64 / f64::from(STEPS));
    }
    black_box(net.temperature(die));
    Ok(crate::median(&blocks))
}

/// ns per lane per `DeviceBatch::step_active` round over `devices` (all
/// switched to the exponential integrator, the fused kernel's only
/// configuration), busy at the protocol's step, median of five blocks.
pub fn batch_lane_step_ns(devices: Vec<Device>, protocol: &Protocol) -> Result<f64, BenchError> {
    let width = devices.len();
    let mut lanes = devices;
    for d in &mut lanes {
        d.set_integrator(Integrator::Exponential);
    }
    let mut batch = DeviceBatch::new(lanes);
    let mut reports = BatchReport::new(width);
    let active = vec![true; width];
    let mut failures = Vec::new();
    let mut round = |batch: &mut DeviceBatch| -> Result<(), BenchError> {
        batch.step_active(
            protocol.busy_dt,
            CpuDemand::busy(),
            protocol.mode,
            &active,
            &mut reports,
            &mut failures,
        );
        match failures.pop() {
            None => Ok(()),
            Some((_, e)) => Err(e.into()),
        }
    };
    const ROUNDS: u32 = 300;
    for _ in 0..50 {
        round(&mut batch)?;
    }
    let mut blocks = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            round(&mut batch)?;
        }
        blocks.push(start.elapsed().as_nanos() as f64 / (f64::from(ROUNDS) * width as f64));
    }
    Ok(crate::median(&blocks))
}
