//! Batched lockstep device stepping for fleet sweeps.
//!
//! A [`DeviceBatch`] owns a worker's chunk of same-model devices and steps
//! them through one protocol in lockstep. Per step it runs every lane's
//! [`Device`] logic (sensor, throttle, OPP, power, supply) through the
//! *exact* scalar code — `Device::step_prepare` / `Device::step_finish`
//! are the unmodified halves of `Device::step_into` — and hoists only the
//! thermal integration into one shared-propagator
//! [`ThermalBatch`] mat-mat when every
//! lane runs [`Integrator::Exponential`] on the same topology archetype.
//! Lanes with differing topologies or a non-exponential integrator fall
//! back to per-lane scalar stepping inside the same driver: slower, still
//! batched at the session level, still bit-identical.
//!
//! **Eviction contract:** any lane that fails a step is reported to the
//! caller and simply skipped from then on (via the `active` mask). The
//! caller re-runs the pristine original device through the scalar
//! supervised path, which reproduces the failure — and its exact bytes —
//! by definition. The batch path therefore only ever has to be
//! bit-identical for *clean* steps, which it is by construction.
//!
//! [`BatchReport`] is the structure-of-arrays report scratch: one
//! [`StepReport`] per lane, allocated once per worker and refilled in
//! place every step, extending the allocation-free steady-state contract
//! to the batched path.

use crate::device::{CpuDemand, Device, FrequencyMode, StepReport};
use crate::SocError;
use pv_thermal::batch::ThermalBatch;
use pv_thermal::network::Integrator;
use pv_units::Seconds;

/// Per-lane step reports, allocated once and refilled in place each step.
///
/// `StepReport`'s internal `Vec`s keep their capacity across refills, so
/// after the first step a `BatchReport` never allocates again.
#[derive(Debug, Clone)]
pub struct BatchReport {
    reports: Vec<StepReport>,
}

impl BatchReport {
    /// Allocates `width` empty lane reports.
    pub fn new(width: usize) -> Self {
        Self {
            reports: (0..width).map(|_| StepReport::empty()).collect(),
        }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.reports.len()
    }

    /// Lane `i`'s report from the most recent step it participated in.
    pub fn lane(&self, i: usize) -> &StepReport {
        &self.reports[i]
    }

    /// Mutable lane report (the batch driver writes through this).
    pub fn lane_mut(&mut self, i: usize) -> &mut StepReport {
        &mut self.reports[i]
    }
}

/// A chunk of devices stepped in lockstep. See the [module docs](self).
#[derive(Debug)]
pub struct DeviceBatch {
    lanes: Vec<Device>,
    thermal: ThermalBatch,
    /// Slot→lane map for the current step: lanes that prepared cleanly
    /// are compacted into the leading thermal columns, so the kernel only
    /// sweeps live lanes. Allocated once (no per-step allocation).
    slots: Vec<usize>,
    /// True when every lane shares one topology archetype — the
    /// precondition for the fused shared-propagator mat-mat. Re-checked
    /// against the integrator at each step, since integrators can change
    /// between protocol iterations.
    same_archetype: bool,
}

impl DeviceBatch {
    /// Takes ownership of a chunk of devices as batch lanes. Archetype
    /// grouping is detected here (structural-signature equality); a mixed
    /// chunk still works, it just steps thermally lane by lane.
    pub fn new(lanes: Vec<Device>) -> Self {
        let same_archetype = lanes.windows(2).all(|w| {
            w[0].network().structural_signature() == w[1].network().structural_signature()
        });
        let nodes = lanes.first().map_or(0, |d| d.network().node_count());
        let width = lanes.len();
        Self {
            lanes,
            thermal: ThermalBatch::new(width, nodes),
            slots: Vec::with_capacity(width),
            same_archetype,
        }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Immutable lane access.
    pub fn lane(&self, i: usize) -> &Device {
        &self.lanes[i]
    }

    /// Mutable lane access (per-lane protocol actions: ambient, sensor
    /// polls, integrator selection).
    pub fn lane_mut(&mut self, i: usize) -> &mut Device {
        &mut self.lanes[i]
    }

    /// Disassembles the batch back into its devices.
    pub fn into_lanes(self) -> Vec<Device> {
        self.lanes
    }

    /// Whether the next step would take the fused mat-mat path (all lanes
    /// one archetype, all on the exponential integrator).
    pub fn fused(&self) -> bool {
        self.same_archetype
            && self
                .lanes
                .iter()
                .all(|d| d.integrator() == Integrator::Exponential)
    }

    /// Steps every lane with `active[lane]` set, all with the same
    /// `(dt, demand, mode)` — the lockstep protocol round. Lane `i`'s
    /// report lands in `reports.lane(i)`; inactive lanes keep their
    /// previous contents. Per-lane failures are appended to `failures`
    /// (cleared first); failed lanes' devices are left in an unspecified
    /// state and must be evicted by the caller. Lanes that do not fail are
    /// stepped bit-identically to [`Device::step_into`].
    ///
    /// # Panics
    ///
    /// Panics if `active` or `reports` are narrower than the batch.
    pub fn step_active(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        active: &[bool],
        reports: &mut BatchReport,
        failures: &mut Vec<(usize, SocError)>,
    ) {
        assert!(active.len() >= self.lanes.len());
        assert!(reports.width() >= self.lanes.len());
        failures.clear();
        if self.fused() {
            self.step_fused(dt, demand, mode, active, reports, failures);
        } else {
            for (lane, device) in self.lanes.iter_mut().enumerate() {
                if !active[lane] {
                    continue;
                }
                if let Err(e) = device.step_into(dt, demand, mode, reports.lane_mut(lane)) {
                    failures.push((lane, e));
                }
            }
        }
    }

    /// The fused path: per-lane prepare (scalar code), one shared-propagator
    /// mat-mat across all prepared lanes, per-lane finish (scalar code).
    fn step_fused(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        active: &[bool],
        reports: &mut BatchReport,
        failures: &mut Vec<(usize, SocError)>,
    ) {
        let Self {
            lanes,
            thermal,
            slots,
            ..
        } = self;
        slots.clear();
        for (lane, device) in lanes.iter_mut().enumerate() {
            if !active[lane] {
                continue;
            }
            match device.step_prepare(dt, demand, mode, reports.lane_mut(lane)) {
                Ok(heat) => {
                    let (die, package) = device.heat_nodes();
                    let slot = slots.len();
                    thermal.gather(slot, device.network());
                    // Node validity (range, non-boundary) is a
                    // construction-time property of the device; only the
                    // per-step finiteness check remains on the hot path.
                    match thermal.set_heat_pair(slot, (die, heat.die), (package, heat.package)) {
                        Ok(()) => slots.push(lane),
                        Err(e) => failures.push((lane, e.into())),
                    }
                }
                Err(e) => failures.push((lane, e)),
            }
        }
        if slots.is_empty() {
            return;
        }
        // One propagator serves every lane (same archetype ⇒ bit-identical
        // matrices); fetching it through a lane's network keeps the local
        // and shared caches in the same state a scalar step would. The
        // kernel sweeps only the compacted live columns.
        let first = slots[0];
        let kernel = lanes[first]
            .network_mut()
            .exponential_propagator(dt)
            .and_then(|prop| thermal.step_cols(&prop, slots.len()));
        if let Err(e) = kernel {
            // Batch-level kernel failure (cannot happen for validated
            // same-archetype lanes): evict every prepared lane; the scalar
            // rerun decides each one's true fate.
            for &lane in slots.iter() {
                failures.push((lane, e.clone().into()));
            }
            return;
        }
        for (slot, &lane) in slots.iter().enumerate() {
            let device = &mut lanes[lane];
            thermal.scatter(slot, device.network_mut());
            if let Err(e) = device.step_finish(dt, reports.lane_mut(lane)) {
                failures.push((lane, e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn fleet(n: usize) -> Vec<Device> {
        (0..n)
            .map(|i| {
                let grade = 0.1 + 0.8 * (i as f64) / (n.max(2) - 1) as f64;
                catalog::pixel(grade, format!("pixel-batch-{i:02}")).unwrap()
            })
            .collect()
    }

    fn demand_for(step: usize) -> CpuDemand {
        if step % 7 < 4 {
            CpuDemand::busy()
        } else {
            CpuDemand::Idle
        }
    }

    #[test]
    fn batched_device_stepping_matches_scalar_bitwise() {
        for integrator in [Integrator::Euler, Integrator::Rk4, Integrator::Exponential] {
            for &width in &[1usize, 3, 8] {
                let mut scalar = fleet(width);
                let mut batch = DeviceBatch::new(fleet(width));
                for d in &mut scalar {
                    d.set_integrator(integrator);
                }
                for i in 0..width {
                    batch.lane_mut(i).set_integrator(integrator);
                }
                assert_eq!(batch.fused(), integrator == Integrator::Exponential);
                let active = vec![true; width];
                let mut reports = BatchReport::new(width);
                let mut failures = Vec::new();
                let mut scalar_report = StepReport::empty();
                for step in 0..200 {
                    let dt = if step % 3 == 0 {
                        Seconds(0.1)
                    } else {
                        Seconds(0.5)
                    };
                    let demand = demand_for(step);
                    batch.step_active(
                        dt,
                        demand,
                        FrequencyMode::Unconstrained,
                        &active,
                        &mut reports,
                        &mut failures,
                    );
                    assert!(failures.is_empty(), "{integrator:?}: {failures:?}");
                    for (lane, device) in scalar.iter_mut().enumerate() {
                        device
                            .step_into(dt, demand, FrequencyMode::Unconstrained, &mut scalar_report)
                            .unwrap();
                        assert_eq!(
                            &scalar_report,
                            reports.lane(lane),
                            "step {step} lane {lane} {integrator:?} width {width}"
                        );
                        assert_eq!(
                            device.die_temp().value().to_bits(),
                            batch.lane(lane).die_temp().value().to_bits()
                        );
                    }
                }
                // Sensor state must have advanced identically too.
                for (lane, device) in scalar.iter_mut().enumerate() {
                    assert_eq!(device.read_sensor(), batch.lane_mut(lane).read_sensor());
                }
            }
        }
    }

    #[test]
    fn inactive_lane_is_left_untouched() {
        let mut batch = DeviceBatch::new(fleet(4));
        let mut active = vec![true; 4];
        let mut reports = BatchReport::new(4);
        let mut failures = Vec::new();
        for i in 0..4 {
            batch.lane_mut(i).set_integrator(Integrator::Exponential);
        }
        for step in 0..50 {
            if step == 10 {
                active[2] = false;
            }
            batch.step_active(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
                &active,
                &mut reports,
                &mut failures,
            );
            assert!(failures.is_empty());
        }
        // The frozen lane's clock stopped at eviction; the rest kept going.
        assert!((batch.lane(2).time().value() - 1.0).abs() < 1e-9);
        assert!((batch.lane(0).time().value() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_archetypes_fall_back_to_per_lane_thermal() {
        use pv_silicon::binning::BinId;
        let mut lanes = fleet(2);
        lanes.push(catalog::nexus5(BinId(2)).unwrap());
        let mut scalar: Vec<Device> = fleet(2);
        scalar.push(catalog::nexus5(BinId(2)).unwrap());
        let mut batch = DeviceBatch::new(lanes);
        for (i, device) in scalar.iter_mut().enumerate() {
            batch.lane_mut(i).set_integrator(Integrator::Exponential);
            device.set_integrator(Integrator::Exponential);
        }
        assert!(!batch.fused(), "mixed topologies must not fuse");
        let active = vec![true; 3];
        let mut reports = BatchReport::new(3);
        let mut failures = Vec::new();
        let mut scalar_report = StepReport::empty();
        for _ in 0..100 {
            batch.step_active(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
                &active,
                &mut reports,
                &mut failures,
            );
            assert!(failures.is_empty());
            for (lane, device) in scalar.iter_mut().enumerate() {
                device
                    .step_into(
                        Seconds(0.1),
                        CpuDemand::busy(),
                        FrequencyMode::Unconstrained,
                        &mut scalar_report,
                    )
                    .unwrap();
                assert_eq!(&scalar_report, reports.lane(lane));
            }
        }
    }

    #[test]
    fn failed_lane_reports_and_others_continue() {
        let mut batch = DeviceBatch::new(fleet(3));
        for i in 0..3 {
            batch.lane_mut(i).set_integrator(Integrator::Exponential);
        }
        let active = vec![true; 3];
        let mut reports = BatchReport::new(3);
        let mut failures = Vec::new();
        // An invalid dt fails every active lane the same way scalar
        // stepping would; the reports stay untouched.
        batch.step_active(
            Seconds(-1.0),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
            &active,
            &mut reports,
            &mut failures,
        );
        assert_eq!(failures.len(), 3);
        assert!(failures
            .iter()
            .all(|(_, e)| matches!(e, SocError::InvalidStep(_))));
    }
}
