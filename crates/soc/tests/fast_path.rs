//! Bit-identity tests for the device-level memos and caches: the OPP memo
//! and the leakage voltage-factor memo (every integrator) and the
//! quantised-temperature power cache (fast path) must be pure lookups — a
//! hit has to reproduce, bit for bit, what an exact recompute would
//! produce.
//!
//! The trick: [`pv_soc::device::Device::set_integrator`] clears every memo
//! and cache on every call. Stepping a twin device that re-selects the
//! integrator before *every* step forces a miss (and therefore an exact
//! recompute) at each step, while the device under test runs with warm
//! memos. Identical telemetry across the whole trajectory proves hits and
//! recomputes are interchangeable.

use pv_soc::catalog;
use pv_soc::device::{CpuDemand, Device, FrequencyMode, StepReport};
use pv_soc::spec::VoltageScheme;
use pv_thermal::network::Integrator;
use pv_units::{Celsius, MegaHertz, Seconds};

/// A trajectory that exercises the interesting operating points: cold
/// busy ramp (temperature bins sweep upward, throttle steps engage),
/// idle recovery, and fixed-frequency pinning (distinct OPP targets).
fn trajectory() -> Vec<(Seconds, CpuDemand, FrequencyMode)> {
    let mut t = Vec::new();
    for _ in 0..1500 {
        t.push((
            Seconds(0.1),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
        ));
    }
    for _ in 0..300 {
        t.push((Seconds(0.5), CpuDemand::Idle, FrequencyMode::Unconstrained));
    }
    for &f in &[600.0, 1200.0, 900.0] {
        for _ in 0..200 {
            t.push((
                Seconds(0.1),
                CpuDemand::Busy { util: 0.7 },
                FrequencyMode::Fixed(MegaHertz(f)),
            ));
        }
    }
    t
}

fn assert_reports_bit_identical(a: &StepReport, b: &StepReport, step: usize) {
    // PartialEq on f64 cannot distinguish -0.0 from 0.0 and treats NaN as
    // unequal; compare the payloads that matter through their bit patterns.
    assert_eq!(
        a.cluster_freqs, b.cluster_freqs,
        "frequencies diverged at step {step}"
    );
    for (i, (va, vb)) in a
        .cluster_voltages
        .iter()
        .zip(b.cluster_voltages.iter())
        .enumerate()
    {
        assert_eq!(
            va.value().to_bits(),
            vb.value().to_bits(),
            "cluster {i} voltage diverged at step {step}: {va:?} vs {vb:?}"
        );
    }
    assert_eq!(
        a.soc_power.value().to_bits(),
        b.soc_power.value().to_bits(),
        "soc power diverged at step {step}"
    );
    assert_eq!(
        a.die_temp.value().to_bits(),
        b.die_temp.value().to_bits(),
        "die temperature diverged at step {step}"
    );
    assert_eq!(
        a.active_cores, b.active_cores,
        "cores diverged at step {step}"
    );
    assert_eq!(a.throttled, b.throttled, "throttle diverged at step {step}");
    for (what, x, y) in [
        (
            "supply power",
            a.supply_power.value(),
            b.supply_power.value(),
        ),
        ("case temperature", a.case_temp.value(), b.case_temp.value()),
        ("work", a.work_cycles, b.work_cycles),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} diverged at step {step}");
    }
}

/// Builds one fresh unit; twins are two calls.
type MakeDevice = fn() -> Device;

/// One unit of every catalog model, plus the LG G5 on a Monsoon at its
/// nominal 3.85 V so the input-voltage cap engages (Fig 10).
fn catalog_units() -> Vec<(&'static str, MakeDevice)> {
    use pv_silicon::binning::BinId;
    vec![
        ("nexus5 bin 0", || catalog::nexus5(BinId(0)).unwrap()),
        ("nexus5 bin 6", || catalog::nexus5(BinId(6)).unwrap()),
        ("nexus6", || catalog::nexus6(0.7, "twin").unwrap()),
        ("nexus6p", || catalog::nexus6p(0.8, "twin").unwrap()),
        ("lg g5", || catalog::lg_g5(0.6, "twin").unwrap()),
        ("lg g5 @3.85 V", || {
            catalog::lg_g5_at_voltage(0.6, "twin", pv_units::Volts(3.85)).unwrap()
        }),
        ("pixel", || catalog::pixel(0.3, "twin").unwrap()),
        ("pixel2", || catalog::pixel2(0.5, "twin").unwrap()),
    ]
}

/// Warm-memo vs forced-miss twins for every catalog device on every
/// integrator (Euler and RK4 exercise the exact memos alone, Exponential
/// adds the power cache). The trajectory heats the devices into their
/// throttle ladders (and the Nexus 5 / 6 / 6P hotplug rules), cools them,
/// then steps through fixed-frequency pins, so the OPP memo sees new,
/// repeated and alternating targets and the voltage-factor memo sees every
/// rail change. The test also checks that the trajectory did reach
/// throttling, hotplug and more than one pinned frequency.
#[test]
fn memos_bit_identical_to_forced_recompute_on_every_device() {
    let mut throttled = 0usize;
    let mut hotplugged = 0usize;
    for integrator in [Integrator::Euler, Integrator::Rk4, Integrator::Exponential] {
        for (name, make) in catalog_units() {
            let mut warm = make();
            let mut cold = make();
            warm.set_integrator(integrator);
            let full_cores: Vec<u32> = warm.spec().soc.clusters.iter().map(|c| c.cores).collect();
            let mut ra = StepReport::empty();
            let mut rb = StepReport::empty();
            let mut pinned = std::collections::BTreeSet::new();
            for (step, &(dt, demand, mode)) in trajectory().iter().enumerate() {
                cold.set_integrator(integrator);
                warm.step_into(dt, demand, mode, &mut ra).unwrap();
                cold.step_into(dt, demand, mode, &mut rb).unwrap();
                assert_reports_bit_identical(&ra, &rb, step);
                throttled += usize::from(ra.throttled);
                if matches!(demand, CpuDemand::Busy { .. }) && ra.active_cores < full_cores {
                    hotplugged += 1;
                }
                if let FrequencyMode::Fixed(_) = mode {
                    pinned.insert(ra.cluster_freqs[0].value().to_bits());
                }
            }
            assert!(
                pinned.len() > 1,
                "{name} ({integrator}): fixed-frequency pins never changed the OPP"
            );
        }
    }
    assert!(throttled > 0, "no device throttled");
    assert!(hotplugged > 0, "no device hotplugged a core");
}

/// Warm-cache stepping vs forced-miss stepping on the RBCPR Pixel: every
/// report must match bit for bit. This is the satellite's "cache hits are
/// bit-identical to recomputation" guarantee, covering both the OPP memo
/// (frequencies) and the power cache (voltages/power), including RBCPR
/// trim invalidation as the die heats through temperature bins.
#[test]
fn fast_path_cache_hits_bit_identical_to_forced_recompute() {
    let mut warm = catalog::pixel(0.4, "fast-path-twin").unwrap();
    let mut cold = catalog::pixel(0.4, "fast-path-twin").unwrap();
    assert!(matches!(
        warm.spec().voltage_scheme,
        VoltageScheme::Rbcpr(_)
    ));
    warm.set_integrator(Integrator::Exponential);

    let mut ra = StepReport::empty();
    let mut rb = StepReport::empty();
    for (step, &(dt, demand, mode)) in trajectory().iter().enumerate() {
        // Re-selecting the integrator clears the OPP memo and power cache,
        // so every one of `cold`'s steps recomputes from scratch.
        cold.set_integrator(Integrator::Exponential);
        warm.step_into(dt, demand, mode, &mut ra).unwrap();
        cold.step_into(dt, demand, mode, &mut rb).unwrap();
        assert_reports_bit_identical(&ra, &rb, step);
    }
}

/// Same twin construction for a static-table device (Nexus 5 bins): the
/// power cache must also be exact when no runtime trim is in play.
#[test]
fn fast_path_bit_identical_on_static_table_device() {
    use pv_silicon::binning::BinId;
    let mut warm = catalog::nexus5(BinId(1)).unwrap();
    let mut cold = catalog::nexus5(BinId(1)).unwrap();
    assert!(matches!(
        warm.spec().voltage_scheme,
        VoltageScheme::StaticTable
    ));
    warm.set_integrator(Integrator::Exponential);

    let mut ra = StepReport::empty();
    let mut rb = StepReport::empty();
    for (step, &(dt, demand, mode)) in trajectory().iter().enumerate() {
        cold.set_integrator(Integrator::Exponential);
        warm.step_into(dt, demand, mode, &mut ra).unwrap();
        cold.step_into(dt, demand, mode, &mut rb).unwrap();
        assert_reports_bit_identical(&ra, &rb, step);
    }
}

/// The power-cache key's temperature bin must invalidate RBCPR trims as
/// the die moves: on a cold busy ramp the rail voltage at an unchanged
/// frequency has to track the (quantised) die temperature, matching
/// `RbcprSpec::trim` recomputed independently at every step.
#[test]
fn rbcpr_trim_tracks_temperature_bins_through_the_cache() {
    let mut d: Device = catalog::pixel(0.6, "rbcpr-bins").unwrap();
    d.set_integrator(Integrator::Exponential);
    let VoltageScheme::Rbcpr(rb) = d.spec().voltage_scheme else {
        panic!("pixel is expected to use RBCPR");
    };

    let mut start_temp = d.die_temp();
    let mut report = StepReport::empty();
    let mut distinct_voltages = std::collections::BTreeSet::new();
    let mut distinct_bins = std::collections::BTreeSet::new();
    for _ in 0..1200 {
        d.step_into(
            Seconds(0.1),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
            &mut report,
        )
        .unwrap();
        // The power model saw the *step-start* die temperature snapped to
        // the 0.1 °C cache grid.
        let bin = (start_temp.value() / 0.1).round();
        let quantised = Celsius(bin * 0.1);
        for (ci, (&freq, &v)) in report
            .cluster_freqs
            .iter()
            .zip(report.cluster_voltages.iter())
            .enumerate()
        {
            let nominal = d.tables()[ci].voltage_at(freq);
            let expected = rb.trim(nominal, d.die(), quantised);
            assert_eq!(
                v.value().to_bits(),
                expected.value().to_bits(),
                "cluster {ci}: cached voltage is not the trim at the quantised \
                 step-start temperature (bin {bin})"
            );
        }
        distinct_bins.insert(bin as i64);
        distinct_voltages.insert(report.cluster_voltages[0].value().to_bits());
        start_temp = report.die_temp;
    }
    // The ramp must actually have crossed bins and produced re-trimmed
    // voltages — otherwise this test proves nothing about invalidation.
    assert!(
        distinct_bins.len() > 10,
        "ramp crossed only {} temperature bin(s)",
        distinct_bins.len()
    );
    assert!(
        distinct_voltages.len() > 5,
        "voltage never re-trimmed across bins ({} distinct value(s))",
        distinct_voltages.len()
    );
}
