//! Leakage and dynamic power laws.
//!
//! The paper's §II mechanism in equations:
//!
//! * **Dynamic power** `P_dyn = C_eff · V² · f · u` per cluster, where `u`
//!   is the summed utilisation of the active cores (0 … n_cores).
//! * **Leakage power** `P_leak = n_powered · P₀ · σ_die · (V/V₀)^γ ·
//!   exp(β·(T − T₀))`, where `σ_die` is the die's
//!   [`leakage_multiplier`](crate::DieSample::leakage_multiplier), `γ`
//!   captures DIBL-driven voltage sensitivity and `β` the exponential
//!   temperature dependence of sub-threshold leakage ("leakage current of
//!   transistors is proportional to temperature" — the feedback loop the
//!   paper describes: leak → heat → leak more).
//!
//! Powered-down (hotplugged) cores stop leaking, which is why the Nexus 5
//! shutting a core at 80 °C (Fig 1) actually cools the die.

use crate::{DieSample, SiliconError};
use pv_units::{Celsius, MegaHertz, Volts, Watts};

/// Power-law parameters for one CPU cluster.
///
/// Construct with [`PowerParams::new`]; all parameters are validated. The
/// per-SoC catalogs in `pv-soc` provide calibrated instances.
///
/// # Examples
///
/// ```
/// use pv_silicon::power::PowerParams;
/// use pv_silicon::{DieSample, ProcessNode};
/// use pv_units::{Celsius, MegaHertz, Volts, Watts};
///
/// let params = PowerParams::new(
///     0.45e-9,            // effective switched capacitance per core (F)
///     Watts(0.12),        // per-core leakage at reference point
///     Volts(0.9),
///     Celsius(26.0),
///     2.0,                // leakage voltage exponent
///     0.025,              // leakage temperature coefficient (1/K)
/// )?;
/// let die = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.5)?;
/// let dynamic = params.dynamic_power(Volts(1.1), MegaHertz(2265.0), 4.0);
/// let leak26 = params.leakage_power(&die, Volts(1.1), Celsius(26.0), 4.0);
/// let leak80 = params.leakage_power(&die, Volts(1.1), Celsius(80.0), 4.0);
/// assert!(dynamic > Watts(1.0));
/// assert!(leak80 > leak26);
/// # Ok::<(), pv_silicon::SiliconError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    ceff_per_core: f64,
    leak_per_core: Watts,
    v_ref: Volts,
    t_ref: Celsius,
    leak_voltage_exp: f64,
    leak_temp_coeff: f64,
}

impl PowerParams {
    /// Creates validated power parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] if any magnitude is
    /// non-positive or non-finite, or either exponent/coefficient is
    /// negative.
    pub fn new(
        ceff_per_core: f64,
        leak_per_core: Watts,
        v_ref: Volts,
        t_ref: Celsius,
        leak_voltage_exp: f64,
        leak_temp_coeff: f64,
    ) -> Result<Self, SiliconError> {
        if !(ceff_per_core > 0.0 && ceff_per_core.is_finite()) {
            return Err(SiliconError::InvalidParameter("ceff_per_core"));
        }
        if !(leak_per_core.value() > 0.0 && leak_per_core.is_finite()) {
            return Err(SiliconError::InvalidParameter("leak_per_core"));
        }
        if !(v_ref.value() > 0.0 && v_ref.is_finite()) {
            return Err(SiliconError::InvalidParameter("v_ref"));
        }
        if !t_ref.is_finite() {
            return Err(SiliconError::InvalidParameter("t_ref"));
        }
        if !(leak_voltage_exp >= 0.0 && leak_voltage_exp.is_finite()) {
            return Err(SiliconError::InvalidParameter("leak_voltage_exp"));
        }
        if !(leak_temp_coeff >= 0.0 && leak_temp_coeff.is_finite()) {
            return Err(SiliconError::InvalidParameter("leak_temp_coeff"));
        }
        Ok(Self {
            ceff_per_core,
            leak_per_core,
            v_ref,
            t_ref,
            leak_voltage_exp,
            leak_temp_coeff,
        })
    }

    /// Effective switched capacitance per core, in farads.
    pub fn ceff_per_core(&self) -> f64 {
        self.ceff_per_core
    }

    /// Per-core leakage of a nominal die at the reference point.
    pub fn leak_per_core(&self) -> Watts {
        self.leak_per_core
    }

    /// Reference voltage for the leakage law.
    pub fn v_ref(&self) -> Volts {
        self.v_ref
    }

    /// Reference temperature for the leakage law.
    pub fn t_ref(&self) -> Celsius {
        self.t_ref
    }

    /// Voltage exponent γ of the leakage law.
    pub fn leak_voltage_exp(&self) -> f64 {
        self.leak_voltage_exp
    }

    /// Temperature coefficient β (1/K) of the leakage law.
    pub fn leak_temp_coeff(&self) -> f64 {
        self.leak_temp_coeff
    }

    /// Dynamic (switching) power of the cluster.
    ///
    /// `active_core_util` is the sum of per-core utilisations — 4.0 means
    /// four cores fully busy; 0.5 means one core half busy. Values are
    /// clamped at zero from below.
    pub fn dynamic_power(&self, v: Volts, freq: MegaHertz, active_core_util: f64) -> Watts {
        let util = active_core_util.max(0.0);
        Watts(self.ceff_per_core * v.value() * v.value() * freq.to_hz() * util)
    }

    /// Static (leakage) power of the cluster.
    ///
    /// `powered_cores` is how many cores are powered (hotplugged-off cores
    /// do not leak). Temperature is clamped to a physical envelope
    /// (−40 … 150 °C) before the exponential to keep the model stable under
    /// integrator overshoot.
    pub fn leakage_power(
        &self,
        die: &DieSample,
        v: Volts,
        temp: Celsius,
        powered_cores: f64,
    ) -> Watts {
        self.leakage_from_factors(
            die,
            self.leakage_voltage_factor(v),
            self.leakage_temp_factor(temp),
            powered_cores,
        )
    }

    /// The leakage law's voltage factor `(V/V₀)^γ`. A pure function of `v`,
    /// so a caller stepping at a fixed rail voltage may memoise it.
    pub fn leakage_voltage_factor(&self, v: Volts) -> f64 {
        (v.value() / self.v_ref.value()).powf(self.leak_voltage_exp)
    }

    /// The leakage law's temperature factor `exp(β·(T − T₀))`, with `T`
    /// clamped as in [`PowerParams::leakage_power`]. Clusters for which
    /// [`PowerParams::shares_temp_law`] holds get the same bits from it.
    pub fn leakage_temp_factor(&self, temp: Celsius) -> f64 {
        let t = temp.clamp(Celsius(-40.0), Celsius(150.0));
        (self.leak_temp_coeff * (t - self.t_ref).value()).exp()
    }

    /// Leakage power from precomputed factors:
    /// `leakage_power(die, v, T, n)` is exactly
    /// `leakage_from_factors(die, leakage_voltage_factor(v),
    /// leakage_temp_factor(T), n)`, bit for bit.
    pub fn leakage_from_factors(
        &self,
        die: &DieSample,
        voltage_factor: f64,
        temp_factor: f64,
        powered_cores: f64,
    ) -> Watts {
        let cores = powered_cores.max(0.0);
        self.leak_per_core * (cores * die.leakage_multiplier() * voltage_factor * temp_factor)
    }

    /// Whether `other` has the same leakage temperature law (β and T₀, bit
    /// for bit), so one [`PowerParams::leakage_temp_factor`] serves both.
    pub fn shares_temp_law(&self, other: &PowerParams) -> bool {
        self.leak_temp_coeff.to_bits() == other.leak_temp_coeff.to_bits()
            && self.t_ref.value().to_bits() == other.t_ref.value().to_bits()
    }

    /// Total cluster power: dynamic + leakage.
    pub fn total_power(
        &self,
        die: &DieSample,
        v: Volts,
        freq: MegaHertz,
        temp: Celsius,
        active_core_util: f64,
        powered_cores: f64,
    ) -> Watts {
        self.dynamic_power(v, freq, active_core_util)
            + self.leakage_power(die, v, temp, powered_cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessNode;

    fn params() -> PowerParams {
        PowerParams::new(0.45e-9, Watts(0.12), Volts(0.9), Celsius(26.0), 2.0, 0.025).unwrap()
    }

    fn nominal_die() -> DieSample {
        DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.5).unwrap()
    }

    #[test]
    fn dynamic_power_scales_quadratically_with_voltage() {
        let p = params();
        let base = p.dynamic_power(Volts(1.0), MegaHertz(1000.0), 4.0);
        let doubled_v = p.dynamic_power(Volts(2.0), MegaHertz(1000.0), 4.0);
        assert!((doubled_v / base - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_scales_linearly_with_frequency_and_util() {
        let p = params();
        let base = p.dynamic_power(Volts(1.0), MegaHertz(1000.0), 1.0);
        assert!((p.dynamic_power(Volts(1.0), MegaHertz(2000.0), 1.0) / base - 2.0).abs() < 1e-12);
        assert!((p.dynamic_power(Volts(1.0), MegaHertz(1000.0), 3.0) / base - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_realistic_magnitude() {
        // Quad Krait at 2265 MHz, 1.1 V: expect a handful of watts.
        let p = params();
        let w = p.dynamic_power(Volts(1.1), MegaHertz(2265.0), 4.0);
        assert!(w > Watts(2.0) && w < Watts(8.0), "dynamic = {w}");
    }

    #[test]
    fn leakage_grows_exponentially_with_temperature() {
        let p = params();
        let die = nominal_die();
        let cold = p.leakage_power(&die, Volts(1.0), Celsius(26.0), 4.0);
        let hot = p.leakage_power(&die, Volts(1.0), Celsius(66.0), 4.0);
        // 40 K at beta = 0.025 → e^1 ≈ 2.718×.
        assert!((hot / cold - 1.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn leakage_scales_with_die_multiplier() {
        let p = params();
        let slow = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.1).unwrap();
        let fast = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.9).unwrap();
        let w_slow = p.leakage_power(&slow, Volts(1.0), Celsius(40.0), 4.0);
        let w_fast = p.leakage_power(&fast, Volts(1.0), Celsius(40.0), 4.0);
        let expected = fast.leakage_multiplier() / slow.leakage_multiplier();
        assert!((w_fast / w_slow - expected).abs() < 1e-9);
    }

    #[test]
    fn hotplugged_cores_stop_leaking() {
        let p = params();
        let die = nominal_die();
        let four = p.leakage_power(&die, Volts(1.0), Celsius(50.0), 4.0);
        let three = p.leakage_power(&die, Volts(1.0), Celsius(50.0), 3.0);
        assert!((four / three - 4.0 / 3.0).abs() < 1e-12);
        let none = p.leakage_power(&die, Volts(1.0), Celsius(50.0), 0.0);
        assert_eq!(none, Watts::ZERO);
    }

    #[test]
    fn leakage_voltage_exponent() {
        let p = params();
        let die = nominal_die();
        let lo = p.leakage_power(&die, Volts(0.9), Celsius(26.0), 1.0);
        let hi = p.leakage_power(&die, Volts(1.8), Celsius(26.0), 1.0);
        // gamma = 2 → doubling V quadruples leakage.
        assert!((hi / lo - 4.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_clamp_prevents_blowup() {
        let p = params();
        let die = nominal_die();
        let insane = p.leakage_power(&die, Volts(1.0), Celsius(10_000.0), 4.0);
        let at_cap = p.leakage_power(&die, Volts(1.0), Celsius(150.0), 4.0);
        assert_eq!(insane, at_cap);
        assert!(insane.is_finite());
    }

    #[test]
    fn negative_inputs_clamped() {
        let p = params();
        let die = nominal_die();
        assert_eq!(
            p.dynamic_power(Volts(1.0), MegaHertz(1000.0), -3.0),
            Watts::ZERO
        );
        assert_eq!(
            p.leakage_power(&die, Volts(1.0), Celsius(26.0), -1.0),
            Watts::ZERO
        );
    }

    #[test]
    fn total_is_sum_of_parts() {
        let p = params();
        let die = nominal_die();
        let v = Volts(1.05);
        let f = MegaHertz(1574.0);
        let t = Celsius(55.0);
        let total = p.total_power(&die, v, f, t, 4.0, 4.0);
        let sum = p.dynamic_power(v, f, 4.0) + p.leakage_power(&die, v, t, 4.0);
        assert!((total / sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factored_leakage_matches_the_single_expression() {
        let p = params();
        let die = nominal_die();
        for v in [0.6, 0.9, 1.0625, 1.2] {
            for t in [-60.0, 26.0, 47.3, 91.25, 200.0] {
                for cores in [-1.0, 0.0, 1.0, 3.0, 4.0] {
                    // The law as one expression, the way it was written
                    // before the factors were split out.
                    let tc = Celsius(t).clamp(Celsius(-40.0), Celsius(150.0));
                    let v_term = (v / p.v_ref.value()).powf(p.leak_voltage_exp);
                    let t_term = (p.leak_temp_coeff * (tc - p.t_ref).value()).exp();
                    let want = p.leak_per_core
                        * (f64::max(cores, 0.0) * die.leakage_multiplier() * v_term * t_term);
                    let got = p.leakage_power(&die, Volts(v), Celsius(t), cores);
                    assert_eq!(got.value().to_bits(), want.value().to_bits());
                }
            }
        }
    }

    #[test]
    fn shared_temp_law_means_shared_factor_bits() {
        let a = params();
        let b =
            PowerParams::new(0.3e-9, Watts(0.05), Volts(0.8), Celsius(26.0), 3.0, 0.025).unwrap();
        let c =
            PowerParams::new(0.3e-9, Watts(0.05), Volts(0.8), Celsius(25.0), 3.0, 0.025).unwrap();
        assert!(a.shares_temp_law(&b));
        assert!(!a.shares_temp_law(&c));
        let t = Celsius(63.7);
        assert_eq!(
            a.leakage_temp_factor(t).to_bits(),
            b.leakage_temp_factor(t).to_bits()
        );
    }

    #[test]
    fn constructor_validates() {
        assert!(PowerParams::new(0.0, Watts(0.1), Volts(1.0), Celsius(26.0), 2.0, 0.02).is_err());
        assert!(PowerParams::new(1e-9, Watts(0.0), Volts(1.0), Celsius(26.0), 2.0, 0.02).is_err());
        assert!(PowerParams::new(1e-9, Watts(0.1), Volts(0.0), Celsius(26.0), 2.0, 0.02).is_err());
        assert!(
            PowerParams::new(1e-9, Watts(0.1), Volts(1.0), Celsius(f64::NAN), 2.0, 0.02).is_err()
        );
        assert!(PowerParams::new(1e-9, Watts(0.1), Volts(1.0), Celsius(26.0), -1.0, 0.02).is_err());
        assert!(PowerParams::new(1e-9, Watts(0.1), Volts(1.0), Celsius(26.0), 2.0, -0.1).is_err());
    }

    #[test]
    fn accessors_round_trip() {
        let p = params();
        assert_eq!(p.ceff_per_core(), 0.45e-9);
        assert_eq!(p.leak_per_core(), Watts(0.12));
        assert_eq!(p.v_ref(), Volts(0.9));
        assert_eq!(p.t_ref(), Celsius(26.0));
    }
}
