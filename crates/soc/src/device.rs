//! The time-stepped device simulator.
//!
//! A [`Device`] is one physical unit: a [`DeviceSpec`] (shared across the
//! model line) plus one [`DieSample`] (this unit's silicon) plus a power
//! supply. Each [`Device::step`] advances the closed loop the paper
//! describes:
//!
//! 1. the kernel reads the (lagged, quantised) thermal sensor;
//! 2. the throttle policy picks frequency caps / core counts;
//! 3. the governor selects each cluster's operating point;
//! 4. the voltage scheme (static bin table or RBCPR) sets the rail voltage;
//! 5. the silicon model turns V/f/T into watts — with the *leakage–
//!    temperature feedback* that separates good dies from bad;
//! 6. the RC network integrates temperatures; the supply is drained;
//! 7. retired, perf-weighted cycles are credited toward π iterations.

use crate::spec::{DeviceSpec, VoltageScheme};
use crate::throttle::ThrottleState;
use crate::trace::TraceSample;
use crate::SocError;
use core::fmt;
use pv_power::PowerSupply;
use pv_silicon::binning::{voltage_bin_table, VfTable};
use pv_silicon::power::PowerParams;
use pv_silicon::DieSample;
use pv_thermal::network::{Integrator, NodeId, ThermalNetwork, ThermalNetworkBuilder};
use pv_thermal::probe::Probe;
use pv_units::{Celsius, MegaHertz, Seconds, TempDelta, Volts, Watts};

/// Fast-path power-cache temperature resolution in kelvin. Die temperature
/// is snapped to this grid before the voltage trim and power model run, so
/// an unchanged operating point turns into a cache hit. 0.1 K bounds the
/// leakage error at roughly 0.25 % (β ≈ 0.025/K), well inside the
/// documented fast-path tolerance budget (DESIGN.md §11). Only the fast
/// path quantises; Euler/RK4 never compute a bin.
const POWER_CACHE_TEMP_QUANTUM: f64 = 0.1;

/// Slots in each cluster's direct-mapped fast-path power cache (a power of
/// two): 64 × 48 B = 3 KiB per cluster, allocated on the first fast-path
/// probe. Most misses re-visit a bin one whole iteration later (warmup,
/// cooldown and workload re-walk the same bins, and each iteration starts
/// with a cleared cache), which no bounded capacity catches: 128 and 256
/// slots cut a full-protocol Pixel sweep's miss rate only from 18.7 % to
/// 18.1 % and 17.8 % (DESIGN.md §11).
const POWER_CACHE_SLOTS: usize = 64;
const _: () = assert!(POWER_CACHE_SLOTS.is_power_of_two());

/// Key of an empty memo slot: a NaN bit pattern that no finite governor
/// target, rail voltage or ladder frequency has.
const EMPTY_KEY: u64 = u64::MAX;

/// What the CPU cores are asked to do this step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuDemand {
    /// Deep idle: cores power-collapsed except one housekeeping core, screen
    /// off — the ACCUBENCH cooldown state.
    Idle,
    /// All cores loaded at the given per-core utilisation.
    Busy {
        /// Per-core duty cycle in `(0, 1]`.
        util: f64,
    },
}

impl CpuDemand {
    /// Fully busy on every core — the paper's π workload.
    pub fn busy() -> Self {
        CpuDemand::Busy { util: 1.0 }
    }

    /// Per-core utilisation this demand represents.
    pub fn util(&self) -> f64 {
        match self {
            CpuDemand::Idle => 0.0,
            CpuDemand::Busy { util } => *util,
        }
    }
}

/// How the governor chooses frequencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrequencyMode {
    /// Run at the highest available frequency (subject to throttling) — the
    /// paper's UNCONSTRAINED workload.
    Unconstrained,
    /// Pin all clusters at (the nearest ladder step at or below) the given
    /// frequency — the paper's FIXED-FREQUENCY workload.
    Fixed(MegaHertz),
}

/// Telemetry returned by one [`Device::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Step length.
    pub dt: Seconds,
    /// True die temperature at the end of the step.
    pub die_temp: Celsius,
    /// Sensor reading the throttler acted on this step.
    pub sensor_temp: Celsius,
    /// Case (skin) temperature — what the user's hand feels.
    pub case_temp: Celsius,
    /// Frequency each cluster ran at.
    pub cluster_freqs: Vec<MegaHertz>,
    /// Rail voltage each cluster ran at.
    pub cluster_voltages: Vec<Volts>,
    /// Cores online per cluster.
    pub active_cores: Vec<u32>,
    /// SoC rail power (cores + uncore + platform baseline).
    pub soc_power: Watts,
    /// Power drawn from the supply (rail power over regulator efficiency).
    pub supply_power: Watts,
    /// Supply terminal voltage under this step's load.
    pub supply_voltage: Volts,
    /// Perf-weighted cycles retired this step.
    pub work_cycles: f64,
    /// Whether any throttle mechanism was engaged.
    pub throttled: bool,
}

impl StepReport {
    /// An all-zero report whose `Vec`s can be filled in place by
    /// [`Device::step_into`] — the harness keeps one as reusable scratch so
    /// the session loop never reallocates telemetry.
    pub fn empty() -> Self {
        Self {
            dt: Seconds::ZERO,
            die_temp: Celsius(0.0),
            sensor_temp: Celsius(0.0),
            case_temp: Celsius(0.0),
            cluster_freqs: Vec::new(),
            cluster_voltages: Vec::new(),
            active_cores: Vec::new(),
            soc_power: Watts::ZERO,
            supply_power: Watts::ZERO,
            supply_voltage: Volts(0.0),
            work_cycles: 0.0,
            throttled: false,
        }
    }

    /// Converts to a [`TraceSample`] stamped at time `t`.
    pub fn to_sample(&self, t: Seconds) -> TraceSample {
        TraceSample {
            t,
            dt: self.dt,
            die_temp: self.die_temp,
            sensor_temp: self.sensor_temp,
            case_temp: self.case_temp,
            cluster_freqs: self.cluster_freqs.clone(),
            active_cores: self.active_cores.clone(),
            supply_power: self.supply_power,
            supply_voltage: self.supply_voltage,
            throttled: self.throttled,
        }
    }
}

/// One simulated handset.
///
/// # Examples
///
/// ```
/// use pv_soc::catalog;
/// use pv_soc::device::{CpuDemand, FrequencyMode};
/// use pv_silicon::binning::BinId;
/// use pv_units::Seconds;
///
/// let mut device = catalog::nexus5(BinId(0))?;
/// let report = device.step(Seconds(0.1), CpuDemand::busy(), FrequencyMode::Unconstrained)?;
/// assert!(report.soc_power.value() > 0.0);
/// # Ok::<(), pv_soc::SocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    // Fleet sweeps move whole devices onto executor worker threads; every
    // field (including the boxed supply, whose trait requires Send) must
    // stay Send. The assertion below turns a regression into a compile
    // error at the definition site instead of deep inside the executor.
    // Clone (via PowerSupply::clone_box for the boxed supply) is what lets
    // supervised sweeps retry a failed session on a pristine device copy.
    spec: DeviceSpec,
    die: DieSample,
    label: String,
    tables: Vec<VfTable>,
    network: ThermalNetwork,
    die_node: NodeId,
    package_node: NodeId,
    case_node: NodeId,
    ambient_node: NodeId,
    probe: Probe,
    throttle: ThrottleState,
    supply: Box<dyn PowerSupply>,
    last_supply_voltage: Volts,
    time: Seconds,
    /// True iff the network runs [`Integrator::Exponential`]. Gates the
    /// quantised-temperature power cache, the one device-level cache that
    /// changes arithmetic; the exact memos in [`ClusterMemo`] run on every
    /// integrator.
    fast_path: bool,
    /// Every cluster has the same leakage temperature law (β, T₀) as
    /// cluster 0, so a step evaluates `exp(β(T−T₀))` at most once instead
    /// of once per cluster. True for every catalog device.
    shared_temp_law: bool,
    /// Per-cluster memos, one element per cluster.
    memo: Vec<ClusterMemo>,
}

/// One cluster's memoised step inputs. The OPP memo and the leakage
/// voltage factor are pure functions of their keys, so a hit returns the
/// bits a recompute would. Each keeps only the last key seen: governor
/// targets take a handful of discrete values (top frequency, throttle
/// caps, the idle floor) and change only on throttle or phase transitions,
/// and a miss costs no more than recomputing. One entry each keeps this
/// block at 64 bytes on 64-bit targets, so a fleet of thousands of built
/// devices does not grow the process's peak memory.
#[derive(Debug, Clone)]
struct ClusterMemo {
    /// Governor-target bits → (ladder frequency, nominal voltage). Valid
    /// for the device's lifetime: the ladder is fixed at build.
    opp: (u64, MegaHertz, Volts),
    /// Rail-voltage bits → leakage voltage factor `(V/V₀)^γ` (static-table
    /// rails change only with the OPP).
    voltage_factor: (u64, f64),
    /// Direct-mapped fast-path power cache: [`POWER_CACHE_SLOTS`] entries
    /// of (key, trimmed rail voltage, modelled power), indexed by
    /// [`PowerKey::slot`]. A probe is one key compare; a miss runs
    /// [`ClusterMemo::evaluate`] at the quantised temperature and
    /// overwrites the slot, so a hit is bit-identical to recomputing and
    /// neither capacity nor eviction can change an output. The temperature
    /// bin in the key is what invalidates RBCPR trims when the die moves.
    /// Empty until the first fast-path probe, so Euler/RK4 devices never
    /// allocate it; [`ClusterMemo::clear`] keeps the allocation.
    power: Vec<(PowerKey, Volts, Watts)>,
}

impl ClusterMemo {
    const EMPTY: ClusterMemo = ClusterMemo {
        opp: (EMPTY_KEY, MegaHertz(0.0), Volts(0.0)),
        voltage_factor: (EMPTY_KEY, 0.0),
        power: Vec::new(),
    };

    fn clear(&mut self) {
        self.opp = Self::EMPTY.opp;
        self.voltage_factor = Self::EMPTY.voltage_factor;
        self.power.clear();
    }

    /// OPP resolution for `target`: ladder snap + nominal voltage.
    fn opp(&mut self, table: &VfTable, target: MegaHertz) -> (MegaHertz, Volts) {
        let bits = target.value().to_bits();
        if self.opp.0 != bits {
            let f = table
                .highest_freq_at_or_below(target)
                .unwrap_or_else(|| table.min_freq());
            self.opp = (bits, f, table.voltage_at(f));
        }
        (self.opp.1, self.opp.2)
    }

    /// The leakage voltage factor of `params` at rail voltage `v`.
    fn voltage_factor(&mut self, params: &PowerParams, v: Volts) -> f64 {
        let bits = v.value().to_bits();
        if self.voltage_factor.0 != bits {
            self.voltage_factor = (bits, params.leakage_voltage_factor(v));
        }
        self.voltage_factor.1
    }

    /// Rail voltage and modelled power of a cluster running `load` with
    /// the die at `temp.at`: the RBCPR trim (static tables keep the nominal
    /// voltage), then `dynamic_power + leakage_from_factors` with the
    /// memoised voltage factor — bit for bit
    /// [`PowerParams::total_power`] at that temperature. The one power
    /// evaluation of both integrators, and the fast path's miss.
    fn evaluate(
        &mut self,
        params: &PowerParams,
        scheme: &VoltageScheme,
        die: &DieSample,
        load: &ClusterLoad,
        temp: &mut LeakageTemp,
    ) -> (Volts, Watts) {
        let v = match scheme {
            VoltageScheme::StaticTable => load.nominal_v,
            VoltageScheme::Rbcpr(rb) => rb.trim(load.nominal_v, die, temp.at),
        };
        let voltage_factor = self.voltage_factor(params, v);
        let p = params.dynamic_power(v, load.freq, load.powered * load.util)
            + params.leakage_from_factors(die, voltage_factor, temp.factor(params), load.powered);
        (v, p)
    }

    /// The fast-path power entry for `key`: one probe of its slot, and on
    /// a miss `evaluate`, whose result overwrites the slot.
    fn cached_power(
        &mut self,
        key: PowerKey,
        evaluate: impl FnOnce(&mut Self) -> (Volts, Watts),
    ) -> (Volts, Watts) {
        if self.power.is_empty() {
            self.power.resize(
                POWER_CACHE_SLOTS,
                (PowerKey::EMPTY, Volts(0.0), Watts::ZERO),
            );
        }
        let slot = key.slot();
        let (cached, v, p) = self.power[slot];
        if cached == key {
            return (v, p);
        }
        let (v, p) = evaluate(self);
        self.power[slot] = (key, v, p);
        (v, p)
    }
}

/// What one cluster runs this step, before the voltage trim.
#[derive(Debug)]
struct ClusterLoad {
    freq: MegaHertz,
    nominal_v: Volts,
    /// Powered cores.
    powered: f64,
    /// Per-core utilisation.
    util: f64,
}

impl ClusterLoad {
    /// The fast-path cache key of this load at temperature bin `temp_bin`.
    fn key(&self, temp_bin: i64) -> PowerKey {
        PowerKey {
            freq_bits: self.freq.value().to_bits(),
            temp_bin,
            powered_bits: self.powered.to_bits(),
            util_bits: self.util.to_bits(),
        }
    }
}

/// The temperature one step's power model runs at, with its leakage
/// temperature factor `exp(β(T−T₀))` evaluated lazily: at most once per
/// step when every cluster shares the law, otherwise once per evaluation.
#[derive(Debug)]
struct LeakageTemp {
    at: Celsius,
    shared: bool,
    factor: Option<f64>,
}

impl LeakageTemp {
    fn factor(&mut self, params: &PowerParams) -> f64 {
        match self.factor {
            Some(f) if self.shared => f,
            _ => *self.factor.insert(params.leakage_temp_factor(self.at)),
        }
    }
}

/// Operating-point key for the fast-path power cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PowerKey {
    freq_bits: u64,
    temp_bin: i64,
    powered_bits: u64,
    util_bits: u64,
}

impl PowerKey {
    /// Key of an empty cache slot; no ladder frequency has its bits.
    const EMPTY: PowerKey = PowerKey {
        freq_bits: EMPTY_KEY,
        temp_bin: 0,
        powered_bits: 0,
        util_bits: 0,
    };

    /// Direct-mapped slot: the temperature bin plus a hash of the rest of
    /// the key, so consecutive bins of one operating point fill
    /// consecutive slots instead of evicting each other.
    fn slot(&self) -> usize {
        let h =
            (self.freq_bits ^ self.powered_bits.rotate_left(21) ^ self.util_bits.rotate_left(42))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h = (h >> (u64::BITS - POWER_CACHE_SLOTS.trailing_zeros())) as usize;
        h.wrapping_add(self.temp_bin as usize) & (POWER_CACHE_SLOTS - 1)
    }
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Device>();
};

impl Device {
    /// Builds a device from a spec, a die, and a power supply.
    ///
    /// For statically binned parts the per-cluster voltage tables are
    /// generated here by [`voltage_bin_table`] from the die's grade; RBCPR
    /// parts keep the nominal ladder and trim at runtime.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] if the spec fails validation, or a
    /// wrapped substrate error from table generation / network construction.
    pub fn new(
        spec: DeviceSpec,
        die: DieSample,
        supply: Box<dyn PowerSupply>,
        label: impl Into<String>,
        seed: u64,
    ) -> Result<Self, SocError> {
        spec.validate()?;
        let mut tables = Vec::with_capacity(spec.soc.clusters.len());
        for cluster in &spec.soc.clusters {
            let table = match spec.voltage_scheme {
                VoltageScheme::StaticTable => {
                    voltage_bin_table(&cluster.vf_slow, &cluster.vf_fast, &die)?
                }
                VoltageScheme::Rbcpr(_) => cluster.vf_slow.clone(),
            };
            tables.push(table);
        }

        let ambient = spec.initial_ambient;
        let mut builder = ThermalNetworkBuilder::new();
        let die_node = builder.add_node("die", spec.thermal.die_capacitance, ambient)?;
        let package_node =
            builder.add_node("package", spec.thermal.package_capacitance, ambient)?;
        let case_node = builder.add_node("case", spec.thermal.case_capacitance, ambient)?;
        let ambient_node = builder.add_boundary("ambient", ambient)?;
        builder.connect(die_node, package_node, spec.thermal.die_to_package)?;
        builder.connect(package_node, case_node, spec.thermal.package_to_case)?;
        builder.connect(case_node, ambient_node, spec.thermal.case_to_ambient)?;
        let network = builder.build()?;

        let mut probe = Probe::new(
            spec.thermal.sensor_tau,
            spec.thermal.sensor_noise,
            spec.thermal.sensor_quantum,
            seed,
        )?;
        probe.reset(ambient);
        let last_supply_voltage = supply.terminal_voltage(spec.idle_power);

        let n_clusters = spec.soc.clusters.len();
        let first_law = &spec.soc.clusters[0].power;
        let shared_temp_law = spec
            .soc
            .clusters
            .iter()
            .all(|c| c.power.shares_temp_law(first_law));
        Ok(Self {
            spec,
            die,
            label: label.into(),
            tables,
            network,
            die_node,
            package_node,
            case_node,
            ambient_node,
            probe,
            throttle: ThrottleState::new(),
            supply,
            last_supply_voltage,
            time: Seconds::ZERO,
            fast_path: false,
            shared_temp_law,
            memo: vec![ClusterMemo::EMPTY; n_clusters],
        })
    }

    /// Thermal integration scheme currently in effect.
    pub fn integrator(&self) -> Integrator {
        self.network.integrator()
    }

    /// Selects the thermal integration scheme. [`Integrator::Exponential`]
    /// additionally enables the device-level fast path, the
    /// quantised-temperature power cache; Euler/RK4 run the same power
    /// evaluation at the exact die temperature. The OPP memo and the
    /// leakage voltage-factor memo are exact and run on every integrator.
    /// Every call clears all of them, so alternating schemes cannot leak
    /// stale entries (and re-selecting the same scheme forces misses, which
    /// the forced-miss bit-identity tests rely on). Clearing keeps the power
    /// cache's allocation; only the entries go.
    pub fn set_integrator(&mut self, integrator: Integrator) {
        self.network.set_integrator(integrator);
        self.fast_path = integrator == Integrator::Exponential;
        for m in &mut self.memo {
            m.clear();
        }
    }

    /// The device's model specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// This unit's silicon.
    pub fn die(&self) -> &DieSample {
        &self.die
    }

    /// The per-cluster voltage tables in effect.
    pub fn tables(&self) -> &[VfTable] {
        &self.tables
    }

    /// Experiment label (e.g. `"bin-0"` or `"device-363"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Simulated time elapsed.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Current true die temperature.
    pub fn die_temp(&self) -> Celsius {
        self.network.temperature(self.die_node)
    }

    /// Reads the thermal sensor the way the benchmark app's cooldown loop
    /// does (lag, noise, quantisation included).
    pub fn read_sensor(&mut self) -> Celsius {
        self.probe.read()
    }

    /// The power supply.
    pub fn supply(&self) -> &dyn PowerSupply {
        self.supply.as_ref()
    }

    /// Mutable access to the power supply (e.g. to reprogram a Monsoon).
    pub fn supply_mut(&mut self) -> &mut dyn PowerSupply {
        self.supply.as_mut()
    }

    /// Swaps the power supply (the Fig 10 battery-vs-Monsoon comparison).
    pub fn set_supply(&mut self, supply: Box<dyn PowerSupply>) {
        self.last_supply_voltage = supply.terminal_voltage(self.spec.idle_power);
        self.supply = supply;
    }

    /// Re-pins the ambient boundary (e.g. to track a
    /// [`ThermaBox`](pv_thermal::thermabox::ThermaBox) air temperature, or
    /// to sweep ambient as in Fig 2).
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`pv_thermal::ThermalError`] for non-finite input.
    pub fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError> {
        self.network.set_boundary_temp(self.ambient_node, ambient)?;
        Ok(())
    }

    /// Resets all thermal state to `ambient` and releases all throttles —
    /// a device that has rested indefinitely.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`pv_thermal::ThermalError`] for non-finite input.
    pub fn reset_thermal(&mut self, ambient: Celsius) -> Result<(), SocError> {
        self.network.set_temperature(self.die_node, ambient)?;
        self.network.set_temperature(self.package_node, ambient)?;
        self.network.set_temperature(self.case_node, ambient)?;
        self.network.set_boundary_temp(self.ambient_node, ambient)?;
        self.probe.reset(ambient);
        self.throttle.reset();
        Ok(())
    }

    /// Advances the device by `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidStep`] for a non-positive `dt` or an
    /// out-of-range fixed frequency, and wrapped substrate errors for
    /// thermal/supply failures (e.g. a drained battery).
    pub fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError> {
        let mut report = StepReport::empty();
        self.step_into(dt, demand, mode, &mut report)?;
        Ok(report)
    }

    /// As [`Device::step`], but fills a caller-owned report in place. The
    /// report's `Vec`s are cleared and re-pushed, so a reused report makes
    /// steady-state stepping allocation-free end to end.
    ///
    /// # Errors
    ///
    /// As [`Device::step`]. On error the report contents are unspecified.
    pub fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        let heat = self.step_prepare(dt, demand, mode, out)?;
        // SoC power heats the die; regulator loss heats the board.
        self.network.step(
            dt,
            &[(self.die_node, heat.die), (self.package_node, heat.package)],
        )?;
        self.step_finish(dt, out)
    }

    /// Everything [`Device::step_into`] does *before* the thermal step:
    /// validation, sensor read, throttle update, per-cluster OPP/power
    /// resolution, supply draw, and the report fields known pre-thermal.
    /// Returns the heat pair the thermal step must inject. Split out so the
    /// batched fleet path (`DeviceBatch`) can run many devices' thermal
    /// steps through one shared propagator while every other line of device
    /// logic stays this exact code — the bit-identity contract is "same
    /// lines, same order", not "equivalent arithmetic".
    pub(crate) fn step_prepare(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<PendingHeat, SocError> {
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(SocError::InvalidStep("dt must be > 0"));
        }
        if let CpuDemand::Busy { util } = demand {
            if !(util > 0.0 && util <= 1.0) {
                return Err(SocError::InvalidStep("util must be in (0,1]"));
            }
        }
        if let FrequencyMode::Fixed(f) = mode {
            if !(f.value() > 0.0 && f.is_finite()) {
                return Err(SocError::InvalidStep("fixed frequency must be > 0"));
            }
        }

        let die_temp = self.network.temperature(self.die_node);
        let sensor_temp = self.probe.read();
        let decision =
            self.throttle
                .update(&self.spec.throttle, sensor_temp, self.last_supply_voltage);

        let n_clusters = self.spec.soc.clusters.len();
        out.cluster_freqs.clear();
        out.cluster_voltages.clear();
        out.active_cores.clear();
        let mut core_power = Watts::ZERO;
        let mut work_cycles = 0.0;

        // Emergency thermal shutdown suspends the workload outright.
        let idle = matches!(demand, CpuDemand::Idle) || decision.emergency_stop;

        // The power model (and RBCPR trim) runs at the exact die
        // temperature, or on the fast path at the die temperature snapped
        // to the cache grid, so an unchanged operating point is a pure
        // lookup and a hit is bit-identical to recomputing.
        let temp_bin = self
            .fast_path
            .then(|| (die_temp.value() / POWER_CACHE_TEMP_QUANTUM).round() as i64);
        let mut temp = LeakageTemp {
            at: temp_bin.map_or(die_temp, |bin| {
                Celsius(bin as f64 * POWER_CACHE_TEMP_QUANTUM)
            }),
            shared: self.shared_temp_law,
            factor: None,
        };

        for ci in 0..n_clusters {
            let cluster = &self.spec.soc.clusters[ci];
            let table = &self.tables[ci];
            let max_f = table.max_freq();

            // Governor target.
            let mut target = match mode {
                FrequencyMode::Unconstrained => max_f,
                FrequencyMode::Fixed(f) => f,
            };
            // Thermal cap.
            if let Some(cap) = decision.freq_cap {
                target = MegaHertz(target.value().min(cap.value()));
            }
            // Input-voltage cap (fraction of this cluster's top frequency).
            if let Some(frac) = decision.freq_fraction {
                target = MegaHertz(target.value().min(max_f.value() * frac));
            }
            if idle {
                target = table.min_freq();
            }

            // OPP resolution: ladder snap + nominal voltage, memoised per
            // target (the ladder is fixed per device).
            let memo = &mut self.memo[ci];
            let (freq, nominal_v) = memo.opp(table, target);

            // Hotplug floor.
            let mut cores = cluster.cores;
            if let Some(min_cores) = decision.min_cores {
                cores = cores.min(min_cores);
            }
            // Idle: all but one housekeeping core (on the most efficient
            // cluster — the last one by catalog convention) power-collapse.
            let (powered, util) = if idle {
                let keep = if ci + 1 == n_clusters { 1.0 } else { 0.0 };
                (keep, 0.02 * keep)
            } else {
                (f64::from(cores), demand.util())
            };

            // Rail voltage + modelled power: one evaluation for every
            // integrator, behind the fast path's per-(frequency,
            // temperature bin, load) cache.
            let load = ClusterLoad {
                freq,
                nominal_v,
                powered,
                util,
            };
            let (scheme, die) = (&self.spec.voltage_scheme, &self.die);
            let mut evaluate = |memo: &mut ClusterMemo| {
                memo.evaluate(&cluster.power, scheme, die, &load, &mut temp)
            };
            let (v, power) = match temp_bin {
                Some(bin) => memo.cached_power(load.key(bin), evaluate),
                None => evaluate(memo),
            };
            core_power += power;

            if !idle {
                work_cycles += powered * util * freq.to_hz() * cluster.perf_weight * dt.value();
            }

            out.cluster_freqs.push(freq);
            out.cluster_voltages.push(v);
            out.active_cores
                .push(if idle { powered as u32 } else { cores });
        }

        let uncore = if idle {
            self.spec.soc.uncore_power * 0.2
        } else {
            self.spec.soc.uncore_power
        };
        let soc_power = core_power + uncore + self.spec.idle_power;
        let supply_power = soc_power / self.spec.regulator_efficiency;
        let regulator_loss = supply_power - soc_power;

        let supply_voltage = self.supply.terminal_voltage(supply_power);
        self.last_supply_voltage = supply_voltage;
        self.supply.draw(supply_power, dt)?;

        out.dt = dt;
        out.sensor_temp = sensor_temp;
        out.soc_power = soc_power;
        out.supply_power = supply_power;
        out.supply_voltage = supply_voltage;
        out.work_cycles = work_cycles;
        out.throttled = decision.is_throttled();
        Ok(PendingHeat {
            die: soc_power,
            package: regulator_loss,
        })
    }

    /// Everything [`Device::step_into`] does *after* the thermal step:
    /// probe observation, time accounting, and the post-thermal report
    /// fields. See [`Device::step_prepare`].
    pub(crate) fn step_finish(
        &mut self,
        dt: Seconds,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        let new_die_temp = self.network.temperature(self.die_node);
        self.probe.observe(new_die_temp, dt)?;
        self.time += dt;
        out.die_temp = new_die_temp;
        out.case_temp = self.network.temperature(self.case_node);
        Ok(())
    }

    /// Shared thermal-network view for the batch kernel.
    pub(crate) fn network(&self) -> &ThermalNetwork {
        &self.network
    }

    /// Mutable thermal-network access for the batch kernel's scatter and
    /// propagator fetch.
    pub(crate) fn network_mut(&mut self) -> &mut ThermalNetwork {
        &mut self.network
    }

    /// The (die, package) heat-injection nodes, in the order
    /// [`Device::step_into`] passes them to the thermal step.
    pub(crate) fn heat_nodes(&self) -> (NodeId, NodeId) {
        (self.die_node, self.package_node)
    }
}

/// The heat pair a prepared step injects into the thermal network:
/// SoC power into the die, regulator loss into the package/board.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingHeat {
    pub(crate) die: Watts,
    pub(crate) package: Watts,
}

impl Device {
    /// Drives the device for `total` time in steps of `dt`, returning the
    /// perf-weighted cycles retired and the supply energy consumed.
    ///
    /// Convenience over a manual [`step`](Self::step) loop for examples and
    /// quick experiments; the harness in `accubench` remains the
    /// full-protocol driver.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidStep`] for non-positive durations and
    /// propagates any step error.
    ///
    /// # Examples
    ///
    /// ```
    /// use pv_soc::catalog;
    /// use pv_soc::device::{CpuDemand, FrequencyMode};
    /// use pv_silicon::binning::BinId;
    /// use pv_units::Seconds;
    ///
    /// let mut device = catalog::nexus5(BinId(0))?;
    /// let (work, energy) = device.run_for(
    ///     Seconds(10.0),
    ///     Seconds(0.1),
    ///     CpuDemand::busy(),
    ///     FrequencyMode::Unconstrained,
    /// )?;
    /// assert!(work > 0.0);
    /// assert!(energy.value() > 0.0);
    /// # Ok::<(), pv_soc::SocError>(())
    /// ```
    pub fn run_for(
        &mut self,
        total: Seconds,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<(f64, pv_units::Joules), SocError> {
        if !(total.value() > 0.0 && total.is_finite()) {
            return Err(SocError::InvalidStep("total must be > 0"));
        }
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(SocError::InvalidStep("dt must be > 0"));
        }
        let mut work = 0.0;
        let mut energy = pv_units::Joules::ZERO;
        let mut remaining = total.value();
        while remaining > 0.0 {
            let step = Seconds(remaining.min(dt.value()));
            let r = self.step(step, demand, mode)?;
            work += r.work_cycles;
            energy += r.supply_power * step;
            remaining -= step.value();
        }
        Ok((work, energy))
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] on {} ({})",
            self.spec.model, self.label, self.spec.soc.name, self.die
        )
    }
}

/// The device-under-test surface the session harness drives.
///
/// [`Device`] implements it directly (a clean, fault-free unit).
/// [`FaultyDevice`](crate::faulty::FaultyDevice) implements it through a
/// fault-injection gate. The harness is generic over this trait, so every
/// experiment runs unchanged against either.
///
/// Unlike [`Device::read_sensor`], sensor reads here are fallible: a faulty
/// unit's probe can transiently drop out mid-cooldown, and the harness must
/// see that as an error it can retry rather than a bogus temperature.
pub trait Dut {
    /// Human-readable per-unit label.
    fn label(&self) -> &str;

    /// Current true die temperature (for traces and gates, not visible to
    /// the simulated benchmark app).
    fn die_temp(&self) -> Celsius;

    /// Re-pins the ambient boundary (see [`Device::set_ambient`]).
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`pv_thermal::ThermalError`] for non-finite input.
    fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError>;

    /// Reads the thermal sensor the way the benchmark app does.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Thermal`] ([`pv_thermal::ThermalError::ProbeDropout`])
    /// when an injected dropout makes the sensor unreadable.
    fn try_read_sensor(&mut self) -> Result<Celsius, SocError>;

    /// Advances the device by `dt` (see [`Device::step`]).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidStep`] for bad arguments, wrapped
    /// substrate errors, or [`SocError::HotplugFlap`] when an injected flap
    /// refuses a busy step.
    fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError>;

    /// As [`Dut::step`], but fills a caller-owned report in place so a hot
    /// driver loop can reuse one report's allocations. The default simply
    /// delegates to [`Dut::step`]; [`Device`] overrides it with a true
    /// in-place implementation.
    ///
    /// # Errors
    ///
    /// As [`Dut::step`]. On error the report contents are unspecified.
    fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        *out = self.step(dt, demand, mode)?;
        Ok(())
    }

    /// Selects the thermal integration scheme (see
    /// [`Device::set_integrator`]). The default is a no-op so simple test
    /// doubles keep compiling; real DUTs forward to their device.
    fn set_integrator(&mut self, integrator: Integrator) {
        let _ = integrator;
    }
}

impl Dut for Device {
    fn label(&self) -> &str {
        Device::label(self)
    }

    fn die_temp(&self) -> Celsius {
        Device::die_temp(self)
    }

    fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError> {
        Device::set_ambient(self, ambient)
    }

    fn try_read_sensor(&mut self) -> Result<Celsius, SocError> {
        Ok(self.read_sensor())
    }

    fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError> {
        Device::step(self, dt, demand, mode)
    }

    fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        Device::step_into(self, dt, demand, mode, out)
    }

    fn set_integrator(&mut self, integrator: Integrator) {
        Device::set_integrator(self, integrator);
    }
}

// The case node handle: stored via a small extension because construction
// happens inside `new`. Kept as a private field accessor pattern.
impl Device {
    /// Current case (skin) temperature — what the user's hand feels.
    pub fn case_temp(&self) -> Celsius {
        self.network.temperature(self.case_node)
    }

    /// Current package/board temperature.
    pub fn package_temp(&self) -> Celsius {
        self.network.temperature(self.package_node)
    }

    /// Temperature headroom before the first thermal trip, based on the
    /// current *die* temperature (negative once past the trip).
    pub fn headroom(&self) -> Option<TempDelta> {
        self.spec
            .throttle
            .steps
            .first()
            .map(|s| s.trip - self.die_temp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use pv_power::Monsoon;
    use pv_silicon::binning::BinId;

    fn n5(bin: u8) -> Device {
        catalog::nexus5(BinId(bin)).unwrap()
    }

    #[test]
    fn busy_device_heats_up_and_does_work() {
        let mut d = n5(0);
        let t0 = d.die_temp();
        let mut work = 0.0;
        for _ in 0..300 {
            let r = d
                .step(
                    Seconds(0.1),
                    CpuDemand::busy(),
                    FrequencyMode::Unconstrained,
                )
                .unwrap();
            work += r.work_cycles;
            assert!(r.soc_power > Watts(0.0));
        }
        assert!(d.die_temp() > t0 + TempDelta(5.0));
        assert!(work > 0.0);
        assert!(d.time() > Seconds(29.9));
    }

    #[test]
    fn idle_device_cools_back_down() {
        let mut d = n5(0);
        for _ in 0..600 {
            d.step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        }
        let hot = d.die_temp();
        for _ in 0..6000 {
            d.step(Seconds(0.5), CpuDemand::Idle, FrequencyMode::Unconstrained)
                .unwrap();
        }
        assert!(d.die_temp() < hot - TempDelta(10.0));
        // Near ambient after 50 idle minutes.
        assert!(d.die_temp().value() < 35.0, "idle temp {}", d.die_temp());
    }

    #[test]
    fn sustained_load_eventually_throttles() {
        let mut d = n5(3);
        let mut ever_throttled = false;
        let mut min_freq = f64::INFINITY;
        for _ in 0..6000 {
            let r = d
                .step(
                    Seconds(0.1),
                    CpuDemand::busy(),
                    FrequencyMode::Unconstrained,
                )
                .unwrap();
            ever_throttled |= r.throttled;
            min_freq = min_freq.min(r.cluster_freqs[0].value());
        }
        assert!(ever_throttled, "device never throttled under 10 min load");
        assert!(min_freq < 2265.0, "frequency never dropped");
        // Die must not run away past the policy's deepest trip by much.
        assert!(d.die_temp().value() < 95.0, "runaway: {}", d.die_temp());
    }

    #[test]
    fn fixed_low_frequency_never_throttles() {
        let mut d = n5(3);
        for _ in 0..3000 {
            let r = d
                .step(
                    Seconds(0.1),
                    CpuDemand::busy(),
                    FrequencyMode::Fixed(MegaHertz(960.0)),
                )
                .unwrap();
            assert!(!r.throttled, "throttled at fixed 960 MHz");
            assert_eq!(r.cluster_freqs[0], MegaHertz(960.0));
        }
    }

    #[test]
    fn fixed_mode_snaps_to_ladder() {
        let mut d = n5(0);
        let r = d
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(1000.0)),
            )
            .unwrap();
        assert_eq!(r.cluster_freqs[0], MegaHertz(960.0));
    }

    #[test]
    fn leakier_bin_draws_more_power_at_same_operating_point() {
        let mut slow = n5(0);
        let mut fast = n5(3);
        let mode = FrequencyMode::Fixed(MegaHertz(960.0));
        let mut p_slow = Watts::ZERO;
        let mut p_fast = Watts::ZERO;
        for _ in 0..1200 {
            p_slow = slow
                .step(Seconds(0.1), CpuDemand::busy(), mode)
                .unwrap()
                .soc_power;
            p_fast = fast
                .step(Seconds(0.1), CpuDemand::busy(), mode)
                .unwrap()
                .soc_power;
        }
        assert!(
            p_fast > p_slow,
            "bin-3 ({p_fast}) should out-consume bin-0 ({p_slow})"
        );
    }

    #[test]
    fn work_scales_with_frequency() {
        let mut d = n5(0);
        let low = d
            .step(
                Seconds(1.0),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(300.0)),
            )
            .unwrap()
            .work_cycles;
        let mut d = n5(0);
        let high = d
            .step(
                Seconds(1.0),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(960.0)),
            )
            .unwrap()
            .work_cycles;
        assert!((high / low - 3.2).abs() < 1e-9);
    }

    #[test]
    fn reset_thermal_restores_cold_state() {
        let mut d = n5(0);
        for _ in 0..1000 {
            d.step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        }
        d.reset_thermal(Celsius(26.0)).unwrap();
        assert_eq!(d.die_temp(), Celsius(26.0));
        assert_eq!(d.case_temp(), Celsius(26.0));
        assert_eq!(d.package_temp(), Celsius(26.0));
    }

    #[test]
    fn ambient_shift_propagates() {
        let mut d = n5(0);
        d.set_ambient(Celsius(40.0)).unwrap();
        for _ in 0..36_000 {
            d.step(Seconds(0.5), CpuDemand::Idle, FrequencyMode::Unconstrained)
                .unwrap();
        }
        assert!(
            d.die_temp().value() > 38.0,
            "die should drift toward hot ambient: {}",
            d.die_temp()
        );
    }

    #[test]
    fn step_validation() {
        let mut d = n5(0);
        assert!(d
            .step(
                Seconds(0.0),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained
            )
            .is_err());
        assert!(d
            .step(
                Seconds(0.1),
                CpuDemand::Busy { util: 0.0 },
                FrequencyMode::Unconstrained
            )
            .is_err());
        assert!(d
            .step(
                Seconds(0.1),
                CpuDemand::Busy { util: 1.5 },
                FrequencyMode::Unconstrained
            )
            .is_err());
        assert!(d
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(0.0))
            )
            .is_err());
    }

    #[test]
    fn supply_swap_changes_terminal_voltage() {
        let mut d = n5(0);
        let v1 = d.supply().terminal_voltage(Watts(1.0));
        d.set_supply(Box::new(Monsoon::new(Volts(9.0)).unwrap()));
        let v2 = d.supply().terminal_voltage(Watts(1.0));
        assert_ne!(v1, v2);
        assert_eq!(v2, Volts(9.0));
    }

    #[test]
    fn report_converts_to_trace_sample() {
        let mut d = n5(0);
        let r = d
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        let s = r.to_sample(Seconds(0.1));
        assert_eq!(s.dt, r.dt);
        assert_eq!(s.cluster_freqs, r.cluster_freqs);
        assert_eq!(s.supply_power, r.supply_power);
    }

    #[test]
    fn display_mentions_model_and_label() {
        let d = n5(2);
        let s = format!("{d}");
        assert!(s.contains("Nexus 5"));
        assert!(s.contains("bin-2"));
    }

    /// Every catalog model, statically binned and RBCPR.
    fn catalog_units() -> Vec<Device> {
        vec![
            n5(0),
            n5(6),
            catalog::nexus6(0.7, "cache").unwrap(),
            catalog::nexus6p(0.8, "cache").unwrap(),
            catalog::lg_g5(0.6, "cache").unwrap(),
            catalog::pixel(0.3, "cache").unwrap(),
            catalog::pixel2(0.5, "cache").unwrap(),
            mixed_law_pixel(),
        ]
    }

    /// A Pixel whose second cluster leaks with a steeper temperature law,
    /// so the clusters cannot share one temperature factor.
    fn mixed_law_pixel() -> Device {
        let mut spec = catalog::pixel_spec().unwrap();
        let p = &spec.soc.clusters[1].power;
        spec.soc.clusters[1].power = PowerParams::new(
            p.ceff_per_core(),
            p.leak_per_core(),
            p.v_ref(),
            p.t_ref(),
            p.leak_voltage_exp(),
            p.leak_temp_coeff() * 1.3,
        )
        .unwrap();
        let die = DieSample::from_grade(spec.soc.node, 0.3).unwrap();
        let supply = Box::new(Monsoon::new(spec.nominal_battery_voltage).unwrap());
        let d = Device::new(spec, die, supply, "mixed-law", 7).unwrap();
        assert!(!d.shared_temp_law);
        d
    }

    /// Bits of a report through `Debug`, which tells -0.0 from 0.0 and
    /// prints every f64 so that it round-trips.
    fn report_bits(r: &StepReport) -> String {
        format!("{r:?}")
    }

    /// Two operating points whose cache slots collide on every cluster,
    /// alternated step by step: each step evicts the other point's entry,
    /// and every report still matches a forced-miss twin bit for bit.
    #[test]
    fn colliding_operating_points_alternate_bit_identically() {
        let make = || catalog::pixel(0.4, "collide").unwrap();
        let mode = FrequencyMode::Fixed(MegaHertz(1000.0));
        let mut warm = make();
        warm.set_integrator(Integrator::Exponential);
        let probe = warm.step(Seconds(0.1), CpuDemand::busy(), mode).unwrap();
        let loads = |util: f64| -> Vec<ClusterLoad> {
            probe
                .cluster_freqs
                .iter()
                .zip(&probe.active_cores)
                .map(|(&freq, &cores)| ClusterLoad {
                    freq,
                    nominal_v: Volts(0.0),
                    powered: f64::from(cores),
                    util,
                })
                .collect()
        };
        let base = loads(1.0);
        let other = (1..10_000)
            .map(|k| f64::from(k) / 10_000.0)
            .find(|&u| {
                loads(u)
                    .iter()
                    .zip(&base)
                    .all(|(a, b)| a.key(0).slot() == b.key(0).slot())
            })
            .expect("some utilisation collides on every cluster");

        let mut warm = make();
        let mut cold = make();
        warm.set_integrator(Integrator::Exponential);
        let (mut ra, mut rb) = (StepReport::empty(), StepReport::empty());
        let mut last: Option<(i64, f64)> = None;
        let mut evictions = 0;
        for step in 0..2000 {
            let util = if step % 2 == 0 { 1.0 } else { other };
            let demand = CpuDemand::Busy { util };
            let bin = (warm.die_temp().value() / POWER_CACHE_TEMP_QUANTUM).round() as i64;
            cold.set_integrator(Integrator::Exponential);
            warm.step_into(Seconds(0.1), demand, mode, &mut ra).unwrap();
            cold.step_into(Seconds(0.1), demand, mode, &mut rb).unwrap();
            assert_eq!(report_bits(&ra), report_bits(&rb), "step {step}");
            assert_eq!(ra.cluster_freqs, probe.cluster_freqs, "step {step}");
            for (memo, load) in warm.memo.iter().zip(loads(util)) {
                let key = load.key(bin);
                assert_eq!(memo.power[key.slot()].0, key, "step {step}");
            }
            if last == Some((bin, if util == 1.0 { other } else { 1.0 })) {
                evictions += 1;
            }
            last = Some((bin, util));
        }
        assert!(evictions > 1000, "only {evictions} colliding steps");
    }

    /// The power cache is allocated on the first fast-path probe only:
    /// Euler/RK4 devices hold no allocation, and after Exponential steps
    /// every cluster holds exactly [`POWER_CACHE_SLOTS`] slots, which
    /// re-selecting the integrator empties but keeps.
    #[test]
    fn power_cache_allocates_only_on_the_fast_path() {
        assert_eq!(core::mem::size_of::<(PowerKey, Volts, Watts)>(), 48);
        let busy = |d: &mut Device, steps: usize| {
            for _ in 0..steps {
                d.step(
                    Seconds(0.1),
                    CpuDemand::busy(),
                    FrequencyMode::Unconstrained,
                )
                .unwrap();
            }
        };
        for integrator in [None, Some(Integrator::Euler), Some(Integrator::Rk4)] {
            let mut d = catalog::pixel(0.5, "alloc").unwrap();
            if let Some(integrator) = integrator {
                d.set_integrator(integrator);
            }
            busy(&mut d, 3000);
            assert!(
                d.memo.iter().all(|m| m.power.capacity() == 0),
                "{integrator:?} allocated a power cache"
            );
        }
        let mut d = catalog::pixel(0.5, "alloc").unwrap();
        d.set_integrator(Integrator::Exponential);
        busy(&mut d, 3000);
        for m in &d.memo {
            assert_eq!((m.power.len(), m.power.capacity()), (64, 64));
        }
        d.set_integrator(Integrator::Exponential);
        for m in &d.memo {
            assert_eq!((m.power.len(), m.power.capacity()), (0, 64));
        }
        busy(&mut d, 10);
        for m in &d.memo {
            assert_eq!((m.power.len(), m.power.capacity()), (64, 64));
        }
    }

    /// The miss evaluation is bit for bit `PowerParams::total_power` at the
    /// quantised temperature, with the RBCPR trim at that temperature:
    /// every catalog device, every ladder OPP, idle and busy loads, and
    /// temperatures spanning thousands of bins (past both clamp edges),
    /// with warm voltage-factor memos and the temperature factor shared
    /// across clusters or not.
    #[test]
    fn miss_evaluation_is_total_power_at_the_quantised_temperature() {
        for d in catalog_units() {
            let clusters = &d.spec.soc.clusters;
            let mut memos = vec![ClusterMemo::EMPTY; clusters.len()];
            let ladder = d.tables.iter().map(VfTable::len).max().unwrap();
            for shared in [d.shared_temp_law, false] {
                for (step, opp, kind) in (0..700)
                    .flat_map(|step| (0..ladder).map(move |opp| (step, opp)))
                    .flat_map(|(step, opp)| (0..4).map(move |kind| (step, opp, kind)))
                {
                    let t = -60.0 + 0.3037 * f64::from(step);
                    let bin = (t / POWER_CACHE_TEMP_QUANTUM).round() as i64;
                    let at = Celsius(bin as f64 * POWER_CACHE_TEMP_QUANTUM);
                    let mut temp = LeakageTemp {
                        at,
                        shared,
                        factor: None,
                    };
                    for (ci, cluster) in clusters.iter().enumerate() {
                        let table = &d.tables[ci];
                        let freq = table.points()[opp.min(table.len() - 1)].freq;
                        let cores = f64::from(cluster.cores);
                        let (powered, util) = match kind {
                            0 => (1.0, 0.02),
                            1 => (cores, 1.0),
                            2 => (cores, 0.7),
                            _ => (0.0, 0.0),
                        };
                        let load = ClusterLoad {
                            freq,
                            nominal_v: table.voltage_at(freq),
                            powered,
                            util,
                        };
                        let (v, p) = memos[ci].evaluate(
                            &cluster.power,
                            &d.spec.voltage_scheme,
                            &d.die,
                            &load,
                            &mut temp,
                        );
                        let want_v = match &d.spec.voltage_scheme {
                            VoltageScheme::StaticTable => load.nominal_v,
                            VoltageScheme::Rbcpr(rb) => rb.trim(load.nominal_v, &d.die, at),
                        };
                        let want_p = cluster.power.total_power(
                            &d.die,
                            want_v,
                            freq,
                            at,
                            powered * util,
                            powered,
                        );
                        let what = format!("{d} cluster {ci} at {at} f {freq}");
                        assert_eq!(v.value().to_bits(), want_v.value().to_bits(), "{what}");
                        assert_eq!(p.value().to_bits(), want_p.value().to_bits(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn headroom_shrinks_as_device_heats() {
        let mut d = n5(0);
        let h0 = d.headroom().unwrap();
        for _ in 0..600 {
            d.step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        }
        assert!(d.headroom().unwrap() < h0);
    }
}
