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
/// documented fast-path tolerance budget (DESIGN.md §11).
const POWER_CACHE_TEMP_QUANTUM: f64 = 0.1;

/// Per-cluster cap on cached (frequency, temperature-bin, load) power
/// points. Steady states touch a handful; throttle ladders a few dozen.
const POWER_CACHE_CAP: usize = 64;

/// Key of an empty memo slot: a NaN bit pattern that no finite governor
/// target or rail voltage has.
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
    /// cluster 0, so the reference path evaluates `exp(β(T−T₀))` once per
    /// step instead of once per cluster. True for every catalog device.
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
    /// Rail-voltage bits → leakage voltage factor `(V/V₀)^γ` (reference
    /// path; static-table rails change only with the OPP).
    voltage_factor: (u64, f64),
    /// Power cache keyed on (frequency, quantised-temperature bin, powered
    /// cores, utilisation); values are the trimmed rail voltage and
    /// modelled power computed *at the quantised temperature*, so a hit is
    /// bit-identical to recomputing (fast path only). The temperature bin
    /// in the key is what invalidates RBCPR trims when the die moves: a new
    /// bin is a miss and an exact recompute.
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
}

/// Operating-point key for the fast-path power cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PowerKey {
    freq_bits: u64,
    temp_bin: i64,
    powered_bits: u64,
    util_bits: u64,
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
    /// quantised-temperature power cache; Euler/RK4 run the reference
    /// arithmetic at the exact die temperature. The OPP memo and the
    /// leakage voltage-factor memo are exact and run on every integrator.
    /// Every call clears all of them, so alternating schemes cannot leak
    /// stale entries (and re-selecting the same scheme forces misses).
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
            &[
                (self.die_node, heat.die),
                (self.package_node, heat.package),
            ],
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

        // Fast path: the power model (and RBCPR trim) sees the die
        // temperature snapped to the cache grid, so an unchanged operating
        // point is a pure lookup and a hit is bit-identical to recomputing.
        let temp_bin = (die_temp.value() / POWER_CACHE_TEMP_QUANTUM).round() as i64;
        let power_temp = if self.fast_path {
            Celsius(temp_bin as f64 * POWER_CACHE_TEMP_QUANTUM)
        } else {
            die_temp
        };
        // Reference path: `exp(β(T−T₀))` of the current cluster's law,
        // carried over from cluster 0 when the laws are shared.
        let mut temp_factor = 0.0;

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

            // Rail voltage + modelled power. The fast path caches both per
            // (frequency, temperature bin, load) point; the temperature bin
            // in the key invalidates RBCPR trims as the die moves.
            let (v, power) = if self.fast_path {
                let key = PowerKey {
                    freq_bits: freq.value().to_bits(),
                    temp_bin,
                    powered_bits: powered.to_bits(),
                    util_bits: util.to_bits(),
                };
                let cache = &mut memo.power;
                if let Some(pos) = cache.iter().position(|e| e.0 == key) {
                    let hit = cache[pos];
                    if pos != 0 {
                        cache.swap(pos, pos - 1);
                    }
                    (hit.1, hit.2)
                } else {
                    let v = match &self.spec.voltage_scheme {
                        VoltageScheme::StaticTable => nominal_v,
                        VoltageScheme::Rbcpr(rb) => rb.trim(nominal_v, &self.die, power_temp),
                    };
                    let p = cluster.power.total_power(
                        &self.die,
                        v,
                        freq,
                        power_temp,
                        powered * util,
                        powered,
                    );
                    cache.truncate(POWER_CACHE_CAP - 1);
                    cache.insert(0, (key, v, p));
                    (v, p)
                }
            } else {
                let v = match &self.spec.voltage_scheme {
                    VoltageScheme::StaticTable => nominal_v,
                    VoltageScheme::Rbcpr(rb) => rb.trim(nominal_v, &self.die, die_temp),
                };
                // `total_power` composed from its memoised leakage factors.
                if ci == 0 || !self.shared_temp_law {
                    temp_factor = cluster.power.leakage_temp_factor(die_temp);
                }
                let voltage_factor = memo.voltage_factor(&cluster.power, v);
                let p = cluster.power.dynamic_power(v, freq, powered * util)
                    + cluster.power.leakage_from_factors(
                        &self.die,
                        voltage_factor,
                        temp_factor,
                        powered,
                    );
                (v, p)
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
    pub(crate) fn step_finish(&mut self, dt: Seconds, out: &mut StepReport) -> Result<(), SocError> {
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
