//! Per-step telemetry traces.
//!
//! The paper's Figures 4/5 plot temperature and frequency timelines of an
//! ACCUBENCH run; Figures 11/12 plot the *distributions* of frequency and
//! temperature across an iteration. [`Trace`] collects the per-step
//! [`TraceSample`]s a [`Device`](crate::device::Device) reports and derives
//! those artifacts.

use core::fmt;
use pv_units::{Celsius, MegaHertz, Seconds, Volts, Watts};

/// One step of a running peak: `t` if nothing was seen yet, else
/// `peak.max(t)`. [`Trace::peak_die_temp`] folds it over a trace's samples
/// in order; a session loop that records no trace folds it over its steps
/// and gets the same bits.
pub fn running_peak(peak: Option<Celsius>, t: Celsius) -> Option<Celsius> {
    Some(match peak {
        None => t,
        Some(best) => best.max(t),
    })
}

/// Telemetry from one simulation step.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Simulation time at the *end* of the step.
    pub t: Seconds,
    /// Step length.
    pub dt: Seconds,
    /// True die temperature.
    pub die_temp: Celsius,
    /// Sensor-reported temperature (lagged/quantised).
    pub sensor_temp: Celsius,
    /// Case (skin) temperature.
    pub case_temp: Celsius,
    /// Frequency each cluster ran at.
    pub cluster_freqs: Vec<MegaHertz>,
    /// Cores online per cluster.
    pub active_cores: Vec<u32>,
    /// Power drawn from the supply (includes regulator loss).
    pub supply_power: Watts,
    /// Supply terminal voltage under that load.
    pub supply_voltage: Volts,
    /// Whether any throttle mechanism was engaged.
    pub throttled: bool,
}

/// An append-only sequence of [`TraceSample`]s with analysis helpers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    samples: Vec<TraceSample>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: TraceSample) {
        self.samples.push(sample);
    }

    /// The recorded samples in order.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total simulated time covered.
    pub fn duration(&self) -> Seconds {
        self.samples.iter().map(|s| s.dt).sum()
    }

    /// Time-weighted mean frequency of `cluster`; `None` if the trace is
    /// empty or the cluster index is out of range everywhere.
    pub fn mean_freq(&self, cluster: usize) -> Option<MegaHertz> {
        let mut weighted = 0.0;
        let mut time = 0.0;
        for s in &self.samples {
            if let Some(f) = s.cluster_freqs.get(cluster) {
                weighted += f.value() * s.dt.value();
                time += s.dt.value();
            }
        }
        if time > 0.0 {
            Some(MegaHertz(weighted / time))
        } else {
            None
        }
    }

    /// Time-weighted mean die temperature; `None` on an empty trace.
    pub fn mean_die_temp(&self) -> Option<Celsius> {
        let mut weighted = 0.0;
        let mut time = 0.0;
        for s in &self.samples {
            weighted += s.die_temp.value() * s.dt.value();
            time += s.dt.value();
        }
        if time > 0.0 {
            Some(Celsius(weighted / time))
        } else {
            None
        }
    }

    /// Peak die temperature; `None` on an empty trace.
    pub fn peak_die_temp(&self) -> Option<Celsius> {
        self.samples
            .iter()
            .map(|s| s.die_temp)
            .fold(None, running_peak)
    }

    /// Peak case (skin) temperature; `None` on an empty trace.
    pub fn peak_case_temp(&self) -> Option<Celsius> {
        self.samples
            .iter()
            .map(|s| s.case_temp)
            .fold(None, running_peak)
    }

    /// Time share of each distinct frequency the primary cluster visited,
    /// as `(frequency, fraction of trace time)` sorted by frequency — the
    /// residency view behind the Fig 11/12 histograms.
    pub fn freq_residency(&self, cluster: usize) -> Vec<(MegaHertz, f64)> {
        let total = self.duration().value();
        if total == 0.0 {
            return Vec::new();
        }
        let mut acc: Vec<(f64, f64)> = Vec::new();
        for s in &self.samples {
            if let Some(f) = s.cluster_freqs.get(cluster) {
                match acc
                    .iter_mut()
                    .find(|(freq, _)| (*freq - f.value()).abs() < 1e-9)
                {
                    Some((_, t)) => *t += s.dt.value(),
                    None => acc.push((f.value(), s.dt.value())),
                }
            }
        }
        acc.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite frequencies"));
        acc.into_iter()
            .map(|(f, t)| (MegaHertz(f), t / total))
            .collect()
    }

    /// Fraction of trace time with the die at or above `threshold` — the
    /// "time spent at temperature" statistic the paper shows is *not*
    /// sufficient to predict throttling (Fig 11).
    pub fn fraction_time_at_or_above(&self, threshold: Celsius) -> f64 {
        let total = self.duration().value();
        if total == 0.0 {
            return 0.0;
        }
        let above: f64 = self
            .samples
            .iter()
            .filter(|s| s.die_temp >= threshold)
            .map(|s| s.dt.value())
            .sum();
        above / total
    }

    /// Fraction of trace time any throttle was engaged.
    pub fn fraction_time_throttled(&self) -> f64 {
        let total = self.duration().value();
        if total == 0.0 {
            return 0.0;
        }
        let throttled: f64 = self
            .samples
            .iter()
            .filter(|s| s.throttled)
            .map(|s| s.dt.value())
            .sum();
        throttled / total
    }

    /// Total energy drawn from the supply over the trace.
    pub fn supply_energy(&self) -> pv_units::Joules {
        self.samples.iter().map(|s| s.supply_power * s.dt).sum()
    }

    /// Per-sample `(time, die temperature)` pairs, for plotting.
    pub fn temperature_series(&self) -> impl Iterator<Item = (Seconds, Celsius)> + '_ {
        self.samples.iter().map(|s| (s.t, s.die_temp))
    }

    /// Per-sample `(time, frequency)` pairs for `cluster`, for plotting.
    pub fn frequency_series(
        &self,
        cluster: usize,
    ) -> impl Iterator<Item = (Seconds, MegaHertz)> + '_ {
        self.samples
            .iter()
            .filter_map(move |s| s.cluster_freqs.get(cluster).map(|f| (s.t, *f)))
    }

    /// Renders the trace as CSV (header + one row per sample).
    pub fn to_csv(&self) -> String {
        let clusters = self
            .samples
            .first()
            .map(|s| s.cluster_freqs.len())
            .unwrap_or(0);
        let mut out = String::from("t_s,die_c,sensor_c,case_c,supply_w,supply_v,throttled");
        for c in 0..clusters {
            out.push_str(&format!(",freq{c}_mhz,cores{c}"));
        }
        out.push('\n');
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{}",
                s.t.value(),
                s.die_temp.value(),
                s.sensor_temp.value(),
                s.case_temp.value(),
                s.supply_power.value(),
                s.supply_voltage.value(),
                u8::from(s.throttled)
            ));
            for c in 0..clusters {
                let f = s.cluster_freqs.get(c).map_or(0.0, |f| f.value());
                let n = s.active_cores.get(c).copied().unwrap_or(0);
                out.push_str(&format!(",{f:.0},{n}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace of {} samples over {:.1}",
            self.samples.len(),
            self.duration()
        )
    }
}

impl Extend<TraceSample> for Trace {
    fn extend<I: IntoIterator<Item = TraceSample>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

impl FromIterator<TraceSample> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceSample>>(iter: I) -> Self {
        Self {
            samples: iter.into_iter().collect(),
        }
    }
}

pv_json::impl_to_json!(TraceSample {
    t,
    dt,
    die_temp,
    sensor_temp,
    case_temp,
    cluster_freqs,
    active_cores,
    supply_power,
    supply_voltage,
    throttled
});
pv_json::impl_to_json!(Trace { samples });

impl pv_json::FromJson for TraceSample {
    fn from_json(value: &pv_json::Json) -> Option<Self> {
        fn field<T: pv_json::FromJson>(value: &pv_json::Json, key: &str) -> Option<T> {
            T::from_json(value.get(key)?)
        }
        Some(Self {
            t: field(value, "t")?,
            dt: field(value, "dt")?,
            die_temp: field(value, "die_temp")?,
            sensor_temp: field(value, "sensor_temp")?,
            case_temp: field(value, "case_temp")?,
            cluster_freqs: field(value, "cluster_freqs")?,
            active_cores: field(value, "active_cores")?,
            supply_power: field(value, "supply_power")?,
            supply_voltage: field(value, "supply_voltage")?,
            throttled: field(value, "throttled")?,
        })
    }
}

impl pv_json::FromJson for Trace {
    fn from_json(value: &pv_json::Json) -> Option<Self> {
        Some(Self {
            samples: pv_json::FromJson::from_json(value.get("samples")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, temp: f64, freq: f64, throttled: bool) -> TraceSample {
        TraceSample {
            t: Seconds(t),
            dt: Seconds(1.0),
            die_temp: Celsius(temp),
            sensor_temp: Celsius(temp - 0.5),
            case_temp: Celsius(temp - 10.0),
            cluster_freqs: vec![MegaHertz(freq)],
            active_cores: vec![4],
            supply_power: Watts(2.0),
            supply_voltage: Volts(4.0),
            throttled,
        }
    }

    fn trace() -> Trace {
        [
            sample(1.0, 40.0, 2265.0, false),
            sample(2.0, 60.0, 2265.0, false),
            sample(3.0, 80.0, 960.0, true),
            sample(4.0, 70.0, 1574.0, true),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn duration_and_len() {
        let t = trace();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.duration(), Seconds(4.0));
    }

    #[test]
    fn mean_freq_is_time_weighted() {
        let t = trace();
        let mean = t.mean_freq(0).unwrap();
        let expected = (2265.0 + 2265.0 + 960.0 + 1574.0) / 4.0;
        assert!((mean.value() - expected).abs() < 1e-9);
        assert_eq!(t.mean_freq(5), None);
    }

    #[test]
    fn temperature_statistics() {
        let t = trace();
        assert!((t.mean_die_temp().unwrap().value() - 62.5).abs() < 1e-9);
        assert_eq!(t.peak_die_temp(), Some(Celsius(80.0)));
        assert!((t.fraction_time_at_or_above(Celsius(70.0)) - 0.5).abs() < 1e-12);
        assert!((t.fraction_time_at_or_above(Celsius(90.0))).abs() < 1e-12);
    }

    #[test]
    fn throttle_fraction() {
        let t = trace();
        assert!((t.fraction_time_throttled() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn energy_integrates_supply_power() {
        let t = trace();
        assert_eq!(t.supply_energy(), pv_units::Joules(8.0));
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.mean_freq(0), None);
        assert_eq!(t.mean_die_temp(), None);
        assert_eq!(t.peak_die_temp(), None);
        assert_eq!(t.fraction_time_at_or_above(Celsius(0.0)), 0.0);
        assert_eq!(t.fraction_time_throttled(), 0.0);
    }

    #[test]
    fn csv_round_trippable_shape() {
        let t = trace();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 rows
        assert!(lines[0].contains("freq0_mhz"));
        assert!(lines[3].ends_with(",1,960,4") || lines[3].contains(",960,4"));
    }

    #[test]
    fn series_iterators() {
        let t = trace();
        let temps: Vec<_> = t.temperature_series().collect();
        assert_eq!(temps.len(), 4);
        assert_eq!(temps[2].1, Celsius(80.0));
        let freqs: Vec<_> = t.frequency_series(0).collect();
        assert_eq!(freqs[2].1, MegaHertz(960.0));
    }

    #[test]
    fn case_temp_peak_and_residency() {
        let t = trace();
        assert_eq!(t.peak_case_temp(), Some(Celsius(70.0)));
        let res = t.freq_residency(0);
        // Frequencies 960, 1574, 2265 with shares 0.25, 0.25, 0.5.
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].0, MegaHertz(960.0));
        assert!((res[0].1 - 0.25).abs() < 1e-12);
        assert_eq!(res[2].0, MegaHertz(2265.0));
        assert!((res[2].1 - 0.5).abs() < 1e-12);
        // Residencies sum to 1 for a single-cluster trace.
        let total: f64 = res.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(Trace::new().freq_residency(0).is_empty());
        assert_eq!(Trace::new().peak_case_temp(), None);
    }

    #[test]
    fn extend_and_display() {
        let mut t = Trace::new();
        t.extend([sample(1.0, 30.0, 300.0, false)]);
        t.push(sample(2.0, 31.0, 300.0, false));
        assert_eq!(t.len(), 2);
        assert!(format!("{t}").contains("2 samples"));
    }
}
