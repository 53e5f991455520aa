//! Outside-in probes: wrappers around the library's trait seams (`Dut`,
//! `PowerSupply`, `StorageBackend`) that record, time or count the calls
//! crossing them, plus `/proc` readers for process CPU time and peak RSS.

use crate::trace;
use pv_power::{PowerError, PowerSupply};
use pv_soc::device::{CpuDemand, Dut, FrequencyMode, StepReport};
use pv_soc::SocError;
use pv_thermal::network::Integrator;
use pv_units::{Celsius, Joules, Seconds, Volts, Watts};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a [`TimingDut`] saw during one session.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DutStats {
    /// `step`/`step_into` calls.
    pub steps: u64,
    /// `try_read_sensor` calls.
    pub sensor_reads: u64,
}

/// One state-changing call the harness made into a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DutCall {
    /// `step` or `step_into`.
    Step(Seconds, CpuDemand, FrequencyMode),
    /// `try_read_sensor` (it advances the sensor's noise stream).
    ReadSensor,
    /// `set_ambient`.
    SetAmbient(Celsius),
    /// `set_integrator`.
    SetIntegrator(Integrator),
}

/// Records every state-changing call the harness makes into a device, so
/// [`TimingDut::replay`] can time the device's share of a session without
/// a timer read per call: at a few hundred ns per step, two timer reads
/// per call would distort both the step and the session being measured.
#[derive(Debug)]
pub struct TimingDut<D> {
    inner: D,
    tape: Vec<DutCall>,
    stats: DutStats,
}

impl<D: Dut> TimingDut<D> {
    /// Wraps `inner` with an empty tape.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            tape: Vec::new(),
            stats: DutStats::default(),
        }
    }

    /// Call counts so far.
    pub fn stats(&self) -> DutStats {
        self.stats
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Replays the recorded calls on `device` (a clone of the wrapped
    /// device taken before the session) and returns the wall time, ns:
    /// the time the session spent inside device calls. The replayed
    /// device ends in the wrapped device's state.
    ///
    /// # Errors
    ///
    /// Returns the first device error, which a faithful replay never meets.
    pub fn replay(&self, device: &mut pv_soc::device::Device) -> Result<u64, SocError> {
        let mut report = StepReport::empty();
        let t = Instant::now();
        for call in &self.tape {
            match *call {
                DutCall::Step(dt, demand, mode) => {
                    device.step_into(dt, demand, mode, &mut report)?;
                }
                DutCall::ReadSensor => {
                    std::hint::black_box(device.read_sensor());
                }
                DutCall::SetAmbient(c) => device.set_ambient(c)?,
                DutCall::SetIntegrator(i) => device.set_integrator(i),
            }
        }
        std::hint::black_box(&report);
        Ok(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

impl<D: Dut> Dut for TimingDut<D> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn die_temp(&self) -> Celsius {
        self.inner.die_temp()
    }

    fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError> {
        self.tape.push(DutCall::SetAmbient(ambient));
        self.inner.set_ambient(ambient)
    }

    fn try_read_sensor(&mut self) -> Result<Celsius, SocError> {
        self.stats.sensor_reads += 1;
        self.tape.push(DutCall::ReadSensor);
        self.inner.try_read_sensor()
    }

    fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError> {
        self.stats.steps += 1;
        self.tape.push(DutCall::Step(dt, demand, mode));
        self.inner.step(dt, demand, mode)
    }

    fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        self.stats.steps += 1;
        self.tape.push(DutCall::Step(dt, demand, mode));
        self.inner.step_into(dt, demand, mode, out)
    }

    fn set_integrator(&mut self, integrator: Integrator) {
        self.tape.push(DutCall::SetIntegrator(integrator));
        self.inner.set_integrator(integrator);
    }
}

/// Counts `draw` calls on the supply it wraps (install it with
/// `Device::set_supply`).
#[derive(Debug)]
pub struct CountingSupply {
    inner: Box<dyn PowerSupply>,
    draws: Arc<AtomicU64>,
}

impl CountingSupply {
    /// Wraps `inner`; `draws` is incremented once per `draw`.
    pub fn new(inner: Box<dyn PowerSupply>, draws: Arc<AtomicU64>) -> Self {
        Self { inner, draws }
    }
}

impl PowerSupply for CountingSupply {
    fn terminal_voltage(&self, load: Watts) -> Volts {
        self.inner.terminal_voltage(load)
    }

    fn draw(&mut self, power: Watts, dt: Seconds) -> Result<(), PowerError> {
        self.draws.fetch_add(1, Ordering::Relaxed);
        self.inner.draw(power, dt)
    }

    fn energy_delivered(&self) -> Joules {
        self.inner.energy_delivered()
    }

    fn clone_box(&self) -> Box<dyn PowerSupply> {
        Box::new(Self {
            inner: self.inner.clone_box(),
            draws: Arc::clone(&self.draws),
        })
    }
}

/// Operation counts a [`TimingStorage`] accumulates.
#[derive(Debug, Default)]
pub struct StorageCounts {
    /// `write_all` calls.
    pub writes: AtomicU64,
    /// `sync_data` calls.
    pub fsyncs: AtomicU64,
    /// Bytes passed to `write_all`.
    pub bytes: AtomicU64,
}

/// The real filesystem behind the journal's storage seam, with each write
/// and fsync recorded as a `journal.write` / `journal.fsync` span.
#[derive(Debug)]
pub struct TimingStorage {
    inner: accubench::storage::Storage,
    counts: Arc<StorageCounts>,
}

impl TimingStorage {
    /// Wraps the OS filesystem; counts go to `counts`.
    pub fn new(counts: Arc<StorageCounts>) -> Self {
        Self {
            inner: accubench::storage::Storage::os(),
            counts,
        }
    }

    fn wrap(
        &self,
        file: io::Result<Box<dyn accubench::storage::StorageFile>>,
    ) -> io::Result<Box<dyn accubench::storage::StorageFile>> {
        Ok(Box::new(TimingFile {
            inner: file?,
            counts: Arc::clone(&self.counts),
        }))
    }
}

impl accubench::storage::StorageBackend for TimingStorage {
    fn open(&self, path: &Path) -> io::Result<Box<dyn accubench::storage::StorageFile>> {
        self.wrap(self.inner.open(path))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn accubench::storage::StorageFile>> {
        self.wrap(self.inner.create(path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.inner.is_dir(path)
    }
}

#[derive(Debug)]
struct TimingFile {
    inner: Box<dyn accubench::storage::StorageFile>,
    counts: Arc<StorageCounts>,
}

impl accubench::storage::StorageFile for TimingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let _span = trace::span("journal.write");
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let _span = trace::span("journal.fsync");
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }

    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read_chunk(buf)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, from `/proc/self/stat`.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 (utime, stime) are at 11 and 12 after the name.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set of this process in MB (`VmHWM`, `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
