//! Crowd database and device ranking — the paper's §VI vision.
//!
//! "Our goal would be to gather sufficient data from devices of various
//! smartphone models via crowdsourcing and then using this data to rank
//! other devices, thereby helping users and researchers determine the
//! characteristics of their smartphone and how it compares to other
//! smartphones of the same model."
//!
//! [`CrowdDatabase`] collects per-device ACCUBENCH scores with the "strict
//! filters" the paper prescribes (submissions with high iteration-to-
//! iteration RSD are rejected as thermally uncontrolled), and answers the
//! two §VI questions: *where does my device rank within its model?* and
//! *how wide is the spread for this model?*
//!
//! Fleet sweeps run under the **supervision layer** (DESIGN.md §12): every
//! device session is isolated with `catch_unwind`, budgeted by a
//! [`Watchdog`], escalated per [`SupervisionPolicy`], and journaled with a
//! typed [`DeviceStatus`] — so a sweep always terminates with an explicit,
//! deterministic account of every device.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::executor::{self, TaskOutcome};
use crate::harness::{Ambient, Harness};
use crate::journal::{fnv64, CancelToken, Journal, JournalError, Record};
use crate::protocol::{CooldownTarget, Protocol};
use crate::report::TextTable;
use crate::session::{Session, Verdict};
use crate::storage::StorageEscalation;
use crate::supervise::{
    DeviceStatus, OnFailure, SessionChaos, SupervisionError, SupervisionPolicy, Watchdog,
};
use crate::BenchError;
use core::fmt;
use core::fmt::Write as _;
use pv_faults::{FaultHandle, FaultKind, FaultPlan};
use pv_soc::device::{Device, FrequencyMode};
use pv_soc::faulty::FaultyDevice;
use pv_stats::bootstrap::{bootstrap_mean_ci, ConfidenceInterval};
use pv_stats::Summary;
use pv_units::{Celsius, Seconds};
use std::collections::BTreeMap;

/// One accepted crowd submission.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdScore {
    /// Device model (`"Nexus 5"` …). Scores only compare within a model.
    pub model: String,
    /// Submitting device's label/id.
    pub device: String,
    /// Mean ACCUBENCH performance (iterations per workload window).
    pub score: f64,
    /// Iteration-to-iteration RSD (%) of the submission.
    pub rsd: f64,
}

/// A crowdsourced score database with admission filtering.
///
/// This is the exact, full-fleet **reference oracle**: it retains every
/// accepted submission, so memory grows O(devices). Large sweeps use the
/// streaming [`crate::aggregate::ScoreAggregate`] path instead (same
/// admission rule, O(bins + K) memory) and keep this path behind
/// `repro sweep --oracle` for cross-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdDatabase {
    max_rsd: f64,
    scores: Vec<CrowdScore>,
    rejected: usize,
    /// Per-model accepted scores in submission order, maintained on
    /// `submit` so statistics never re-scan the whole database.
    index: BTreeMap<String, Vec<f64>>,
}

impl CrowdDatabase {
    /// Creates a database that rejects submissions with RSD above
    /// `max_rsd_percent` — the paper's "strict filters" against
    /// measurements taken without thermal control.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::InvalidProtocol`] for a non-positive filter.
    pub fn new(max_rsd_percent: f64) -> Result<Self, BenchError> {
        if !(max_rsd_percent > 0.0 && max_rsd_percent.is_finite()) {
            return Err(BenchError::InvalidProtocol("max_rsd must be > 0"));
        }
        Ok(Self {
            max_rsd: max_rsd_percent,
            scores: Vec::new(),
            rejected: 0,
            index: BTreeMap::new(),
        })
    }

    /// Submits a score. Returns `true` if accepted, `false` if filtered.
    ///
    /// The accept/reject *decision* is order-independent: each submission
    /// is judged only against the fixed RSD filter, never against earlier
    /// submissions, so the final [`rejected`](Self::rejected) count is the
    /// same however a batch is permuted. The database's *contents* are
    /// order-sensitive, though — [`scores`](Self::scores) preserves
    /// submission order, and the JSON serialisation embeds it. Fleet
    /// sweeps therefore commit submissions in **canonical device order**
    /// (index 0, 1, 2, …) behind the executor's single-writer merge step
    /// (see [`populate_parallel`]), which keeps databases, reports and
    /// journals bit-identical regardless of thread count.
    pub fn submit(&mut self, score: CrowdScore) -> bool {
        if !score.score.is_finite() || score.score <= 0.0 {
            self.rejected += 1;
            return false;
        }
        if !score.rsd.is_finite() || score.rsd > self.max_rsd {
            self.rejected += 1;
            return false;
        }
        self.index
            .entry(score.model.clone())
            .or_default()
            .push(score.score);
        self.scores.push(score);
        true
    }

    /// Accepted submissions.
    pub fn scores(&self) -> &[CrowdScore] {
        &self.scores
    }

    /// Number of filtered-out submissions.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// All accepted scores for one model, in submission order. Borrowed
    /// from the per-model index — no per-call collection.
    pub fn model_scores(&self, model: &str) -> &[f64] {
        self.index.get(model).map_or(&[], Vec::as_slice)
    }

    /// Percentile (0–100) of `score` within its model's accepted scores:
    /// the fraction of submissions it beats. Returns `None` when the model
    /// has no data.
    pub fn percentile(&self, model: &str, score: f64) -> Option<f64> {
        let scores = self.model_scores(model);
        if scores.is_empty() {
            return None;
        }
        let beaten = scores.iter().filter(|&&s| s < score).count();
        Some(beaten as f64 / scores.len() as f64 * 100.0)
    }

    /// Peak-to-peak performance spread (%) of a model's accepted scores —
    /// the §VI "range of quality for a particular device model". `None`
    /// with fewer than two submissions.
    pub fn model_spread_percent(&self, model: &str) -> Option<f64> {
        let scores = self.model_scores(model);
        if scores.len() < 2 {
            return None;
        }
        Summary::from_slice(scores)
            .ok()
            .map(|s| s.spread_percent_of_max())
    }

    /// Submissions of `model`, best first.
    pub fn ranking(&self, model: &str) -> Vec<&CrowdScore> {
        let mut rows: Vec<&CrowdScore> = self.scores.iter().filter(|s| s.model == model).collect();
        // Admission filtering guarantees finiteness, but a total order keeps
        // ranking panic-free even against future invariant slips.
        rows.sort_by(|a, b| b.score.total_cmp(&a.score));
        rows
    }

    /// Renders a model's leaderboard.
    ///
    /// Percentiles come from a single walk over the descending ranking
    /// (rows in a tie block share a percentile; each block beats exactly
    /// the rows after it), replacing the per-row linear scan that made
    /// rendering O(n²).
    pub fn render_model(&self, model: &str) -> String {
        let ranked = self.ranking(model);
        let n = ranked.len();
        let mut pct = vec![0.0f64; n];
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && ranked[j + 1].score == ranked[i].score {
                j += 1;
            }
            let beaten = (n - j - 1) as f64 / n as f64 * 100.0;
            for p in &mut pct[i..=j] {
                *p = beaten;
            }
            i = j + 1;
        }
        let mut t = TextTable::new(vec!["rank", "device", "score", "RSD", "percentile"]);
        for (i, s) in ranked.iter().enumerate() {
            t.row(vec![
                (i + 1).to_string(),
                s.device.clone(),
                format!("{:.1}", s.score),
                format!("{:.2}%", s.rsd),
                format!("{:.0}", pct[i]),
            ]);
        }
        format!(
            "{model}: {} submissions ({} rejected), spread {}\n{}",
            n,
            self.rejected,
            self.model_spread_percent(model)
                .map_or_else(|| "n/a".to_owned(), |s| format!("{s:.1}%")),
            t
        )
    }
}

impl fmt::Display for CrowdDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crowd database: {} accepted, {} rejected (filter {:.1}% RSD)",
            self.scores.len(),
            self.rejected,
            self.max_rsd
        )
    }
}

pv_json::impl_to_json!(CrowdScore {
    model,
    device,
    score,
    rsd
});
pv_json::impl_to_json!(CrowdDatabase {
    max_rsd,
    scores,
    rejected
});
pv_json::impl_to_json!(SweepOutcome {
    device,
    verdict,
    accepted,
    quarantined,
    fault_reports,
    error,
    status,
    attempts
});
pv_json::impl_to_json!(SweepReport { outcomes });

impl pv_json::FromJson for SweepOutcome {
    fn from_json(value: &pv_json::Json) -> Option<Self> {
        Some(SweepOutcome {
            device: String::from_json(value.get("device")?)?,
            verdict: <Option<Verdict>>::from_json(value.get("verdict")?)?,
            accepted: bool::from_json(value.get("accepted")?)?,
            quarantined: usize::from_json(value.get("quarantined")?)?,
            fault_reports: usize::from_json(value.get("fault_reports")?)?,
            error: <Option<String>>::from_json(value.get("error")?)?,
            status: DeviceStatus::from_json(value.get("status")?)?,
            attempts: u32::from_json(value.get("attempts")?)?,
        })
    }
}

/// Configuration of a resilient crowd-population sweep
/// ([`populate_resilient`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Protocol each device runs.
    pub protocol: Protocol,
    /// Iterations requested per device session.
    pub iterations: usize,
    /// Idealised fixed ambient each device sits in (a crowd of phones is
    /// not a crowd of thermal chambers).
    pub ambient: Celsius,
    /// When `Some`, each device `i` gets a pseudo-random fault plan seeded
    /// `seed.wrapping_add(i)` — deterministic per device, diverse across
    /// the fleet. `None` runs the sweep fault-free.
    pub fault_seed: Option<u64>,
    /// Mean interval between injected faults on each device.
    pub fault_mean_interval: Seconds,
    /// Which fault kinds the per-device plans draw from.
    pub fault_kinds: Vec<FaultKind>,
    /// Escalation policy for misbehaving devices (attempts, abort vs
    /// quarantine, watchdog limits).
    pub supervision: SupervisionPolicy,
    /// When `Some`, injects seeded session-level chaos: exactly
    /// `panic_devices` sessions panic and `stall_devices` wedge. Used by
    /// the chaos tests and `repro sweep --chaos`.
    pub chaos: Option<SessionChaos>,
    /// What to do when the journal's own retry/rotation budgets are
    /// exhausted mid-sweep (persistent ENOSPC/EIO): keep sweeping without
    /// durability ([`StorageEscalation::Degrade`], the default) or fail
    /// the sweep ([`StorageEscalation::Abort`]). Deliberately **not** part
    /// of [`SweepConfig::digest`]: it changes failure handling, never the
    /// simulated outcomes, so resuming under a different escalation is
    /// safe.
    pub storage_escalation: StorageEscalation,
    /// When `Some`, this sweep runs a *subsample* of a larger virtual
    /// population: the CLI selected the device list with
    /// [`pv_stats::sampling::select`] under this plan. Sampling changes
    /// the simulated outcome set, so the plan **is** digested — a journal
    /// written for one subsample can never resume as another (or as a
    /// full-fleet sweep).
    pub sampling: Option<SamplePlan>,
}

/// The subsampling design a sampled sweep was selected under; carried in
/// [`SweepConfig`] so it enters the config digest and the journal header.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlan {
    /// Virtual population size the sample was drawn from.
    pub population: usize,
    /// Number of devices selected for simulation.
    pub n: usize,
    /// Sampling design.
    pub strategy: pv_stats::sampling::Strategy,
    /// Selection seed.
    pub seed: u64,
}

impl SweepConfig {
    /// A fault-free sweep of `iterations` per device at 26 °C.
    pub fn clean(protocol: Protocol, iterations: usize) -> Self {
        Self {
            protocol,
            iterations,
            ambient: Celsius(26.0),
            fault_seed: None,
            fault_mean_interval: Seconds(600.0),
            fault_kinds: pv_faults::ALL_KINDS.to_vec(),
            supervision: SupervisionPolicy::default(),
            chaos: None,
            storage_escalation: StorageEscalation::Degrade,
            sampling: None,
        }
    }

    /// Arms per-device pseudo-random fault plans.
    #[must_use]
    pub fn with_faults(mut self, seed: u64, mean_interval: Seconds, kinds: Vec<FaultKind>) -> Self {
        self.fault_seed = Some(seed);
        self.fault_mean_interval = mean_interval;
        self.fault_kinds = kinds;
        self
    }

    /// Replaces the supervision policy.
    #[must_use]
    pub fn with_supervision(mut self, policy: SupervisionPolicy) -> Self {
        self.supervision = policy;
        self
    }

    /// Arms seeded session chaos.
    #[must_use]
    pub fn with_chaos(mut self, chaos: SessionChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Replaces the storage escalation policy.
    #[must_use]
    pub fn with_storage_escalation(mut self, escalation: StorageEscalation) -> Self {
        self.storage_escalation = escalation;
        self
    }

    /// Records the sampling plan the device list was selected under.
    #[must_use]
    pub fn with_sampling(mut self, plan: SamplePlan) -> Self {
        self.sampling = Some(plan);
        self
    }

    /// Simulated-time horizon fault plans must cover: every requested
    /// iteration at full length, times the retry budget, with slack.
    pub(crate) fn fault_horizon(&self) -> f64 {
        let per_iteration = self.protocol.warmup.value()
            + self.protocol.cooldown_timeout.value()
            + self.protocol.workload.value();
        per_iteration * self.iterations as f64 * 4.0
    }

    /// The per-attempt simulated-time budget every supervised session runs
    /// under: the policy's explicit budget, or the fault horizon — a bound
    /// no healthy session (including its full retry/backoff budget)
    /// approaches, so arming it by default costs nothing while
    /// guaranteeing that even an infinitely wedged session terminates
    /// deterministically.
    pub(crate) fn sim_budget(&self) -> f64 {
        self.supervision
            .max_sim_seconds
            .unwrap_or_else(|| self.fault_horizon())
    }

    /// Hex [`fnv64`] digest over every field that determines the sweep's
    /// simulated outcome — protocol, iterations, ambient, fault plan
    /// parameters, model name and the device labels, with floats hashed by
    /// their exact bit patterns. `--resume` refuses a journal whose header
    /// digest differs, so a crashed sweep can never silently continue
    /// under a different configuration.
    pub fn digest(&self, model: &str, device_labels: &[String]) -> String {
        let mut s = String::new();
        let bits = |s: &mut String, v: f64| {
            let _ = write!(s, "{:016x}/", v.to_bits());
        };
        // v4: the sampling plan joined the digested fields (v3 added
        // supervision policy and session chaos). Each version bump makes
        // every pre-existing journal digest mismatch loudly instead of
        // resuming under a silently different scheme.
        let _ = write!(s, "v4|model={model}|");
        s.push_str(self.protocol.integrator.as_str());
        s.push('|');
        bits(&mut s, self.protocol.warmup.value());
        bits(&mut s, self.protocol.cooldown_poll.value());
        match self.protocol.cooldown_target {
            CooldownTarget::Absolute(t) => {
                s.push_str("abs:");
                bits(&mut s, t.value());
            }
            CooldownTarget::AboveAmbient(d) => {
                s.push_str("rel:");
                bits(&mut s, d.value());
            }
        }
        bits(&mut s, self.protocol.cooldown_timeout.value());
        bits(&mut s, self.protocol.workload.value());
        bits(&mut s, self.protocol.busy_dt.value());
        bits(&mut s, self.protocol.idle_dt.value());
        match self.protocol.mode {
            FrequencyMode::Unconstrained => s.push_str("unconstrained"),
            FrequencyMode::Fixed(f) => {
                s.push_str("fixed:");
                bits(&mut s, f.value());
            }
        }
        let _ = write!(
            s,
            "|trace={}|iters={}|",
            self.protocol.record_trace, self.iterations
        );
        bits(&mut s, self.ambient.value());
        match self.fault_seed {
            Some(seed) => {
                let _ = write!(s, "|seed={seed:016x}|");
                bits(&mut s, self.fault_mean_interval.value());
                for k in &self.fault_kinds {
                    s.push_str(k.as_str());
                    s.push(',');
                }
            }
            None => s.push_str("|clean|"),
        }
        let _ = write!(s, "|supervision:{}", self.supervision.digest_string());
        match &self.chaos {
            Some(chaos) => {
                let _ = write!(s, "|chaos:{}", chaos.digest_string());
            }
            None => s.push_str("|no-chaos"),
        }
        // Sampling selects which devices exist at all, so it must be
        // digested even though the selected labels are digested too — two
        // plans can select the same subset yet imply different estimator
        // weights.
        match &self.sampling {
            Some(plan) => {
                let _ = write!(
                    s,
                    "|sampling:pop={},n={},strategy={},seed={:016x}",
                    plan.population,
                    plan.n,
                    plan.strategy.as_str(),
                    plan.seed
                );
            }
            None => s.push_str("|unsampled"),
        }
        for label in device_labels {
            let _ = write!(s, "|{label}");
        }
        format!("{:016x}", fnv64(s.as_bytes()))
    }
}

/// What happened to one device of a [`populate_resilient`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The device's label.
    pub device: String,
    /// The session's quality-gate verdict; `None` if the session died on a
    /// fatal error before finishing.
    pub verdict: Option<Verdict>,
    /// Whether the database accepted the submission.
    pub accepted: bool,
    /// Iteration slots lost to exhausted retries.
    pub quarantined: usize,
    /// Fault occurrences logged against this device.
    pub fault_reports: usize,
    /// Fatal error text, when the session did not finish.
    pub error: Option<String>,
    /// Supervision status: anything but [`DeviceStatus::Completed`] means
    /// the device is a quarantined *hole* in the fleet — it contributed no
    /// verdict and is excluded from survivor statistics.
    pub status: DeviceStatus,
    /// Session attempts the supervisor gave this device (≥ 1).
    pub attempts: u32,
}

impl SweepOutcome {
    /// Whether this device is a supervision hole (every attempt panicked,
    /// timed out, or failed fatally).
    pub fn is_hole(&self) -> bool {
        self.status != DeviceStatus::Completed
    }
}

/// Fleet-level verdict of a supervised sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetVerdict {
    /// Every device completed its session (verdicts may still vary).
    Clean,
    /// At least one device was quarantined by supervision; survivor
    /// statistics should be quoted with the bootstrap interval from
    /// [`SweepReport::survivor_ci`].
    Degraded,
    /// The journal's storage failed persistently mid-sweep and the
    /// escalation policy was [`StorageEscalation::Degrade`]: the sweep ran
    /// to completion and the in-memory report is whole, but only the
    /// journaled prefix survives a crash. Only
    /// [`JournaledSweep::fleet_verdict`] produces this — a report alone
    /// cannot know its journal died.
    StorageDegraded,
}

impl fmt::Display for FleetVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FleetVerdict::Clean => "clean",
            FleetVerdict::Degraded => "degraded",
            FleetVerdict::StorageDegraded => "storage-degraded",
        })
    }
}

/// Fleet-level result of a [`populate_resilient`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-device outcomes, in input order.
    pub outcomes: Vec<SweepOutcome>,
}

impl SweepReport {
    /// Reconstructs a report purely from journal records: the outcome
    /// records, sorted by device index. A sweep that crashed and was never
    /// resumed reconstructs to its completed prefix.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::MissingHeader`] when the records do not
    /// start with a sweep header.
    pub fn from_journal(records: &[Record]) -> Result<Self, JournalError> {
        match records.first() {
            Some(Record::Header { .. }) => {}
            _ => return Err(JournalError::MissingHeader),
        }
        let mut by_index: BTreeMap<usize, SweepOutcome> = BTreeMap::new();
        for r in records {
            if let Record::Outcome { index, outcome, .. } = r {
                by_index.insert(*index, outcome.clone());
            }
        }
        Ok(SweepReport {
            outcomes: by_index.into_values().collect(),
        })
    }

    /// Devices whose session finished (with any verdict).
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.verdict.is_some()).count()
    }

    /// Devices whose submission the database accepted.
    pub fn accepted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.accepted).count()
    }

    /// Devices that died on a fatal error.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_some()).count()
    }

    /// Devices quarantined by supervision (status ≠ `Completed`) — the
    /// sweep's explicit holes.
    pub fn quarantined_devices(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_hole()).count()
    }

    /// Holes whose final status was [`DeviceStatus::Panicked`].
    pub fn panicked(&self) -> usize {
        self.count_status(DeviceStatus::Panicked)
    }

    /// Holes whose final status was [`DeviceStatus::TimedOut`].
    pub fn timed_out(&self) -> usize {
        self.count_status(DeviceStatus::TimedOut)
    }

    fn count_status(&self, status: DeviceStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// The fleet verdict: [`FleetVerdict::Degraded`] iff supervision
    /// quarantined at least one device.
    pub fn fleet_verdict(&self) -> FleetVerdict {
        if self.quarantined_devices() > 0 {
            FleetVerdict::Degraded
        } else {
            FleetVerdict::Clean
        }
    }

    /// Bootstrap 95 % confidence interval for the mean accepted score of
    /// `model`'s *survivors* — what a degraded sweep quotes instead of
    /// pretending the holes never existed (ranked-set subsampling theory
    /// licenses survivor statistics, but only with honest uncertainty).
    /// Deterministic: fixed resample count and seed. Reads the database's
    /// per-model index — no per-call score collection.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::UnknownModel`] when the model has no accepted
    /// scores (previously a silent `None`), and [`BenchError::Stats`] if
    /// the bootstrap itself fails.
    pub fn survivor_ci(
        &self,
        db: &CrowdDatabase,
        model: &str,
    ) -> Result<ConfidenceInterval, BenchError> {
        let scores = db.model_scores(model);
        if scores.is_empty() {
            return Err(BenchError::UnknownModel(model.to_owned()));
        }
        Ok(bootstrap_mean_ci(scores, 0.95, 2000, SURVIVOR_CI_SEED)?)
    }
}

/// Fixed seed for [`SweepReport::survivor_ci`], so every rendering of the
/// same database quotes the same interval.
const SURVIVOR_CI_SEED: u64 = 0x05EE_D0C1;

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "crowd sweep: {} devices, {} completed, {} accepted, {} failed",
            self.outcomes.len(),
            self.completed(),
            self.accepted(),
            self.failed()
        )?;
        if self.fleet_verdict() == FleetVerdict::Degraded {
            writeln!(
                f,
                "  fleet degraded: {} device(s) quarantined ({} panicked, {} timed out, {} failed)",
                self.quarantined_devices(),
                self.panicked(),
                self.timed_out(),
                self.count_status(DeviceStatus::Failed),
            )?;
        }
        for o in &self.outcomes {
            let verdict = o
                .verdict
                .map_or_else(|| o.status.to_string(), |v| v.to_string());
            write!(
                f,
                "  {}: {verdict}, {} quarantined, {} faults",
                o.device, o.quarantined, o.fault_reports
            )?;
            if o.attempts > 1 {
                write!(f, ", {} attempts", o.attempts)?;
            }
            if let Some(e) = &o.error {
                write!(f, " ({e})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Populates `db` with one resilient session per device — the §VI
/// crowdsourcing vision under real-world conditions, where some fraction
/// of the fleet hits sensor dropouts, meter disconnects and scheduler
/// glitches mid-measurement.
///
/// Each device runs a full session through the harness's retry/quarantine
/// machinery. Sessions that finish with a non-[`Verdict::Invalid`] verdict
/// submit their score (admission filtering still applies); fatal per-device
/// errors are recorded in the [`SweepReport`] and the sweep continues — a
/// crowd campaign never aborts because one handset bricked.
///
/// # Errors
///
/// Returns [`BenchError::InvalidProtocol`] if the protocol or iteration
/// count is invalid. Per-device failures are *not* errors; they land in
/// the report.
pub fn populate_resilient(
    db: &mut CrowdDatabase,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
) -> Result<SweepReport, BenchError> {
    populate_journaled(db, model, devices, cfg, None, &CancelToken::new()).map(|s| s.report)
}

/// Result of a journaled (and possibly interrupted or resumed) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledSweep {
    /// Per-device outcomes journaled so far, in device order. For a
    /// `complete` sweep this is identical to what the uninterrupted,
    /// unjournaled run would have produced.
    pub report: SweepReport,
    /// Whether every device ran. `false` means the sweep was cancelled
    /// cooperatively; re-run with the same journal to resume.
    pub complete: bool,
    /// Devices whose outcome was restored from the journal instead of
    /// being re-simulated.
    pub resumed: usize,
    /// `Some(detail)` when the journal's storage failed persistently
    /// mid-sweep under [`StorageEscalation::Degrade`]: journaling stopped
    /// at the named device, the sweep kept running, and the journal holds
    /// only the sealed prefix written before the failure. `None` for a
    /// fully journaled (or unjournaled) sweep.
    pub storage_degraded: Option<String>,
}

impl JournaledSweep {
    /// The fleet verdict, accounting for journal-storage loss:
    /// [`FleetVerdict::StorageDegraded`] when journaling died mid-sweep,
    /// otherwise the report's own verdict.
    pub fn fleet_verdict(&self) -> FleetVerdict {
        if self.storage_degraded.is_some() {
            FleetVerdict::StorageDegraded
        } else {
            self.report.fleet_verdict()
        }
    }
}

/// [`populate_resilient`] with crash durability and cooperative
/// cancellation — the engine behind `repro sweep --journal/--resume`.
///
/// With a [`Journal`]:
///
/// * a fresh journal gets a [`Record::Header`] carrying the
///   [`SweepConfig::digest`] before any device runs;
/// * a journal with recovered records must lead with a header whose digest
///   matches the requested sweep — otherwise
///   [`JournalError::DigestMismatch`] is returned and *nothing* runs;
/// * devices whose outcome is already journaled are skipped: their
///   outcome (and crowd-database submission, via the journaled score) is
///   replayed instead of re-simulated. Because every device session is
///   seeded independently (`fault_seed + index`), the resumed tail is
///   bit-identical to what an uninterrupted run would have computed;
/// * each finished device appends a fsynced [`Record::Outcome`] (plus a
///   [`Record::Note`] when it hit faults or quarantines) before the sweep
///   moves on — a kill loses at most the in-flight chunk (up to 64
///   devices), which a resume re-runs bit-identically;
/// * when the last device lands, a [`Record::Complete`] marker seals the
///   journal;
/// * journal storage that fails persistently mid-sweep (past the
///   journal's own retry and segment-rotation budgets) is handled per
///   [`SweepConfig::storage_escalation`]: `degrade` (the default) stops
///   journaling, keeps sweeping, and reports the loss via
///   [`JournaledSweep::storage_degraded`]; `abort` fails the sweep with
///   the underlying I/O error.
///
/// The [`CancelToken`] is polled between chunks of up to 64 devices (a
/// fleet too small to fill several such chunks per thread runs shorter
/// ones): once cancelled, the in-flight chunk finishes, is journaled, and
/// the function returns with `complete = false`.
///
/// # Errors
///
/// Returns [`BenchError::InvalidProtocol`] for an invalid protocol or
/// iteration count, and [`BenchError::Journal`] for digest mismatches or
/// journal I/O failures. Per-device simulation failures are *not* errors;
/// they land in the report.
pub fn populate_journaled(
    db: &mut CrowdDatabase,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    journal: Option<&mut Journal>,
    cancel: &CancelToken,
) -> Result<JournaledSweep, BenchError> {
    populate_parallel(db, model, devices, cfg, journal, cancel, 1)
}

/// Result of simulating one device, before the canonical-order merge step
/// submits it to the database and journals it.
pub(crate) struct DeviceRun {
    pub(crate) outcome: SweepOutcome,
    pub(crate) score: Option<f64>,
    pub(crate) rsd: Option<f64>,
    /// Per-attempt supervision failures (including failed attempts that a
    /// later retry recovered from), journaled as `Record::Supervision`.
    pub(crate) failures: Vec<AttemptFailure>,
}

/// One failed supervised attempt, recorded for the journal and notes.
pub(crate) struct AttemptFailure {
    pub(crate) attempt: u32,
    pub(crate) status: DeviceStatus,
    /// Deterministic one-line description (panic headline or error text).
    pub(crate) detail: String,
    /// Backtrace summary, present only when `RUST_BACKTRACE` enables
    /// capture. Goes into the free-form note, never into digested state.
    pub(crate) backtrace: Option<String>,
}

/// Builds device `index`'s fault handle: the seeded instrument plan (when
/// armed) spliced with any session-chaos events targeting this device.
pub(crate) fn fault_handle_for(cfg: &SweepConfig, index: usize, fleet: usize) -> FaultHandle {
    let mut plan = match cfg.fault_seed {
        Some(seed) => FaultPlan::generate(
            seed.wrapping_add(index as u64),
            cfg.fault_horizon(),
            cfg.fault_mean_interval.value(),
            &cfg.fault_kinds,
        ),
        None => FaultPlan::empty(),
    };
    let mut armed = cfg.fault_seed.is_some();
    if let Some(chaos) = &cfg.chaos {
        for event in chaos.events_for(index, fleet) {
            plan = plan.with_event(event);
            armed = true;
        }
    }
    if armed {
        FaultHandle::armed(plan)
    } else {
        FaultHandle::disarmed()
    }
}

/// What one supervised attempt produced: a finished session (whose verdict
/// may still be anything), or a typed failure.
enum Attempt {
    Finished(Session),
    Failed {
        status: DeviceStatus,
        detail: String,
        backtrace: Option<String>,
    },
}

/// Runs one session attempt on a pristine clone of `device` under a fresh
/// fault handle and watchdog, with `catch_unwind` isolation. Returns the
/// attempt result plus the fault-report count (which survives panics: the
/// handle lives outside the unwind boundary).
fn run_attempt(cfg: &SweepConfig, index: usize, fleet: usize, device: &Device) -> (Attempt, usize) {
    let handle = fault_handle_for(cfg, index, fleet);
    let fresh = device.clone();
    let session_handle = handle.clone();
    let caught = executor::run_caught(move || -> Result<Session, BenchError> {
        let mut gated = FaultyDevice::new(fresh, session_handle.clone());
        let mut watchdog = Watchdog::new().with_sim_budget(cfg.sim_budget());
        if let Some(wall) = cfg.supervision.max_wall_seconds {
            watchdog = watchdog.with_wall_limit(wall);
        }
        let mut harness = Harness::new(cfg.protocol, Ambient::Fixed(cfg.ambient))?
            .with_faults(session_handle.clone())
            .with_watchdog(watchdog);
        harness.run_session(&mut gated, cfg.iterations)
    });
    let attempt = match caught {
        Ok(Ok(session)) => Attempt::Finished(session),
        Ok(Err(e)) => Attempt::Failed {
            status: match &e {
                BenchError::Supervision(
                    SupervisionError::SimBudget { .. }
                    | SupervisionError::WallClock { .. }
                    | SupervisionError::Killed,
                ) => DeviceStatus::TimedOut,
                _ => DeviceStatus::Failed,
            },
            detail: e.to_string(),
            backtrace: None,
        },
        Err(panic) => Attempt::Failed {
            status: DeviceStatus::Panicked,
            detail: panic.headline(),
            backtrace: panic.backtrace,
        },
    };
    (attempt, handle.report_count())
}

/// Supervises one device session — the parallel-safe unit of work. It
/// clones its device per attempt, builds per-attempt fault handles,
/// watchdogs and harnesses, and touches no shared state, so its result is
/// a pure function of `(cfg, index, fleet, device)` regardless of which
/// worker thread runs it. Infallible by construction: every failure mode
/// (panic, watchdog trip, fatal session error) folds into the returned
/// outcome, and escalation beyond quarantine is the *sink's* decision.
/// The returned outcome's `accepted` flag is a placeholder; the sweep's
/// sink sets it when it takes the score in canonical device order.
pub(crate) fn supervise_device(
    cfg: &SweepConfig,
    index: usize,
    fleet: usize,
    device: &Device,
) -> DeviceRun {
    let label = device.label().to_owned();
    let max_attempts = cfg.supervision.max_attempts.max(1);
    let mut failures: Vec<AttemptFailure> = Vec::new();
    let mut reports = 0usize;
    for attempt in 1..=max_attempts {
        let (result, fault_reports) = run_attempt(cfg, index, fleet, device);
        reports = fault_reports;
        match result {
            Attempt::Finished(session) => {
                return run_from_session(label, session, reports, attempt, failures);
            }
            Attempt::Failed {
                status,
                detail,
                backtrace,
            } => failures.push(AttemptFailure {
                attempt,
                status,
                detail,
                backtrace,
            }),
        }
    }
    // Every attempt failed: the device is a supervision hole. Injected
    // faults are deterministic, so retries fail identically — but real
    // fleets retry against nondeterministic hardware, which is what
    // `max_attempts > 1` models.
    let last = failures.last();
    let status = last.map_or(DeviceStatus::Failed, |f| f.status);
    let error = last.map(|f| f.detail.clone());
    DeviceRun {
        outcome: SweepOutcome {
            device: label,
            verdict: None,
            accepted: false,
            quarantined: 0,
            fault_reports: reports,
            error,
            status,
            attempts: max_attempts,
        },
        score: None,
        rsd: None,
        failures,
    }
}

/// Folds a finished session into a [`DeviceRun`] — shared by the scalar
/// supervised path and the batched lockstep driver, so the translation
/// from session to outcome/score/verdict is one piece of code.
pub(crate) fn run_from_session(
    label: String,
    session: Session,
    fault_reports: usize,
    attempts: u32,
    failures: Vec<AttemptFailure>,
) -> DeviceRun {
    let mut score = None;
    let mut rsd = None;
    let mut verdict = Some(session.verdict);
    let mut error = None;
    if session.verdict != Verdict::Invalid {
        match session.performance_summary() {
            Ok(perf) => {
                score = Some(perf.mean());
                rsd = Some(perf.rsd_percent());
            }
            Err(e) => {
                verdict = None;
                error = Some(e.to_string());
            }
        }
    }
    let completed = verdict.is_some();
    DeviceRun {
        outcome: SweepOutcome {
            device: label,
            verdict,
            accepted: false,
            quarantined: session.quarantined_count(),
            fault_reports,
            error,
            status: if completed {
                DeviceStatus::Completed
            } else {
                DeviceStatus::Failed
            },
            attempts,
        },
        score,
        rsd,
        failures,
    }
}

/// Journal-restored device state, keyed by device index: the journaled
/// outcome plus its raw `(score, rsd)` pair.
pub(crate) type RestoredMap = BTreeMap<usize, (SweepOutcome, Option<f64>, Option<f64>)>;

/// Device `index`'s journal-restored run, if it has one: replayed, never
/// re-run (and never re-journaled).
pub(crate) fn replayed(restored: &RestoredMap, index: usize) -> Option<DeviceRun> {
    restored.get(&index).map(|(outcome, score, rsd)| DeviceRun {
        outcome: outcome.clone(),
        score: *score,
        rsd: *rsd,
        failures: Vec::new(),
    })
}

/// The sweep engine's journal preamble: validates the recovered journal
/// (or writes the fresh header), heals an uncommitted record tail, and
/// returns the restored `(outcome, score, rsd)` map plus whether a
/// `Complete` seal was already journaled.
fn prepare_journal(
    journal: &mut Option<&mut Journal>,
    model: &str,
    digest: String,
    total: usize,
) -> Result<(RestoredMap, bool), BenchError> {
    let mut restored: RestoredMap = BTreeMap::new();
    let mut already_complete = false;
    if let Some(j) = journal.as_deref_mut() {
        if j.recovered().is_empty() {
            j.append(&Record::Header {
                model: model.to_owned(),
                digest,
                devices: total,
            })?;
        } else {
            match &j.recovered()[0] {
                Record::Header {
                    digest: journaled,
                    devices: n,
                    ..
                } => {
                    if *journaled != digest || *n != total {
                        return Err(JournalError::DigestMismatch {
                            journaled: journaled.clone(),
                            requested: digest,
                        }
                        .into());
                    }
                }
                _ => return Err(JournalError::MissingHeader.into()),
            }
            // A device commits at its Outcome record. A crash inside a
            // device's batch can leave valid Supervision/Note lines with no
            // sealing outcome; drop them so the re-run (which re-emits
            // them) heals the journal to the uninterrupted bytes.
            let committed = j
                .recovered()
                .iter()
                .rposition(|r| !matches!(r, Record::Supervision { .. } | Record::Note { .. }))
                .map_or(0, |i| i + 1);
            j.truncate_recovered(committed)?;
            for r in &j.recovered()[1..] {
                match r {
                    Record::Outcome {
                        index,
                        outcome,
                        score,
                        rsd,
                    } => {
                        restored.insert(*index, (outcome.clone(), *score, *rsd));
                    }
                    Record::Complete { .. } => already_complete = true,
                    _ => {}
                }
            }
        }
    }
    Ok((restored, already_complete))
}

/// Runs one execution chunk through the scalar supervised path, one
/// device after another. Restored outcomes beyond the contiguous prefix
/// (possible only in a hand-assembled journal) are replayed, not re-run.
fn scalar_chunk(
    cfg: &SweepConfig,
    total: usize,
    chunk: Vec<(usize, Device)>,
    restored: &RestoredMap,
) -> Vec<DeviceRun> {
    chunk
        .into_iter()
        .map(|(index, device)| {
            replayed(restored, index)
                .unwrap_or_else(|| supervise_device(cfg, index, total, &device))
        })
        .collect()
}

/// Defense-in-depth when a whole chunk task panics (the supervision
/// machinery itself crashed): every device of the chunk, named by its
/// `labels`, becomes a quarantined hole carrying the same headline.
fn panicked_chunk_runs(labels: &[String], panic: &executor::PanicSummary) -> Vec<DeviceRun> {
    let detail = panic.headline();
    labels
        .iter()
        .map(|label| DeviceRun {
            outcome: SweepOutcome {
                device: label.clone(),
                verdict: None,
                accepted: false,
                quarantined: 0,
                fault_reports: 0,
                error: Some(detail.clone()),
                status: DeviceStatus::Panicked,
                attempts: 1,
            },
            score: None,
            rsd: None,
            failures: vec![AttemptFailure {
                attempt: 1,
                status: DeviceStatus::Panicked,
                detail: detail.clone(),
                backtrace: panic.backtrace.clone(),
            }],
        })
        .collect()
}

/// Journals device `index`'s freshly simulated run: its per-attempt
/// supervision records, its fault/quarantine note (when warranted), and
/// the outcome record, committed with a single fsync.
fn journal_outcome(journal: &mut Journal, index: usize, run: &DeviceRun) -> Result<(), BenchError> {
    let (outcome, failures) = (&run.outcome, &run.failures);
    let mut records = Vec::with_capacity(2 + failures.len());
    for failure in failures {
        records.push(Record::Supervision {
            index,
            attempt: failure.attempt,
            status: failure.status,
            detail: failure.detail.clone(),
        });
    }
    if outcome.quarantined > 0
        || outcome.fault_reports > 0
        || outcome.error.is_some()
        || !failures.is_empty()
    {
        let mut text = format!(
            "{}: {} quarantined, {} fault(s){}",
            outcome.device,
            outcome.quarantined,
            outcome.fault_reports,
            outcome
                .error
                .as_deref()
                .map(|e| format!(", fatal: {e}"))
                .unwrap_or_default()
        );
        // Backtrace summaries (present only when RUST_BACKTRACE is set)
        // make a quarantine diagnosable from artifacts alone. They are
        // thread-dependent, so enabling them trades away byte-identical
        // journals across thread counts — see PanicSummary::backtrace.
        for failure in failures {
            if let Some(bt) = &failure.backtrace {
                let _ = write!(text, "\nattempt {} backtrace:\n{bt}", failure.attempt);
            }
        }
        records.push(Record::Note { index, text });
    }
    records.push(Record::Outcome {
        index,
        outcome: outcome.clone(),
        score: run.score,
        rsd: run.rsd,
    });
    journal.append_all(&records)?;
    Ok(())
}

/// Longest run of consecutive devices one executor task takes. Large
/// fleets run every task at this length, which amortises per-task cost;
/// it also bounds how much in-flight work a cancel waits for.
const MAX_TASK: usize = 64;

/// Tasks per worker thread a fleet too small for [`MAX_TASK`]-device
/// tasks is split into, so the work-stealing pool can balance its tail.
const TASKS_PER_THREAD: usize = 4;

/// Devices per executor task for a `tail`-device sweep on `threads`
/// workers at lockstep width `width`: enough tasks for every worker to
/// steal from, rounded up to whole cohorts, at most [`MAX_TASK`]. Task
/// size never reaches the output — the sink sees devices in canonical
/// order whatever the tasks were.
fn task_len(tail: usize, threads: usize, width: usize) -> usize {
    tail.div_ceil(threads.max(1) * TASKS_PER_THREAD)
        .max(1)
        .next_multiple_of(width)
        .min(MAX_TASK)
}

/// What the sweep engine reports besides what its sink kept.
struct Swept {
    /// Devices handed to the sink: the restored prefix plus the tail.
    processed: usize,
    /// Devices replayed from the journal instead of re-simulated.
    resumed: usize,
    storage_degraded: Option<String>,
}

/// The one sweep engine behind [`populate_batched`] and
/// [`populate_streamed`]: validates, digests, prepares the journal,
/// replays the restored prefix, runs the tail on the executor in chunks
/// of [`task_len`] consecutive devices, journals each fresh device (with
/// storage escalation), aborts on a hole under [`OnFailure::Abort`], and
/// seals. Every device — replayed or fresh — goes to `sink` in canonical
/// order on the calling thread; the sink sets `run.outcome.accepted` from
/// its own admission decision before the engine journals the run.
#[allow(clippy::too_many_arguments)]
fn sweep(
    sink: &mut impl FnMut(usize, &mut DeviceRun) -> Result<(), BenchError>,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    mut journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
    batch: usize,
) -> Result<Swept, BenchError> {
    cfg.protocol.validate()?;
    if cfg.iterations == 0 {
        return Err(BenchError::InvalidProtocol("iterations must be >= 1"));
    }
    if cfg.supervision.max_attempts == 0 {
        return Err(BenchError::InvalidProtocol(
            "supervision.max_attempts must be >= 1",
        ));
    }
    let labels: Vec<String> = devices.iter().map(|d| d.label().to_owned()).collect();
    let digest = cfg.digest(model, &labels);
    let total = devices.len();
    let (restored, already_complete) = prepare_journal(&mut journal, model, digest, total)?;

    // Replay the journal's contiguous restored prefix on the caller — no
    // simulation, no cancellation gate. Admission is deterministic in the
    // score alone, so the sink's decision cannot diverge from the
    // uninterrupted run's.
    let mut prefix = 0usize;
    while let Some(mut run) = replayed(&restored, prefix) {
        sink(prefix, &mut run)?;
        prefix += 1;
    }
    let mut resumed = prefix;

    let width = batch.max(1);
    let len = task_len(total - prefix, threads, width);
    let chunks: Vec<Vec<(usize, Device)>> = {
        // Scoped so the fleet's own buffer is freed before the sweep runs.
        let mut feed = devices.into_iter().enumerate().skip(prefix).peekable();
        std::iter::from_fn(|| {
            feed.peek()
                .is_some()
                .then(|| feed.by_ref().take(len).collect())
        })
        .collect()
    };
    let restored = &restored;
    // Armed the first time a journal append fails past the journal's own
    // retry/rotation budgets under `StorageEscalation::Degrade`: journaling
    // stops (the sealed prefix stays valid), the sweep keeps running, and
    // the verdict downgrades to storage-degraded.
    let mut storage_degraded: Option<String> = None;
    let mut sunk = 0usize;
    executor::map_supervised(
        chunks,
        threads,
        cancel,
        |_, chunk: Vec<(usize, Device)>| -> Vec<DeviceRun> {
            if width == 1 {
                return scalar_chunk(cfg, total, chunk, restored);
            }
            // Each run of up to `batch` consecutive devices steps its
            // batch-admissible devices as one lockstep cohort.
            let mut runs = Vec::with_capacity(chunk.len());
            let mut rest = chunk.into_iter();
            loop {
                let cohort: Vec<(usize, Device)> = rest.by_ref().take(width).collect();
                if cohort.is_empty() {
                    return runs;
                }
                runs.extend(crate::batch::supervise_chunk(cfg, total, cohort, restored));
            }
        },
        |chunk_index, caught: TaskOutcome<Vec<DeviceRun>>| -> Result<(), BenchError> {
            let start = prefix + chunk_index * len;
            // `supervise_device` already catches session panics per
            // attempt, so a panicked task means the supervision machinery
            // itself crashed: every device of the chunk becomes a hole.
            let runs = match caught {
                TaskOutcome::Completed(runs) => runs,
                TaskOutcome::Panicked(panic) => {
                    panicked_chunk_runs(&labels[start..total.min(start + len)], &panic)
                }
            };
            for (k, mut run) in runs.into_iter().enumerate() {
                let index = start + k;
                sink(index, &mut run)?;
                if restored.contains_key(&index) {
                    resumed += 1;
                } else if storage_degraded.is_none() {
                    if let Some(j) = journal.as_deref_mut() {
                        if let Err(e) = journal_outcome(j, index, &run) {
                            if cfg.storage_escalation == StorageEscalation::Abort {
                                return Err(e);
                            }
                            storage_degraded =
                                Some(format!("journaling stopped at device {index}: {e}"));
                        }
                    }
                }
                sunk += 1;
                // Escalation: under `abort`, a supervision hole fails the
                // whole sweep — but only *after* its outcome is journaled,
                // so a later `--resume` under `quarantine` can pick up from
                // the exact device that tripped the policy.
                let outcome = run.outcome;
                if outcome.is_hole() && cfg.supervision.on_failure == OnFailure::Abort {
                    return Err(SupervisionError::FleetAborted {
                        device: outcome.device,
                        attempts: outcome.attempts,
                        detail: outcome.error.unwrap_or_else(|| "unknown".into()),
                    }
                    .into());
                }
            }
            Ok(())
        },
    )?;

    let processed = prefix + sunk;
    if processed == total && !already_complete && storage_degraded.is_none() {
        if let Some(j) = journal {
            if let Err(e) = j.append(&Record::Complete { devices: total }) {
                if cfg.storage_escalation == StorageEscalation::Abort {
                    return Err(e.into());
                }
                storage_degraded = Some(format!("journal seal failed: {e}"));
            }
        }
    }
    Ok(Swept {
        processed,
        resumed,
        storage_degraded,
    })
}

/// [`populate_journaled`] fanned out across a work-stealing thread pool
/// (`crate::executor`) — the engine behind `repro sweep --threads N`.
///
/// Device sessions are independent, deterministically seeded simulations,
/// so workers may run them in any order on any thread. Each worker task is
/// a chunk of consecutive devices — 64, or fewer when that would leave a
/// worker short of tasks to steal on a small fleet. The calling thread
/// is the **single writer** that merges completed outcomes back in
/// canonical device order (buffering out-of-order completions), submits
/// scores to `db`, and appends to the journal. The resulting
/// [`SweepReport`], database contents, and journal bytes are therefore
/// **bit-identical** to the serial path (`threads == 1`) for every thread
/// count and OS schedule.
///
/// Composition with the existing machinery:
///
/// * **Resume.** A journal's contiguous restored prefix is replayed on the
///   caller before any worker spawns; only the unsimulated tail is fanned
///   out. The prefix replay is not gated on `cancel`, matching the serial
///   path.
/// * **Cancellation.** Workers poll `cancel` between chunks: in-flight
///   chunks (up to 64 devices each) finish, the writer
///   flushes the contiguous finished prefix to the journal, and results
///   past the first gap are discarded — a later `--resume` recomputes
///   them bit-identically.
/// * **`threads`** is clamped to `1..=` the number of chunks; `1` runs the
///   serial reference path inline with no thread spawned.
///
/// # Errors
///
/// As [`populate_journaled`]: invalid protocol/iterations, digest
/// mismatches, journal I/O. Per-device simulation failures land in the
/// report.
pub fn populate_parallel(
    db: &mut CrowdDatabase,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
) -> Result<JournaledSweep, BenchError> {
    populate_batched(db, model, devices, cfg, journal, cancel, threads, 1)
}

/// [`populate_parallel`] with **batched lockstep stepping**: within each
/// worker task's chunk (a whole number of cohorts, up to 64 devices),
/// every run of up to `batch`
/// consecutive devices steps its *batch-admissible* devices (clean fault
/// plan, no chaos, no tracing, default watchdog budgets — see the `batch`
/// module) as one lockstep cohort through a shared-propagator mat-mat
/// thermal kernel. Inadmissible or mid-run-evicted devices fall back to
/// the scalar supervised path inside the same chunk. Reports, crowd
/// databases, and journal bytes are **bit-identical** to the scalar path
/// at every `batch` width and thread count; `batch <= 1` *is* the scalar
/// path (each chunk's devices run one after another through the
/// supervised-device engine).
///
/// `batch` does not enter [`SweepConfig::digest`]: it can never change
/// simulated outcomes, so a journal written at one width resumes cleanly
/// at another. A cancel finishes and journals the in-flight chunks (up to
/// 64 devices each) before the sweep returns incomplete.
///
/// # Errors
///
/// As [`populate_parallel`].
#[allow(clippy::too_many_arguments)]
pub fn populate_batched(
    db: &mut CrowdDatabase,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
    batch: usize,
) -> Result<JournaledSweep, BenchError> {
    let total = devices.len();
    let mut outcomes = Vec::new();
    let run = sweep(
        &mut |_, run: &mut DeviceRun| {
            if let (Some(score), Some(rsd)) = (run.score, run.rsd) {
                run.outcome.accepted = db.submit(CrowdScore {
                    model: model.to_owned(),
                    device: run.outcome.device.clone(),
                    score,
                    rsd,
                });
            }
            outcomes.push(run.outcome.clone());
            Ok(())
        },
        model,
        devices,
        cfg,
        journal,
        cancel,
        threads,
        batch,
    )?;
    Ok(JournaledSweep {
        report: SweepReport { outcomes },
        complete: run.processed == total,
        resumed: run.resumed,
        storage_degraded: run.storage_degraded,
    })
}

/// The fixed streaming-aggregation grid: device scores are folded into
/// per-group partial aggregates of this many consecutive devices, aligned
/// to absolute device index 0, and the partials are merged in ascending
/// group order. The grid is independent of `--threads`, `--batch` and the
/// resume prefix, which is what makes a streamed sweep's aggregate
/// byte-identical across thread counts and kill+resume (see
/// `pv_stats::stream` for the underlying floating-point argument). The
/// grid concerns only the fold: executor tasks are sized separately, and
/// the single-writer sink sees devices in canonical order whatever they
/// are.
pub const STREAM_GROUP: usize = 64;

/// Result of a streaming ([`populate_streamed`]) sweep: constant-size
/// aggregate statistics plus the exceptional per-device records (holes,
/// and — when requested — the retained sampled scores). Healthy devices
/// leave no per-device trace in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedSweep {
    /// Model the sweep ran.
    pub model: String,
    /// The merged fleet aggregate (moments, histogram, leaderboard).
    pub aggregate: crate::aggregate::ScoreAggregate,
    /// Outcomes of quarantined devices only — the fleet's explicit holes.
    pub holes: Vec<SweepOutcome>,
    /// Fleet size the sweep was asked to run.
    pub devices: usize,
    /// Devices processed so far (restored prefix + freshly sunk).
    pub processed: usize,
    /// Devices whose session finished with a verdict.
    pub completed: usize,
    /// Whether every device ran; `false` means cancelled — re-run with the
    /// same journal to resume.
    pub complete: bool,
    /// Devices replayed from the journal instead of re-simulated.
    pub resumed: usize,
    /// As [`JournaledSweep::storage_degraded`].
    pub storage_degraded: Option<String>,
    /// `(device index, accepted score)` pairs, retained only when the
    /// caller asked (sampled sweeps need raw scores for the stratified
    /// estimators; bounded by the sample size).
    pub retained: Vec<(usize, f64)>,
}

impl StreamedSweep {
    /// The fleet verdict, accounting for journal-storage loss.
    pub fn fleet_verdict(&self) -> FleetVerdict {
        if self.storage_degraded.is_some() {
            FleetVerdict::StorageDegraded
        } else if self.holes.is_empty() {
            FleetVerdict::Clean
        } else {
            FleetVerdict::Degraded
        }
    }

    /// Holes with the given status.
    fn count_status(&self, status: DeviceStatus) -> usize {
        self.holes.iter().filter(|o| o.status == status).count()
    }

    /// 95 % confidence interval for the survivors' mean score, from the
    /// streaming moments (normal approximation `mean ± 1.96·se`). The
    /// oracle path quotes a bootstrap interval instead — it has the raw
    /// scores; the streaming path deliberately does not. Degenerate
    /// (zero-width) with a single survivor.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::UnknownModel`] when nothing was accepted.
    pub fn survivor_ci(&self) -> Result<ConfidenceInterval, BenchError> {
        let m = self.aggregate.moments();
        if m.count() == 0 {
            return Err(BenchError::UnknownModel(self.model.clone()));
        }
        let mean = m.mean()?;
        let half = m.standard_error().map_or(0.0, |se| 1.96 * se);
        Ok(ConfidenceInterval {
            lo: mean - half,
            hi: mean + half,
            point: mean,
            level: 0.95,
        })
    }
}

impl fmt::Display for StreamedSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let failed = self
            .holes
            .iter()
            .filter(|o| o.error.is_some() && o.status == DeviceStatus::Failed)
            .count();
        writeln!(
            f,
            "crowd sweep: {} devices, {} completed, {} accepted, {} failed",
            self.devices,
            self.completed,
            self.aggregate.accepted(),
            failed
        )?;
        if !self.holes.is_empty() {
            writeln!(
                f,
                "  fleet degraded: {} device(s) quarantined ({} panicked, {} timed out, {} failed)",
                self.holes.len(),
                self.count_status(DeviceStatus::Panicked),
                self.count_status(DeviceStatus::TimedOut),
                self.count_status(DeviceStatus::Failed),
            )?;
        }
        // Only the holes get per-device lines — a million healthy devices
        // print nothing. Capped so a pathological fleet stays readable.
        const MAX_HOLE_LINES: usize = 32;
        for o in self.holes.iter().take(MAX_HOLE_LINES) {
            write!(
                f,
                "  {}: {}, {} quarantined, {} faults",
                o.device, o.status, o.quarantined, o.fault_reports
            )?;
            if o.attempts > 1 {
                write!(f, ", {} attempts", o.attempts)?;
            }
            if let Some(e) = &o.error {
                write!(f, " ({e})")?;
            }
            writeln!(f)?;
        }
        if self.holes.len() > MAX_HOLE_LINES {
            writeln!(f, "  … {} more hole(s)", self.holes.len() - MAX_HOLE_LINES)?;
        }
        Ok(())
    }
}

/// The streaming, memory-bounded sweep engine — `repro sweep`'s default
/// path, and the only one that scales to 10⁶-device (sampled) fleets.
///
/// It runs on the same engine as [`populate_batched`] — same validation,
/// journal header/digest/healing, resume replay, chunking, cohorts,
/// supervision, chaos, storage escalation and cancellation (a cancel
/// finishes the in-flight chunks of up to 64 devices),
/// producing byte-identical journals — but instead of funneling every
/// score through a [`CrowdDatabase`], the single-writer sink folds each
/// device, in canonical order, into the partial
/// [`crate::aggregate::ScoreAggregate`] of its [`STREAM_GROUP`] and
/// merges the group partials in ascending order. Memory is
/// O(bins + K + holes (+ retained sample)), independent of fleet size.
/// The fold and merge order — and hence the aggregate's bits — depends
/// only on the grid, never on `threads`, `batch` or a resume point.
///
/// `agg` must be freshly constructed (it is the merge identity); pass
/// `retain_scores = true` to also collect `(index, score)` for every
/// accepted submission — sampled sweeps need the raw scores for their
/// estimators, and the acceptance contract allows retention *within* the
/// sampled set only.
///
/// # Errors
///
/// As [`populate_batched`].
#[allow(clippy::too_many_arguments)]
pub fn populate_streamed(
    agg: &mut crate::aggregate::ScoreAggregate,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
    batch: usize,
    retain_scores: bool,
) -> Result<StreamedSweep, BenchError> {
    let total = devices.len();
    // The partial of the group currently being filled. Devices arrive in
    // canonical order, so the fold order within a group and the
    // left-to-right merge order of groups depend only on the grid — never
    // on `threads`, `batch` or where a resumed prefix ended.
    let mut open = agg.fresh_partial();
    let mut holes = Vec::new();
    let mut retained = Vec::new();
    let mut completed = 0usize;
    let run = sweep(
        &mut |index, run: &mut DeviceRun| {
            if index > 0 && index.is_multiple_of(STREAM_GROUP) {
                agg.merge(&open)?;
                open = agg.fresh_partial();
            }
            let outcome = &mut run.outcome;
            if let (Some(score), Some(rsd)) = (run.score, run.rsd) {
                outcome.accepted = open.fold(&outcome.device, score, rsd);
                if outcome.accepted && retain_scores {
                    retained.push((index, score));
                }
            }
            if outcome.verdict.is_some() {
                completed += 1;
            }
            if outcome.is_hole() {
                holes.push(outcome.clone());
            }
            Ok(())
        },
        model,
        devices,
        cfg,
        journal,
        cancel,
        threads,
        batch,
    )?;
    // Close the last group (partial, or empty when the fleet ends on the
    // grid — merging an empty partial is an identity).
    agg.merge(&open)?;
    Ok(StreamedSweep {
        model: model.to_owned(),
        aggregate: agg.clone(),
        holes,
        devices: total,
        processed: run.processed,
        completed,
        complete: run.processed == total,
        resumed: run.resumed,
        storage_degraded: run.storage_degraded,
        retained,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn score(model: &str, device: &str, value: f64, rsd: f64) -> CrowdScore {
        CrowdScore {
            model: model.to_owned(),
            device: device.to_owned(),
            score: value,
            rsd,
        }
    }

    fn seeded_db() -> CrowdDatabase {
        let mut db = CrowdDatabase::new(2.0).unwrap();
        for (d, v) in [("a", 100.0), ("b", 95.0), ("c", 90.0), ("d", 86.0)] {
            assert!(db.submit(score("Nexus 5", d, v, 0.5)));
        }
        assert!(db.submit(score("Pixel", "p1", 1200.0, 0.3)));
        db
    }

    #[test]
    fn filters_noisy_and_invalid_submissions() {
        let mut db = CrowdDatabase::new(2.0).unwrap();
        assert!(!db.submit(score("Nexus 5", "hot-car", 80.0, 9.0)));
        assert!(!db.submit(score("Nexus 5", "nan", f64::NAN, 0.1)));
        assert!(!db.submit(score("Nexus 5", "zero", 0.0, 0.1)));
        assert!(db.submit(score("Nexus 5", "ok", 100.0, 1.9)));
        assert_eq!(db.rejected(), 3);
        assert_eq!(db.scores().len(), 1);
    }

    #[test]
    fn submission_order_shapes_contents_not_admission() {
        // The admission decision is pointwise: permuting a batch changes
        // which slots scores land in (contents), never what is accepted or
        // the rejected count. This is the property that lets the parallel
        // sweep replay submissions in canonical order without changing
        // which devices are admitted.
        let batch = [
            score("Nexus 5", "a", 100.0, 0.5),
            score("Nexus 5", "noisy", 80.0, 9.0),
            score("Nexus 5", "b", 95.0, 1.9),
            score("Nexus 5", "bad", f64::NAN, 0.1),
            score("Nexus 5", "c", 90.0, 0.2),
        ];
        let admit = |order: &[usize]| {
            let mut db = CrowdDatabase::new(2.0).unwrap();
            let verdicts: BTreeMap<&str, bool> = order
                .iter()
                .map(|&i| (batch[i].device.as_str(), db.submit(batch[i].clone())))
                .collect();
            (verdicts, db.rejected(), db.scores().len())
        };
        let forward = admit(&[0, 1, 2, 3, 4]);
        let reversed = admit(&[4, 3, 2, 1, 0]);
        let shuffled = admit(&[2, 0, 4, 1, 3]);
        assert_eq!(forward, reversed);
        assert_eq!(forward, shuffled);
        assert_eq!(forward.1, 2, "noisy + NaN rejected in every order");
        // Contents ARE order-sensitive: submission order is preserved.
        let mut db = CrowdDatabase::new(2.0).unwrap();
        db.submit(batch[2].clone());
        db.submit(batch[0].clone());
        let labels: Vec<&str> = db.scores().iter().map(|s| s.device.as_str()).collect();
        assert_eq!(labels, ["b", "a"]);
    }

    #[test]
    fn percentile_is_fraction_beaten() {
        let db = seeded_db();
        assert_eq!(db.percentile("Nexus 5", 100.0), Some(75.0));
        assert_eq!(db.percentile("Nexus 5", 86.0), Some(0.0));
        assert_eq!(db.percentile("Nexus 5", 9999.0), Some(100.0));
        assert_eq!(db.percentile("Galaxy", 100.0), None);
    }

    #[test]
    fn spread_matches_paper_metric() {
        let db = seeded_db();
        // (100-86)/100 = 14%, the paper's Nexus 5 performance spread.
        assert!((db.model_spread_percent("Nexus 5").unwrap() - 14.0).abs() < 1e-9);
        assert_eq!(db.model_spread_percent("Pixel"), None);
    }

    #[test]
    fn ranking_is_best_first_and_model_scoped() {
        let db = seeded_db();
        let ranked = db.ranking("Nexus 5");
        assert_eq!(ranked.len(), 4);
        assert_eq!(ranked[0].device, "a");
        assert_eq!(ranked[3].device, "d");
        assert_eq!(db.ranking("Pixel").len(), 1);
    }

    #[test]
    fn renders_leaderboard() {
        let db = seeded_db();
        let s = db.render_model("Nexus 5");
        assert!(s.contains("spread 14.0%"));
        assert!(s.contains("rank"));
        assert!(!format!("{db}").is_empty());
    }

    #[test]
    fn invalid_filter_rejected() {
        assert!(CrowdDatabase::new(0.0).is_err());
        assert!(CrowdDatabase::new(f64::NAN).is_err());
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let labels = vec!["a".to_owned(), "b".to_owned()];
        let cfg = SweepConfig::clean(Protocol::unconstrained(), 5);
        let base = cfg.digest("Pixel", &labels);
        assert_eq!(base, cfg.digest("Pixel", &labels), "digest must be stable");
        assert_eq!(base.len(), 16);
        // Every knob that changes the simulated outcome changes the digest.
        assert_ne!(base, cfg.digest("Nexus 5", &labels));
        assert_ne!(base, cfg.digest("Pixel", &labels[..1]));
        let mut other = cfg.clone();
        other.iterations = 4;
        assert_ne!(base, other.digest("Pixel", &labels));
        let mut other = cfg.clone();
        other.ambient = Celsius(27.0);
        assert_ne!(base, other.digest("Pixel", &labels));
        let other = cfg
            .clone()
            .with_faults(7, Seconds(600.0), pv_faults::ALL_KINDS.to_vec());
        assert_ne!(base, other.digest("Pixel", &labels));
        let mut other = cfg.clone();
        other.protocol = Protocol::fixed_frequency(pv_units::MegaHertz(960.0));
        assert_ne!(base, other.digest("Pixel", &labels));
        let mut other = cfg.clone();
        other.protocol = other
            .protocol
            .with_integrator(pv_thermal::network::Integrator::Exponential);
        assert_ne!(base, other.digest("Pixel", &labels));
        let mut other = cfg;
        other.protocol = other.protocol.with_workload(Seconds(299.0));
        assert_ne!(base, other.digest("Pixel", &labels));
    }

    #[test]
    fn report_reconstructs_from_journal_records() {
        let outcome = |d: &str| SweepOutcome {
            device: d.to_owned(),
            verdict: Some(Verdict::Valid),
            accepted: true,
            quarantined: 0,
            fault_reports: 0,
            error: None,
            status: DeviceStatus::Completed,
            attempts: 1,
        };
        let records = vec![
            Record::Header {
                model: "Pixel".into(),
                digest: "x".into(),
                devices: 2,
            },
            // Out of order on purpose: reconstruction sorts by index.
            Record::Outcome {
                index: 1,
                outcome: outcome("b"),
                score: Some(2.0),
                rsd: Some(0.1),
            },
            Record::Note {
                index: 1,
                text: "noise".into(),
            },
            Record::Outcome {
                index: 0,
                outcome: outcome("a"),
                score: Some(1.0),
                rsd: Some(0.1),
            },
            Record::Complete { devices: 2 },
        ];
        let report = SweepReport::from_journal(&records).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.outcomes[0].device, "a");
        assert_eq!(report.outcomes[1].device, "b");
        // No header ⇒ hard error, not a silent empty report.
        assert!(matches!(
            SweepReport::from_journal(&records[1..]),
            Err(JournalError::MissingHeader)
        ));
        assert!(matches!(
            SweepReport::from_journal(&[]),
            Err(JournalError::MissingHeader)
        ));
    }

    #[test]
    fn sweep_outcome_round_trips_through_json() {
        use pv_json::{FromJson, ToJson};
        for o in [
            SweepOutcome {
                device: "ok".into(),
                verdict: Some(Verdict::Degraded),
                accepted: true,
                quarantined: 1,
                fault_reports: 4,
                error: None,
                status: DeviceStatus::Completed,
                attempts: 1,
            },
            SweepOutcome {
                device: "dead".into(),
                verdict: None,
                accepted: false,
                quarantined: 0,
                fault_reports: 2,
                error: Some("device: hotplug flap".into()),
                status: DeviceStatus::Failed,
                attempts: 1,
            },
            SweepOutcome {
                device: "crashed".into(),
                verdict: None,
                accepted: false,
                quarantined: 0,
                fault_reports: 1,
                error: Some("panic: injected session panic".into()),
                status: DeviceStatus::Panicked,
                attempts: 2,
            },
            SweepOutcome {
                device: "stuck".into(),
                verdict: None,
                accepted: false,
                quarantined: 0,
                fault_reports: 1,
                error: Some("session exceeded simulated-time budget of 100 s".into()),
                status: DeviceStatus::TimedOut,
                attempts: 1,
            },
        ] {
            let back = SweepOutcome::from_json(&o.to_json()).unwrap();
            assert_eq!(back, o);
        }
    }

    #[test]
    fn task_len_splits_small_fleets_and_caps_large_ones() {
        // A fleet too small for 64-device tasks still gives every worker
        // several tasks, so small-fleet parallel sweeps run in parallel.
        assert_eq!(task_len(10, 2, 1), 2);
        assert_eq!(task_len(8, 8, 1), 1);
        assert_eq!(task_len(100, 2, 1), 13);
        // Tasks hold whole cohorts.
        assert_eq!(task_len(100, 2, 8), 16);
        assert_eq!(task_len(10, 8, 4), 4);
        // Large fleets run MAX_TASK-device tasks, wide batches included.
        assert_eq!(task_len(1000, 2, 64), MAX_TASK);
        assert_eq!(task_len(4096, 2, 1), MAX_TASK);
        assert_eq!(task_len(100, 2, 128), MAX_TASK);
        assert_eq!(task_len(0, 2, 1), 1);
    }
}
