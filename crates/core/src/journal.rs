//! Crash-safe, self-healing write-ahead run journal for long sweeps.
//!
//! The paper's methodology (and the ROADMAP's million-handset north star)
//! rests on *large completed batches* of sessions. A killed process must
//! not discard hours of finished work, so every fleet sweep can write a
//! durable, append-only journal:
//!
//! * one line per [`Record`], encoded as compact JSON;
//! * each line carries its own FNV-64 checksum, so any torn or flipped
//!   byte is detected on re-open;
//! * every append is `fsync`ed before the sweep moves on — a record either
//!   survives a crash whole, or not at all;
//! * [`Journal::open`] performs truncated-tail recovery: the valid prefix
//!   is kept, the torn tail (if any) is dropped and physically truncated,
//!   and the journal is ready to append again. Recovery reads in bounded
//!   chunks, so resuming a multi-gigabyte journal does not spike memory.
//!
//! All I/O goes through the [`crate::storage`] seam, which is what makes
//! the journal *provably* durable rather than hopefully so: the
//! crash-consistency torture harness runs whole sweeps on an in-memory
//! backend, crashes them at every I/O boundary, and asserts resume heals
//! the journal byte-identically. The same seam injects storage faults —
//! and the journal recovers instead of aborting:
//!
//! * transient errors (injected transient `EIO`, short writes, real
//!   `EINTR`) are retried with bounded simulated-time backoff, after
//!   repairing any partial tail the failed write left behind;
//! * persistent errors (`ENOSPC`, persistent `EIO`) quarantine the
//!   poisoned segment and **rotate**: the journal continues in a fresh
//!   `<path>.seg1`, `<path>.seg2`, … file, preserving the sealed prefix.
//!   [`Journal::open`] transparently reads a rotated chain back as one
//!   record stream. [`StoragePolicy`] bounds both budgets, and
//!   [`StorageHealth`] reports what the healing machinery actually did;
//! * when every budget is exhausted the append finally errors, and the
//!   sweep's storage escalation decides between degrading and aborting
//!   (see [`crate::crowd::populate_parallel`]).
//!
//! [`fsck`] is the offline half: it scans a journal chain read-only,
//! reporting per-segment torn bytes, header/completeness, and duplicate
//! outcomes (`repro fsck` wires it to the command line; repair is just
//! [`Journal::open`], which truncates torn tails and re-syncs).
//!
//! The record stream is: a [`Record::Header`] binding the journal to one
//! sweep configuration (via [`fnv64`] digest), per-device
//! [`Record::Outcome`]s (with the submitted score, so a resumed run can
//! rebuild the crowd database bit-identically), optional
//! [`Record::Note`]s for quarantine/fault events, and a final
//! [`Record::Complete`] marker. See
//! [`crate::crowd::populate_journaled`] for the consumer.
//!
//! [`CancelToken`] is the cooperative-cancellation half: a SIGINT/SIGTERM
//! handler (or a test) flips it, in-flight sweep chunks finish, journal
//! their devices, and return cleanly with `complete = false`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::crowd::SweepOutcome;
use crate::storage::{classify, FaultClass, Storage, StorageFile, StorageHealth, StoragePolicy};
use crate::supervise::DeviceStatus;
use core::fmt;
use pv_json::{FromJson, Json, ToJson};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// 64-bit FNV-1a over `bytes` — the journal's (and the export manifest's)
/// content checksum. Not cryptographic; it detects torn writes and bit
/// flips, which is all a single-writer journal needs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors from journal I/O, recovery and resume validation.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure — after the journal's own retry and
    /// rotation budgets were exhausted, for append-path errors.
    Io(std::io::Error),
    /// A record failed its checksum or did not parse. Recovery stops at
    /// the last valid record; this variant is only returned when a caller
    /// demands a fully-valid journal (e.g. [`Journal::read_records`] never
    /// returns it — it recovers — but decoding a single line can).
    Corrupt {
        /// One-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// `--resume` pointed at a journal written by a *different* sweep:
    /// the config digest in the header does not match the requested run.
    DigestMismatch {
        /// Digest recorded in the journal header.
        journaled: String,
        /// Digest of the sweep being resumed.
        requested: String,
    },
    /// The journal has records but no leading header — it was not written
    /// by a sweep (or the header itself was torn away).
    MissingHeader,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            JournalError::DigestMismatch {
                journaled,
                requested,
            } => write!(
                f,
                "journal belongs to a different sweep (journaled config digest \
                 {journaled}, requested {requested}); refusing to resume"
            ),
            JournalError::MissingHeader => {
                write!(f, "journal has records but no sweep header")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One journaled event.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// First record of every journal: binds it to one sweep.
    Header {
        /// Device model being swept.
        model: String,
        /// [`fnv64`] digest (hex) of the sweep config + device labels;
        /// resume refuses to continue a journal whose digest differs.
        digest: String,
        /// Number of devices the sweep will run.
        devices: usize,
    },
    /// One device finished (with a verdict or a fatal error).
    Outcome {
        /// Zero-based device index within the sweep.
        index: usize,
        /// What happened to the device.
        outcome: SweepOutcome,
        /// The submitted mean score, when the session produced one —
        /// needed so a resumed run can re-populate the crowd database.
        score: Option<f64>,
        /// The submitted iteration-to-iteration RSD, when present.
        rsd: Option<f64>,
    },
    /// Free-form quarantine / fault-log annotation for one device.
    Note {
        /// Zero-based device index the note concerns.
        index: usize,
        /// Human-readable description.
        text: String,
    },
    /// One supervised attempt failed (panic, watchdog trip, or fatal
    /// session error). A device that later succeeds on retry keeps its
    /// failed attempts on the record; a quarantined device's last
    /// supervision record explains the hole in the fleet.
    Supervision {
        /// Zero-based device index the attempt belonged to.
        index: usize,
        /// One-based attempt number within the device's retry budget.
        attempt: u32,
        /// How the attempt ended (never [`DeviceStatus::Completed`]).
        status: DeviceStatus,
        /// Deterministic one-line failure description.
        detail: String,
    },
    /// The sweep ran every device; the journal is final.
    Complete {
        /// Number of devices that were journaled.
        devices: usize,
    },
}

impl ToJson for Record {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        match self {
            Record::Header {
                model,
                digest,
                devices,
            } => {
                obj.insert("t", "header".to_json());
                obj.insert("model", model.to_json());
                obj.insert("digest", digest.to_json());
                obj.insert("devices", devices.to_json());
            }
            Record::Outcome {
                index,
                outcome,
                score,
                rsd,
            } => {
                obj.insert("t", "outcome".to_json());
                obj.insert("index", index.to_json());
                obj.insert("outcome", outcome.to_json());
                obj.insert("score", score.to_json());
                obj.insert("rsd", rsd.to_json());
            }
            Record::Note { index, text } => {
                obj.insert("t", "note".to_json());
                obj.insert("index", index.to_json());
                obj.insert("text", text.to_json());
            }
            Record::Supervision {
                index,
                attempt,
                status,
                detail,
            } => {
                obj.insert("t", "supervision".to_json());
                obj.insert("index", index.to_json());
                obj.insert("attempt", attempt.to_json());
                obj.insert("status", status.to_json());
                obj.insert("detail", detail.to_json());
            }
            Record::Complete { devices } => {
                obj.insert("t", "complete".to_json());
                obj.insert("devices", devices.to_json());
            }
        }
        obj
    }
}

impl FromJson for Record {
    fn from_json(value: &Json) -> Option<Self> {
        match value.get("t")?.as_str()? {
            "header" => Some(Record::Header {
                model: String::from_json(value.get("model")?)?,
                digest: String::from_json(value.get("digest")?)?,
                devices: usize::from_json(value.get("devices")?)?,
            }),
            "outcome" => Some(Record::Outcome {
                index: usize::from_json(value.get("index")?)?,
                outcome: SweepOutcome::from_json(value.get("outcome")?)?,
                score: <Option<f64>>::from_json(value.get("score")?)?,
                rsd: <Option<f64>>::from_json(value.get("rsd")?)?,
            }),
            "note" => Some(Record::Note {
                index: usize::from_json(value.get("index")?)?,
                text: String::from_json(value.get("text")?)?,
            }),
            "supervision" => Some(Record::Supervision {
                index: usize::from_json(value.get("index")?)?,
                attempt: u32::from_json(value.get("attempt")?)?,
                status: DeviceStatus::from_json(value.get("status")?)?,
                detail: String::from_json(value.get("detail")?)?,
            }),
            "complete" => Some(Record::Complete {
                devices: usize::from_json(value.get("devices")?)?,
            }),
            _ => None,
        }
    }
}

/// Encodes one record as its durable line: 16 hex checksum chars, a
/// space, compact JSON, newline.
pub fn encode_line(record: &Record) -> String {
    let payload = record.to_json().to_string_compact();
    format!("{:016x} {payload}\n", fnv64(payload.as_bytes()))
}

/// Decodes one line (without its trailing newline) back into a record,
/// verifying the checksum.
///
/// # Errors
///
/// Returns a static description of the first problem found: a malformed
/// frame, a checksum mismatch, or an unparseable payload.
pub fn decode_line(line: &str) -> Result<Record, &'static str> {
    let (sum, payload) = line.split_at_checked(16).ok_or("line shorter than frame")?;
    let payload = payload.strip_prefix(' ').ok_or("missing frame separator")?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| "malformed checksum")?;
    if sum != fnv64(payload.as_bytes()) {
        return Err("checksum mismatch");
    }
    let json = Json::from_str(payload).map_err(|_| "payload is not valid json")?;
    Record::from_json(&json).ok_or("payload is not a journal record")
}

/// Chunk size for streaming recovery reads. Small enough to keep resume
/// memory flat for arbitrarily large journals, large enough to amortise
/// per-read overhead.
const SCAN_CHUNK: usize = 64 * 1024;

/// Upper bound on a single journal line during recovery. Real records are
/// a few hundred bytes (the largest Notes carry a capped backtrace); a
/// "line" growing past this is garbage with no newline, and recovery
/// treats it as the torn tail instead of buffering it.
const MAX_LINE: usize = 4 * 1024 * 1024;

/// Outcome of scanning one journal segment.
struct Scan {
    records: Vec<Record>,
    /// End-of-line byte offset of each valid record.
    ends: Vec<u64>,
    /// Total bytes in the segment (valid prefix + torn tail).
    total: u64,
}

impl Scan {
    fn valid_len(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }
}

/// Streams a segment through [`decode_line`] in [`SCAN_CHUNK`]-sized
/// reads, holding at most one incomplete line in memory. Stops collecting
/// at the first incomplete or invalid line but keeps reading to learn the
/// segment's total length (recovery needs to know how much tail to drop).
fn scan_file(file: &mut dyn StorageFile) -> std::io::Result<Scan> {
    file.seek_to(0)?;
    let mut scan = Scan {
        records: Vec::new(),
        ends: Vec::new(),
        total: 0,
    };
    let mut carry: Vec<u8> = Vec::new();
    let mut consumed: u64 = 0;
    let mut valid = true;
    let mut buf = vec![0u8; SCAN_CHUNK];
    loop {
        let n = file.read_chunk(&mut buf)?;
        if n == 0 {
            break;
        }
        scan.total += n as u64;
        if !valid {
            continue; // only counting the tail now
        }
        let mut chunk = &buf[..n];
        while let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            let (head, rest) = chunk.split_at(nl);
            chunk = &rest[1..];
            let line_len = (carry.len() + head.len() + 1) as u64;
            let record = {
                let line: &[u8] = if carry.is_empty() {
                    head
                } else {
                    carry.extend_from_slice(head);
                    &carry
                };
                core::str::from_utf8(line)
                    .ok()
                    .and_then(|s| decode_line(s).ok())
            };
            carry.clear();
            match record {
                Some(record) => {
                    consumed += line_len;
                    scan.records.push(record);
                    scan.ends.push(consumed);
                }
                None => {
                    valid = false;
                    break;
                }
            }
        }
        if valid {
            carry.extend_from_slice(chunk);
            if carry.len() > MAX_LINE {
                valid = false;
                carry = Vec::new();
            }
        }
    }
    Ok(scan)
}

/// Scans raw journal bytes, returning the valid record prefix and the
/// byte length it covers. Stops at the first incomplete line (no trailing
/// newline), checksum failure, or unparseable payload — everything after
/// is the torn tail. The slice twin of the streaming scan inside
/// [`Journal::open`]; the fuzz suite asserts the two always agree.
pub fn scan_bytes(bytes: &[u8]) -> (Vec<Record>, u64) {
    let (records, ends) = recover(bytes);
    let valid_len = ends.last().copied().unwrap_or(0);
    (records, valid_len)
}

/// Path of rotation segment `n` of the journal at `base` (`n >= 1`):
/// `<base>.seg<n>`.
fn segment_path(base: &Path, n: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".seg{n}"));
    PathBuf::from(os)
}

/// An append-only, fsync-on-append write-ahead journal with bounded
/// self-healing (transient-error retry, poisoned-segment rotation) behind
/// the [`crate::storage`] seam.
#[derive(Debug)]
pub struct Journal {
    storage: Storage,
    /// Open handle on the *active* (last) segment.
    file: Box<dyn StorageFile>,
    base: PathBuf,
    /// All segment paths, `[0]` being `base`. More than one only after
    /// rotation quarantined a poisoned segment.
    segments: Vec<PathBuf>,
    /// Committed valid length of the active segment — the repair point
    /// retries truncate back to before re-writing a failed batch.
    active_len: u64,
    recovered: Vec<Record>,
    /// `(segment index, end-of-line offset within that segment)` for each
    /// recovered record — lets
    /// [`truncate_recovered`](Self::truncate_recovered) cut the chain at
    /// an exact record boundary.
    record_locs: Vec<(usize, u64)>,
    dropped_bytes: u64,
    policy: StoragePolicy,
    health: StorageHealth,
}

impl Journal {
    /// Opens (or creates) the journal at `path` on the real filesystem,
    /// recovering its valid prefix. Any torn tail — a half-written line, a
    /// checksum failure, a record that does not parse — is physically
    /// truncated away, so the file is again a clean append target. Records
    /// *after* the first invalid one within a segment are dropped even if
    /// they look valid: a write-ahead log is only trustworthy up to its
    /// first tear. Rotation segments (`<path>.seg1`, …) are discovered,
    /// recovered the same way, and read back as one record stream.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be opened, read
    /// or truncated.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        Self::open_with(Storage::os(), path)
    }

    /// [`Journal::open`] over an arbitrary storage backend — the torture
    /// harness passes a crash-simulating in-memory backend, the chaos
    /// tests and `repro sweep --storage-faults` a fault-injecting one.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be opened, read
    /// or truncated.
    pub fn open_with(storage: Storage, path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let base = path.as_ref().to_path_buf();
        let mut segments = vec![base.clone()];
        loop {
            let next = segment_path(&base, segments.len());
            if storage.exists(&next) {
                segments.push(next);
            } else {
                break;
            }
        }
        let mut recovered = Vec::new();
        let mut record_locs = Vec::new();
        let mut dropped = 0u64;
        let mut active: Option<(Box<dyn StorageFile>, u64)> = None;
        let last = segments.len() - 1;
        for (si, seg) in segments.iter().enumerate() {
            let mut file = storage.open(seg)?;
            let scan = scan_file(file.as_mut())?;
            let valid_len = scan.valid_len();
            if scan.total > valid_len {
                file.set_len(valid_len)?;
                file.sync_data()?;
                dropped += scan.total - valid_len;
            }
            record_locs.extend(scan.ends.iter().map(|&e| (si, e)));
            recovered.extend(scan.records);
            if si == last {
                file.seek_to(valid_len)?;
                active = Some((file, valid_len));
            }
        }
        let Some((file, active_len)) = active else {
            // Unreachable: `segments` always has at least the base entry.
            return Err(JournalError::Io(std::io::Error::other(
                "journal has no active segment",
            )));
        };
        Ok(Self {
            storage,
            file,
            base,
            segments,
            active_len,
            recovered,
            record_locs,
            dropped_bytes: dropped,
            policy: StoragePolicy::default(),
            health: StorageHealth::default(),
        })
    }

    /// Replaces the self-healing budget (retries, backoff, rotation cap).
    pub fn with_policy(mut self, policy: StoragePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// What the self-healing machinery has done on this handle so far.
    pub fn health(&self) -> &StorageHealth {
        &self.health
    }

    /// The records recovered when the journal was opened (empty for a
    /// fresh journal).
    pub fn recovered(&self) -> &[Record] {
        &self.recovered
    }

    /// Bytes of torn tail dropped during recovery at open (across all
    /// segments).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// The journal's segment paths, base first. More than one only after
    /// rotation.
    pub fn segments(&self) -> &[PathBuf] {
        &self.segments
    }

    /// Physically truncates the journal back to its first `keep` recovered
    /// records (a no-op when `keep` covers them all), removing later
    /// rotation segments and re-syncing so the cut survives a crash.
    ///
    /// A device's records are appended as one batch ending in its
    /// [`Record::Outcome`] — the *commit point* resume keys on. A tear can
    /// still land inside the batch, leaving valid `Supervision`/`Note`
    /// lines with no sealing outcome; the sweep's resume path uses this to
    /// drop those dangling lines before re-running the device, which
    /// re-emits them and keeps the healed journal byte-identical to an
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be truncated,
    /// removed or synced.
    pub fn truncate_recovered(&mut self, keep: usize) -> Result<(), JournalError> {
        if keep >= self.recovered.len() {
            return Ok(());
        }
        let (seg, end) = if keep == 0 {
            (0, 0)
        } else {
            self.record_locs[keep - 1]
        };
        while self.segments.len() > seg + 1 {
            if let Some(stale) = self.segments.pop() {
                self.storage.remove_file(&stale)?;
            }
        }
        let mut file = self.storage.open(&self.segments[seg])?;
        file.set_len(end)?;
        file.sync_data()?;
        file.seek_to(end)?;
        self.file = file;
        self.active_len = end;
        self.recovered.truncate(keep);
        self.record_locs.truncate(keep);
        Ok(())
    }

    /// The journal's (base) path.
    pub fn path(&self) -> &Path {
        &self.base
    }

    /// Appends one record and syncs it to disk before returning — after
    /// this call the record survives a crash.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write or sync failure, after the
    /// retry and rotation budgets of the journal's [`StoragePolicy`] are
    /// exhausted.
    pub fn append(&mut self, record: &Record) -> Result<(), JournalError> {
        self.append_all(core::slice::from_ref(record))
    }

    /// Appends a batch of records with a **single** write and fsync — the
    /// parallel sweep's writer thread uses this to commit a device's
    /// note + outcome pair (and any burst of buffered out-of-order
    /// completions) at one durability point instead of paying per-record
    /// sync latency. Byte layout is identical to appending one by one, so
    /// recovery and resume cannot tell the difference; a crash mid-batch
    /// leaves a torn tail that recovery truncates as usual.
    ///
    /// The batch commits atomically with respect to the self-healing
    /// machinery too: a transient failure repairs the partial tail and
    /// re-writes the *whole* batch; rotation re-writes it from the start
    /// of the fresh segment.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write or sync failure, after the
    /// retry and rotation budgets are exhausted.
    pub fn append_all(&mut self, records: &[Record]) -> Result<(), JournalError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for record in records {
            buf.push_str(&encode_line(record));
        }
        self.commit(buf.as_bytes())
    }

    /// Writes and syncs one encoded batch, healing as it goes: transient
    /// errors get up to `max_retries` in-place retries (booking simulated
    /// backoff, never sleeping), persistent errors — or exhausted
    /// retries — quarantine the active segment and rotate to a fresh one
    /// while the segment budget lasts.
    fn commit(&mut self, buf: &[u8]) -> Result<(), JournalError> {
        let mut retries = 0u32;
        let mut backoff = self.policy.backoff_start_s;
        loop {
            let err = match self
                .file
                .write_all(buf)
                .and_then(|()| self.file.sync_data())
            {
                Ok(()) => {
                    self.active_len += buf.len() as u64;
                    return Ok(());
                }
                Err(e) => e,
            };
            if classify(&err) == FaultClass::Transient && retries < self.policy.max_retries {
                retries += 1;
                self.health.retries += 1;
                self.health.backoff_sim_s += backoff;
                backoff *= 2.0;
                self.repair_tail();
                continue;
            }
            if self.rotate(&err) {
                retries = 0;
                backoff = self.policy.backoff_start_s;
            } else {
                return Err(JournalError::Io(err));
            }
        }
    }

    /// Best-effort: cut the active segment back to its committed length
    /// and re-seat the cursor, so retrying a failed batch cannot duplicate
    /// a partial prefix the failure left behind. Failures are swallowed —
    /// if the tail cannot be repaired the retry will fail again and
    /// escalate to rotation, whose fresh segment has no tail to corrupt.
    fn repair_tail(&mut self) {
        let _ = self.file.set_len(self.active_len);
        let _ = self.file.seek_to(self.active_len);
    }

    /// Quarantines the active segment (sealing whatever valid prefix it
    /// holds) and opens the next `<base>.segN` as the new append target.
    /// Creation itself gets the transient-retry courtesy; returns `false`
    /// when the segment budget is exhausted or the fresh segment cannot be
    /// established.
    fn rotate(&mut self, cause: &std::io::Error) -> bool {
        if self.segments.len() as u32 >= self.policy.max_segments {
            return false;
        }
        // Seal the poisoned segment's committed prefix as well as the
        // medium allows; its torn tail (if the repair fails too) is cut
        // by recovery on the next open.
        self.repair_tail();
        let _ = self.file.sync_data();
        let next = segment_path(&self.base, self.segments.len());
        for _ in 0..=self.policy.max_retries {
            match self.storage.create(&next) {
                Ok(file) => {
                    self.health.rotations += 1;
                    self.health.events.push(format!(
                        "segment {} poisoned ({cause}); rotated to {}",
                        self.segments[self.segments.len() - 1].display(),
                        next.display(),
                    ));
                    self.file = file;
                    self.active_len = 0;
                    self.segments.push(next);
                    return true;
                }
                Err(e) if classify(&e) == FaultClass::Transient => {
                    self.health.retries += 1;
                    continue;
                }
                Err(_) => return false,
            }
        }
        false
    }

    /// Reads and recovers a journal chain without opening it for append
    /// (no truncation happens; torn tails are simply ignored).
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be read.
    pub fn read_records(path: impl AsRef<Path>) -> Result<Vec<Record>, JournalError> {
        Self::read_records_with(&Storage::os(), path)
    }

    /// [`Journal::read_records`] over an arbitrary storage backend.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be read.
    pub fn read_records_with(
        storage: &Storage,
        path: impl AsRef<Path>,
    ) -> Result<Vec<Record>, JournalError> {
        let base = path.as_ref();
        let mut records = scan_bytes(&storage.read(base)?).0;
        let mut n = 1;
        loop {
            let seg = segment_path(base, n);
            if !storage.exists(&seg) {
                break;
            }
            records.extend(scan_bytes(&storage.read(&seg)?).0);
            n += 1;
        }
        Ok(records)
    }
}

/// Scans raw journal bytes, returning the valid record prefix and each
/// record's end-of-line byte offset. Stops at the first incomplete line
/// (no trailing newline), checksum failure, or unparseable payload.
fn recover(bytes: &[u8]) -> (Vec<Record>, Vec<u64>) {
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut start = 0usize;
    while start < bytes.len() {
        let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') else {
            break; // incomplete final line: torn tail
        };
        let end = start + nl;
        let Ok(line) = core::str::from_utf8(&bytes[start..end]) else {
            break;
        };
        let Ok(record) = decode_line(line) else {
            break;
        };
        records.push(record);
        ends.push((end + 1) as u64);
        start = end + 1;
    }
    (records, ends)
}

// ---------------------------------------------------------------------------
// fsck — offline verification of a journal chain.
// ---------------------------------------------------------------------------

/// What [`fsck`] found in one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentFsck {
    /// The segment's path.
    pub path: PathBuf,
    /// Valid records in the segment.
    pub records: usize,
    /// Bytes covered by valid records.
    pub valid_bytes: u64,
    /// Torn/corrupt tail bytes after the last valid record.
    pub torn_bytes: u64,
}

/// Result of verifying a journal chain read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Per-segment breakdown, base segment first.
    pub segments: Vec<SegmentFsck>,
    /// Total valid records across the chain.
    pub records: usize,
    /// How many of them are device outcomes.
    pub outcomes: usize,
    /// Outcome records whose device index repeats an earlier one — only
    /// possible if a partially-committed batch survived next to its
    /// rotated re-commit; harmless to resume (keyed by index) but worth
    /// reporting.
    pub duplicate_outcomes: usize,
    /// Whether the chain starts with a sweep header.
    pub has_header: bool,
    /// Whether a final completion marker is present.
    pub complete: bool,
    /// Total torn bytes across all segments.
    pub torn_bytes: u64,
}

impl FsckReport {
    /// A clean journal: no torn bytes anywhere, and either empty or
    /// properly headed. (An *incomplete* journal is still clean — it is
    /// exactly what `--resume` consumes.)
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0
            && (self.records == 0 || self.has_header)
            && self.duplicate_outcomes == 0
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for seg in &self.segments {
            write!(
                f,
                "  {}: {} record(s), {} valid byte(s)",
                seg.path.display(),
                seg.records,
                seg.valid_bytes
            )?;
            if seg.torn_bytes > 0 {
                write!(f, ", {} torn byte(s)", seg.torn_bytes)?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "  {} record(s), {} outcome(s), header {}, {}",
            self.records,
            self.outcomes,
            if self.has_header {
                "present"
            } else {
                "missing"
            },
            if self.complete {
                "complete"
            } else {
                "incomplete"
            }
        )?;
        if self.duplicate_outcomes > 0 {
            write!(f, ", {} duplicate outcome(s)", self.duplicate_outcomes)?;
        }
        Ok(())
    }
}

/// Verifies the journal chain at `path` on the real filesystem without
/// modifying it. Repairing is [`Journal::open`]: it truncates every torn
/// tail and syncs the cuts.
///
/// # Errors
///
/// Returns [`JournalError::Io`] when a segment cannot be read.
pub fn fsck(path: impl AsRef<Path>) -> Result<FsckReport, JournalError> {
    fsck_with(&Storage::os(), path)
}

/// [`fsck`] over an arbitrary storage backend.
///
/// # Errors
///
/// Returns [`JournalError::Io`] when a segment cannot be read.
pub fn fsck_with(storage: &Storage, path: impl AsRef<Path>) -> Result<FsckReport, JournalError> {
    let base = path.as_ref();
    let mut report = FsckReport {
        segments: Vec::new(),
        records: 0,
        outcomes: 0,
        duplicate_outcomes: 0,
        has_header: false,
        complete: false,
        torn_bytes: 0,
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut n = 0;
    loop {
        let seg = if n == 0 {
            base.to_path_buf()
        } else {
            segment_path(base, n)
        };
        if n > 0 && !storage.exists(&seg) {
            break;
        }
        let bytes = storage.read(&seg)?;
        let (records, valid_len) = scan_bytes(&bytes);
        let torn = bytes.len() as u64 - valid_len;
        report.torn_bytes += torn;
        for record in &records {
            match record {
                Record::Header { .. } if report.records == 0 => report.has_header = true,
                Record::Outcome { index, .. } => {
                    report.outcomes += 1;
                    if !seen.insert(*index) {
                        report.duplicate_outcomes += 1;
                    }
                }
                Record::Complete { .. } => report.complete = true,
                _ => {}
            }
            report.records += 1;
        }
        report.segments.push(SegmentFsck {
            path: seg,
            records: records.len(),
            valid_bytes: valid_len,
            torn_bytes: torn,
        });
        n += 1;
    }
    Ok(report)
}

/// Cooperative cancellation: clone it into whatever should stop, flip it
/// from a signal handler (via [`CancelToken::from_static`]) or another
/// thread, and long-running sweeps finish their in-flight chunks, journal
/// them, and return with `complete = false`.
#[derive(Debug, Clone)]
pub struct CancelToken(Flag);

#[derive(Debug, Clone)]
enum Flag {
    Shared(Arc<AtomicBool>),
    Static(&'static AtomicBool),
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(Flag::Shared(Arc::new(AtomicBool::new(false))))
    }

    /// Wraps a `static AtomicBool` so an async-signal-safe handler
    /// (SIGINT/SIGTERM) can flip the token with a single atomic store.
    pub fn from_static(flag: &'static AtomicBool) -> Self {
        CancelToken(Flag::Static(flag))
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        match &self.0 {
            Flag::Shared(f) => f.store(true, Ordering::SeqCst),
            Flag::Static(f) => f.store(true, Ordering::SeqCst),
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        match &self.0 {
            Flag::Shared(f) => f.load(Ordering::SeqCst),
            Flag::Static(f) => f.load(Ordering::SeqCst),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::session::Verdict;
    use crate::storage::{FaultyStorage, MemStorage, TempDir};
    use pv_faults::{FaultEvent, FaultKind, FaultPlan};

    fn outcome(device: &str) -> SweepOutcome {
        SweepOutcome {
            device: device.to_owned(),
            verdict: Some(Verdict::Valid),
            accepted: true,
            quarantined: 0,
            fault_reports: 2,
            error: None,
            status: DeviceStatus::Completed,
            attempts: 1,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Header {
                model: "Pixel".into(),
                digest: "00ff".into(),
                devices: 2,
            },
            Record::Outcome {
                index: 0,
                outcome: outcome("a"),
                score: Some(101.5),
                rsd: Some(0.8),
            },
            Record::Note {
                index: 0,
                text: "2 fault(s)".into(),
            },
            Record::Supervision {
                index: 1,
                attempt: 1,
                status: DeviceStatus::Panicked,
                detail: "panic: injected session panic".into(),
            },
            Record::Outcome {
                index: 1,
                outcome: SweepOutcome {
                    device: "b".into(),
                    verdict: None,
                    accepted: false,
                    quarantined: 3,
                    fault_reports: 1,
                    error: Some("device: hotplug flap".into()),
                    status: DeviceStatus::Failed,
                    attempts: 2,
                },
                score: None,
                rsd: None,
            },
            Record::Complete { devices: 2 },
        ]
    }

    fn mem_storage() -> (MemStorage, Storage) {
        let mem = MemStorage::new();
        let storage = Storage::new(std::sync::Arc::new(mem.clone()));
        (mem, storage)
    }

    fn event(at: f64, duration: f64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at,
            duration,
            kind,
            magnitude: 0.0,
        }
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn records_round_trip_through_lines() {
        for record in sample_records() {
            let line = encode_line(&record);
            assert!(line.ends_with('\n'));
            let back = decode_line(line.trim_end()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn journal_appends_and_recovers_all_records() {
        let dir = TempDir::new("journal-roundtrip");
        let path = dir.file("run.journal");
        let records = sample_records();
        {
            let mut j = Journal::open(&path).unwrap();
            assert!(j.recovered().is_empty());
            for r in &records {
                j.append(r).unwrap();
            }
            assert!(j.health().is_clean(), "no faults, no healing");
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        assert_eq!(j.dropped_bytes(), 0);
        assert_eq!(j.segments().len(), 1);
    }

    #[test]
    fn flipped_checksum_byte_rejects_record_and_stops_recovery() {
        let dir = TempDir::new("journal-flip");
        let path = dir.file("run.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a checksum hex digit of the second record.
        let second = bytes
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| i + 1)
            .unwrap();
        bytes[second] = if bytes[second] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, &bytes).unwrap();
        // Recovery keeps only the header: records after the corrupt line
        // are dropped even though they would decode.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered().len(), 1);
        assert!(matches!(j.recovered()[0], Record::Header { .. }));
        assert!(j.dropped_bytes() > 0);
        // The file was physically truncated to the valid prefix.
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after.len() as u64, bytes.len() as u64 - j.dropped_bytes());
    }

    #[test]
    fn mid_record_truncation_drops_the_tail_cleanly() {
        let dir = TempDir::new("journal-tear");
        let path = dir.file("run.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        // Cut in the middle of the final record's payload.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered().len(), sample_records().len() - 1);
        // After recovery, appending works and the re-appended record lands
        // exactly where the torn one was.
        let mut j = j;
        j.append(&Record::Complete { devices: 2 }).unwrap();
        drop(j);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }

    #[test]
    fn truncate_recovered_drops_unsealed_trailing_records() {
        let dir = TempDir::new("journal-unseal");
        let path = dir.file("run.journal");
        let records = sample_records();
        {
            let mut j = Journal::open(&path).unwrap();
            // Header, Outcome(0), Note(0), Supervision(1) — the batch for
            // device 1 was torn after its Supervision line, before the
            // sealing Outcome landed.
            j.append_all(&records[..4]).unwrap();
        }
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered().len(), 4);
        // Keeping everything is a no-op (as is keeping more than exists).
        j.truncate_recovered(9).unwrap();
        assert_eq!(j.recovered().len(), 4);
        // Drop the dangling Supervision record; the file shrinks to the
        // exact byte boundary so a re-run re-appends identically.
        j.truncate_recovered(3).unwrap();
        assert_eq!(j.recovered(), &records[..3]);
        j.append_all(&records[3..]).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        // Truncating to zero empties the file.
        let mut j = j;
        j.truncate_recovered(0).unwrap();
        assert!(j.recovered().is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn append_all_matches_one_by_one_byte_for_byte() {
        let dir = TempDir::new("journal-batch");
        let (one, batch) = (dir.file("one"), dir.file("batch"));
        let records = sample_records();
        {
            let mut j = Journal::open(&one).unwrap();
            for r in &records {
                j.append(r).unwrap();
            }
        }
        {
            let mut j = Journal::open(&batch).unwrap();
            j.append_all(&[]).unwrap(); // empty batch is a no-op
            j.append_all(&records).unwrap();
        }
        assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&batch).unwrap());
        let j = Journal::open(&batch).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
    }

    #[test]
    fn chunked_recovery_handles_journals_larger_than_one_chunk() {
        // Well past one SCAN_CHUNK (64 KiB) so recovery crosses several
        // chunk boundaries, including ones that split a line mid-frame.
        let (_, storage) = mem_storage();
        let path = std::path::Path::new("big.journal");
        let records: Vec<Record> = (0..1500)
            .map(|i| Record::Note {
                index: i,
                text: format!("padding padding padding padding {i}"),
            })
            .collect();
        {
            let mut j = Journal::open_with(storage.clone(), path).unwrap();
            j.append_all(&records).unwrap();
        }
        let total: usize = records.iter().map(|r| encode_line(r).len()).sum();
        assert!(total > 2 * SCAN_CHUNK, "test must span multiple chunks");
        let j = Journal::open_with(storage.clone(), path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        assert_eq!(j.dropped_bytes(), 0);
        // Stream scan agrees with the slice scan.
        assert_eq!(scan_bytes(&storage.read(path).unwrap()).0, records);
    }

    #[test]
    fn transient_errors_are_retried_away_without_corruption() {
        let (mem, inner) = mem_storage();
        // Ops: 0 create, 1 write(header), 2 sync, then a transient window
        // over the next batch's write + first retry.
        let plan = FaultPlan::empty().with_event(event(3.0, 2.0, FaultKind::StorageEioTransient));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let records = sample_records();
        let mut j = Journal::open_with(storage, path).unwrap();
        j.append(&records[0]).unwrap();
        j.append_all(&records[1..]).unwrap();
        assert_eq!(j.health().retries, 1);
        assert_eq!(j.health().rotations, 0);
        assert!(j.health().backoff_sim_s > 0.0);
        assert_eq!(j.segments().len(), 1);
        // The healed journal is byte-identical to an unfaulted one.
        let (_, clean) = mem_storage();
        let mut c = Journal::open_with(clean.clone(), path).unwrap();
        c.append(&records[0]).unwrap();
        c.append_all(&records[1..]).unwrap();
        assert_eq!(
            mem.file_bytes(path).unwrap(),
            clean.read(path).unwrap(),
            "retried journal must match the unfaulted byte stream"
        );
    }

    #[test]
    fn short_write_repairs_tail_before_retrying() {
        let (mem, inner) = mem_storage();
        // The short write lands a partial prefix of the batch; the retry
        // must truncate it away or the journal would hold duplicate bytes.
        let plan = FaultPlan::empty().with_event(event(3.0, 1.0, FaultKind::StorageShortWrite));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let records = sample_records();
        let mut j = Journal::open_with(storage, path).unwrap();
        j.append(&records[0]).unwrap();
        j.append_all(&records[1..]).unwrap();
        assert_eq!(j.health().retries, 1);
        let expected: String = records.iter().map(encode_line).collect();
        assert_eq!(mem.file_bytes(path).unwrap(), expected.as_bytes());
    }

    #[test]
    fn persistent_failure_rotates_to_a_fresh_segment() {
        let (mem, inner) = mem_storage();
        // Persistent EIO on the second batch's write, then the window
        // "ends" — but persistent EIO never clears, so only rotation (a
        // fresh segment = different disk region, modelled by the fault
        // plan ending) can save the journal. Use a *bounded transient*
        // window longer than the retry budget instead: retries exhaust,
        // rotation succeeds once the window closes.
        let plan = FaultPlan::empty().with_event(event(3.0, 6.0, FaultKind::StorageEioTransient));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let records = sample_records();
        let mut j = Journal::open_with(storage.clone(), path)
            .unwrap()
            .with_policy(StoragePolicy {
                max_retries: 2,
                ..StoragePolicy::default()
            });
        j.append(&records[0]).unwrap();
        j.append_all(&records[1..]).unwrap();
        assert_eq!(j.health().rotations, 1, "{:?}", j.health());
        assert_eq!(j.segments().len(), 2);
        assert!(j.health().events[0].contains("rotated"));
        drop(j);
        // Reopening reads the chain back as one stream …
        let j = Journal::open_with(storage, path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        // … and the rotated segment holds the full re-committed batch.
        let seg1 = segment_path(path, 1);
        let expected: String = records[1..].iter().map(encode_line).collect();
        assert_eq!(mem.file_bytes(&seg1).unwrap(), expected.as_bytes());
    }

    #[test]
    fn exhausted_budgets_surface_the_io_error() {
        let (_, inner) = mem_storage();
        let plan = FaultPlan::empty().with_event(event(1.0, 1.0, FaultKind::StorageEioPersistent));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let mut j = Journal::open_with(storage, path).unwrap();
        let err = j.append(&Record::Complete { devices: 0 }).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)));
        assert!(format!("{err}").contains("persistent"));
    }

    #[test]
    fn truncate_recovered_spans_rotated_segments() {
        let (_, inner) = mem_storage();
        let plan = FaultPlan::empty().with_event(event(3.0, 6.0, FaultKind::StorageEioTransient));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let records = sample_records();
        {
            let mut j = Journal::open_with(storage.clone(), path)
                .unwrap()
                .with_policy(StoragePolicy {
                    max_retries: 2,
                    ..StoragePolicy::default()
                });
            j.append(&records[0]).unwrap();
            j.append_all(&records[1..]).unwrap();
            assert_eq!(j.segments().len(), 2);
        }
        let mut j = Journal::open_with(storage.clone(), path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        // Cut back to the first record: the rotated segment must be
        // removed entirely and the base truncated.
        j.truncate_recovered(1).unwrap();
        assert_eq!(j.recovered(), &records[..1]);
        assert_eq!(j.segments().len(), 1);
        assert!(!storage.exists(&segment_path(path, 1)));
        // Appending after the cut keeps a single consistent stream.
        j.append_all(&records[1..]).unwrap();
        drop(j);
        let j = Journal::open_with(storage, path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
    }

    #[test]
    fn fsck_reports_clean_and_dirty_journals() {
        let dir = TempDir::new("journal-fsck");
        let path = dir.file("run.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let report = fsck(&path).unwrap();
        assert!(report.is_clean());
        assert!(report.has_header);
        assert!(report.complete);
        assert_eq!(report.records, sample_records().len());
        assert_eq!(report.outcomes, 2);
        assert_eq!(report.duplicate_outcomes, 0);
        let text = format!("{report}");
        assert!(text.contains("header present"));
        assert!(text.contains("complete"));
        // Tear the tail: fsck flags it; repair (= open) heals it.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let report = fsck(&path).unwrap();
        assert!(!report.is_clean());
        assert!(report.torn_bytes > 0);
        assert!(format!("{report}").contains("torn"));
        drop(Journal::open(&path).unwrap());
        assert!(fsck(&path).unwrap().is_clean());
    }

    #[test]
    fn fsck_flags_headerless_journals() {
        let dir = TempDir::new("journal-fsck-headerless");
        let path = dir.file("run.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&Record::Complete { devices: 1 }).unwrap();
        }
        let report = fsck(&path).unwrap();
        assert!(!report.has_header);
        assert!(!report.is_clean());
        assert!(format!("{report}").contains("header missing"));
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        assert!(decode_line("short").is_err());
        assert!(decode_line("zzzzzzzzzzzzzzzz {\"t\":\"complete\",\"devices\":1}").is_err());
        let good = encode_line(&Record::Complete { devices: 1 });
        let no_sep = good.trim_end().replacen(' ', "", 1);
        assert!(decode_line(&no_sep).is_err());
        // Valid checksum over a payload that is not a record.
        let payload = "[1,2,3]";
        let line = format!("{:016x} {payload}", fnv64(payload.as_bytes()));
        assert_eq!(decode_line(&line), Err("payload is not a journal record"));
        // Valid checksum over invalid JSON.
        let payload = "{broken";
        let line = format!("{:016x} {payload}", fnv64(payload.as_bytes()));
        assert_eq!(decode_line(&line), Err("payload is not valid json"));
    }

    #[test]
    fn cancel_token_flips_once_and_shares() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        static FLAG: AtomicBool = AtomicBool::new(false);
        let s = CancelToken::from_static(&FLAG);
        assert!(!s.is_cancelled());
        FLAG.store(true, Ordering::SeqCst);
        assert!(s.is_cancelled());
        s.cancel(); // idempotent
        assert!(s.is_cancelled());
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn errors_display_with_context() {
        use std::error::Error as _;
        let e = JournalError::Corrupt {
            line: 3,
            reason: "checksum mismatch",
        };
        assert!(format!("{e}").contains("line 3"));
        assert!(e.source().is_none());
        let e = JournalError::DigestMismatch {
            journaled: "aa".into(),
            requested: "bb".into(),
        };
        assert!(format!("{e}").contains("refusing to resume"));
        let e = JournalError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
        assert!(format!("{}", JournalError::MissingHeader).contains("header"));
    }
}
