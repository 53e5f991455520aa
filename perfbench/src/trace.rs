//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into the library's
//! layers; the library itself is not instrumented. Recording is off unless
//! [`enable`] was called, and a disabled [`span`] costs one relaxed load.
//! Spans stay in memory until the run ends and are then written out once
//! ([`write_json`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Share of a parent span's wall time that may go unattributed to its
/// children (the benchmark's own glue between calls) before the
/// composition check fails.
pub const COMPOSITION_TOLERANCE: f64 = 0.02;

/// Unattributed time any glue scope may have however short it is: the
/// recorder's own bookkeeping for a handful of spans.
pub const COMPOSITION_FLOOR_NS: u64 = 50_000;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `crowd.populate_streamed`.
    pub name: String,
    /// Run id: the repetition the span belongs to.
    pub run: u64,
    /// Recorder-local id of the thread that opened the span.
    pub thread: u64,
    /// Start time, ns since the epoch.
    pub start_ns: u64,
    /// End time, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static RUN: AtomicU64 = AtomicU64::new(0);
/// Parent for spans opened on a thread with no open span of its own — a
/// library worker thread inside a call the benchmark wrapped.
static AMBIENT: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on or off for spans opened from now on.
pub fn enable(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the run id stamped on spans opened from now on.
pub fn set_run(run: u64) {
    RUN.store(run, Ordering::Relaxed);
}

/// An open span; it is recorded when dropped.
#[must_use = "a span covers the scope its guard lives in"]
pub struct Guard {
    /// The open span, and for an ambient span the ambient parent it
    /// replaced (restored on drop).
    open: Option<(Span, Option<u64>)>,
}

/// Opens a span named `name` under the innermost open span of this thread.
pub fn span(name: impl Into<String>) -> Guard {
    open(name, false)
}

/// As [`span`], and also makes the span the parent of spans that worker
/// threads open while it is open (their own stacks are empty).
pub fn span_ambient(name: impl Into<String>) -> Guard {
    open(name, true)
}

fn open(name: impl Into<String>, ambient: bool) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied()).or_else(|| {
        let a = AMBIENT.load(Ordering::Relaxed);
        (a != 0).then_some(a)
    });
    STACK.with(|s| s.borrow_mut().push(id));
    let replaced = ambient.then(|| AMBIENT.swap(id, Ordering::Relaxed));
    let span = Span {
        id,
        parent,
        name: name.into(),
        run: RUN.load(Ordering::Relaxed),
        thread: THREAD.with(|t| *t),
        start_ns: now_ns(),
        end_ns: 0,
    };
    Guard {
        open: Some((span, replaced)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((mut span, replaced)) = self.open.take() else {
            return;
        };
        span.end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&span.id) {
                s.pop();
            }
        });
        if let Some(previous) = replaced {
            AMBIENT.store(previous, Ordering::Relaxed);
        }
        // A poisoned recorder only loses spans; never panic in drop.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Removes and returns every span recorded so far, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = match SPANS.lock() {
        Ok(mut g) => std::mem::take(&mut *g),
        Err(p) => std::mem::take(&mut *p.into_inner()),
    };
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

fn same_thread_child_sums(spans: &[Span]) -> HashMap<u64, u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut sums: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            if p.thread == s.thread {
                *sums.entry(p.id).or_insert(0) += s.wall_ns();
            }
        }
    }
    sums
}

/// The composition check. For every span, its same-thread children must
/// not cover more than its own wall time (nothing is counted twice). For
/// every span whose name is in `glue_only` — a benchmark scope whose body
/// is nothing but calls into layers — its same-thread children must
/// account for its wall time within [`COMPOSITION_TOLERANCE`] (or
/// [`COMPOSITION_FLOOR_NS`], whichever is larger).
///
/// # Errors
///
/// Returns one line per violating span.
pub fn check_composition(spans: &[Span], glue_only: &[&str]) -> Result<(), String> {
    let sums = same_thread_child_sums(spans);
    let mut problems = Vec::new();
    for s in spans {
        let wall = s.wall_ns();
        let covered = sums.get(&s.id).copied().unwrap_or(0);
        // 1 µs of slack for timer granularity at the boundaries.
        if covered > wall + 1_000 {
            problems.push(format!(
                "{} (run {}): children cover {covered} ns > wall {wall} ns",
                s.name, s.run
            ));
        }
        let unattributed = wall.saturating_sub(covered);
        let allowed = (COMPOSITION_TOLERANCE * wall as f64).max(COMPOSITION_FLOOR_NS as f64);
        if glue_only.contains(&s.name.as_str()) && unattributed as f64 > allowed {
            problems.push(format!(
                "{} (run {}): {unattributed} of {wall} ns not covered by layer spans \
                 (tolerance {:.0}% or {} µs)",
                s.name,
                s.run,
                COMPOSITION_TOLERANCE * 100.0,
                COMPOSITION_FLOOR_NS / 1_000
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Writes `spans` as one JSON array to `path`.
///
/// # Errors
///
/// Returns the I/O error from writing the file.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":{},\"run\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            pv_json::Json::String(s.name.clone()).to_string_compact(),
            s.run,
            s.thread,
            s.start_ns,
            s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}
