//! Cooperative SIGINT/SIGTERM handling for the CLI binaries.
//!
//! Shared between the `src/bin/*` targets via `#[path]` include (it must
//! not live in `src/bin/` itself, where cargo would auto-discover it as a
//! binary, and it cannot live in the library, which forbids unsafe code).
//!
//! The handler only performs async-signal-safe operations — one atomic
//! store, one `write(2)` to stderr, two `signal(2)` calls — and the sweep
//! loop polls the flag between tasks through a [`CancelToken`]: the
//! in-flight work (a sweep's chunks of up to 64 devices, or a lone
//! session) finishes, its outcomes are journaled, and the process exits
//! cleanly so a later `--resume` picks up exactly where it stopped. The
//! handler announces this ("press Ctrl-C again to abort immediately") and
//! restores the default disposition, so a second Ctrl-C while the
//! in-flight work drains kills the process immediately (the journal stays
//! valid: recovery drops any torn tail).

use accubench::journal::CancelToken;
use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{Ordering, INTERRUPTED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;
    const STDERR: i32 = 2;

    // `signal`'s handler argument is pointer-sized and also carries the
    // sentinel SIG_DFL (0), so it is declared as usize rather than a fn
    // pointer (Rust fn pointers cannot be null).
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: one atomic store, one raw write(2) (eprintln!
        // would allocate and lock — both forbidden in a handler), no locks.
        INTERRUPTED.store(true, Ordering::SeqCst);
        const MSG: &[u8] =
            b"\ninterrupt: finishing in-flight work (press Ctrl-C again to abort immediately)\n";
        unsafe {
            // Best-effort: a full pipe or closed stderr must not stall the
            // handler, so the return value is deliberately ignored.
            let _ = write(STDERR, MSG.as_ptr(), MSG.len());
            // Second signal falls through to the default (terminating)
            // disposition.
            signal(SIGINT, SIG_DFL);
            signal(SIGTERM, SIG_DFL);
        }
    }

    pub fn install() {
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handler (reinstalling is harmless) and
/// returns the token the sweep loop polls.
pub fn install() -> CancelToken {
    imp::install();
    CancelToken::from_static(&INTERRUPTED)
}
