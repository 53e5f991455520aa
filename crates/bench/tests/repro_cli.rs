//! Command-line parsing of the `repro` binary: an unknown flag, a value
//! flag with no value, and a value that is itself a flag each fail with an
//! error naming the flag, before any experiment or sweep runs. Each case
//! drives the real binary (`CARGO_BIN_EXE_repro`) in its own temp dir.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `repro args…` with a fresh temp dir as its working directory.
fn repro(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pv-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    (out, dir)
}

/// Asserts a non-zero exit whose stderr names the problem.
fn assert_rejected(tag: &str, args: &[&str], message: &str) -> PathBuf {
    let (out, dir) = repro(tag, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert!(
        stderr.contains(message),
        "{args:?}: stderr lacks {message:?}:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    dir
}

#[test]
fn unknown_flag_is_rejected() {
    let dir = assert_rejected(
        "unknown",
        &["sweep", "--thread", "2"],
        "unknown option: --thread",
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn value_flag_without_a_value_is_rejected() {
    let dir = assert_rejected(
        "missing",
        &["sweep", "--devices"],
        "--devices requires a value",
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flag_is_not_taken_as_a_value() {
    let dir = assert_rejected(
        "flag-value",
        &["sweep", "--journal", "--resume"],
        "--journal requires a value, got --resume",
    );
    assert!(
        !dir.join("--resume").exists(),
        "a journal named --resume was written"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn list_prints_the_experiments() {
    let (out, dir) = repro("list", &["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l == "table1"), "{stdout}");
    assert!(stdout.lines().any(|l| l == "governor"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}
