//! The benchmark drives the same program path as the `repro` CLI: the
//! golden fingerprints the benchmark checks its default-seed outputs
//! against are re-derived here from a fresh release build of `repro`.
//! Needs the repository around this crate; takes about a minute.

use accubench::journal::fnv64;
use perfbench::golden;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn build_repro(target: &Path) -> PathBuf {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "pv-bench",
            "--bin",
            "repro",
        ])
        .arg("--manifest-path")
        .arg(repo().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building repro failed");
    target.join("release").join("repro")
}

fn stdout_of(repro: &Path, dir: &Path, args: &[&str]) -> Vec<u8> {
    let out = Command::new(repro)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn golden_fingerprints_are_what_the_cli_prints() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let repro = build_repro(&tmp.join("target"));

    let all = stdout_of(&repro, &tmp, &["all", "--json"]);
    assert_eq!(fnv64(&all), golden::PAPER_ALL_JSON, "repro all --json");

    let sweep = stdout_of(
        &repro,
        &tmp,
        &[
            "sweep",
            "--devices",
            "1000",
            "--threads",
            "2",
            "--batch",
            "64",
            "--integrator",
            "exponential",
            "--journal",
            "j",
            "--json",
        ],
    );
    assert_eq!(
        fnv64(&sweep),
        golden::FLEET_SWEEP_JSON,
        "repro sweep --json"
    );
    let journal = std::fs::read(tmp.join("j")).unwrap();
    assert_eq!(
        fnv64(&journal),
        golden::FLEET_SWEEP_JOURNAL,
        "repro sweep journal"
    );

    let census = stdout_of(
        &repro,
        &tmp,
        &[
            "sweep",
            "--quick",
            "--devices",
            "1000000",
            "--sample",
            "4096",
            "--sample-strategy",
            "stratified",
            "--threads",
            "2",
            "--json",
        ],
    );
    assert_eq!(
        fnv64(&census),
        golden::CENSUS_SAMPLED_JSON,
        "repro sweep --sample --json"
    );
}
