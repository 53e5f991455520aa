//! Recorded output fingerprints (`accubench::journal::fnv64`) for the
//! default seed, taken from the `repro` CLI itself. `tests/cli.rs`
//! re-derives each one from a fresh `repro` build, so a benchmark run that
//! matches them produced byte-for-byte what the CLI prints.

/// stdout of `repro all --json`.
pub const PAPER_ALL_JSON: u64 = 0x9eaa_e115_917c_0075;

/// stdout of `repro sweep --devices 1000 --threads 2 --batch 64
/// --integrator exponential --journal j --json`.
pub const FLEET_SWEEP_JSON: u64 = 0x3f43_50b0_8100_e601;

/// The journal `j` that same command writes.
pub const FLEET_SWEEP_JOURNAL: u64 = 0x5f93_0586_015a_3aca;

/// stdout of `repro sweep --quick --devices 1000000 --sample 4096
/// --sample-strategy stratified --threads 2 --json`.
pub const CENSUS_SAMPLED_JSON: u64 = 0xaa3d_a46a_4874_65ed;
