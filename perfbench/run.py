#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <paper-repro|fleet-sweep|census-sampled> \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The crate is built in release mode into
$CARGO_TARGET_DIR (default: perfbench/target); `--trace 1` runs the traced
binary, which carries the counting allocator. Build output goes to stderr;
the benchmark's own output, ending in one JSON result line, to stdout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    traced = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            traced = value == "1"
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bins",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(
        os.path.abspath(target), "release", "perfbench-traced" if traced else "perfbench"
    )
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
