#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <paper_corpus|daemon_mix|edit_loop> \
        --seed N --seconds S --trace <0|1>

It builds the benchmark (a cargo package of its own in this directory)
and the `pumpkin` binary the `daemon_mix` workload serves from, both in
release mode and offline, into `$CARGO_TARGET_DIR` (default
`.bench_build`). Build output goes to standard error; the benchmark's
result is the last line of standard output. The exit code is the
benchmark's, or the first failing build step's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode


def main():
    target = os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    bench_manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.exists(root_manifest):
        print("perfbench: no Cargo.toml at the repository root", file=sys.stderr)
        return 2
    for manifest, extra in ((root_manifest, ["--bin", "pumpkin"]),
                            (bench_manifest, [])):
        code = build(manifest, *extra)
        if code != 0:
            print(f"perfbench: build of {manifest} failed", file=sys.stderr)
            return code or 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "pumpkin-perfbench"), *sys.argv[1:],
           "--pumpkin", os.path.join(release, "pumpkin"),
           "--out", os.path.join(HERE, "out")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
