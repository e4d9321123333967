#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> --trace <0|1>

Builds the `repro` daemon from the workspace and the benchmark binary from
perfbench/ (release, offline) into $CARGO_TARGET_DIR (default
.bench_build), then runs the benchmark with the given arguments. Build
output goes to standard error; the benchmark's standard output, whose last
line is the result object, passes through unchanged. `--workload all` runs
every workload BENCHMARK.json lists, one after another, and fails if any
fails. Exits non-zero without printing a result when the tree cannot be
built.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def workloads(argv):
    """The argument lists to run: one, or one per workload for `all`."""
    at = argv.index("--workload") + 1 if "--workload" in argv else None
    if at is None or argv[at : at + 1] != ["all"]:
        return [argv]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    return [argv[:at] + [name] + argv[at + 1 :] for name in names]


def main():
    os.chdir(ROOT)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("error: no workspace at the repository root to build", file=sys.stderr)
        return 2
    if not build(["-p", "pathfinder-harness", "--bin", "repro"], target):
        print("error: building repro failed", file=sys.stderr)
        return 2
    if not build(["--manifest-path", "perfbench/Cargo.toml"], target):
        print("error: building the benchmark failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    status = 0
    for args in workloads(sys.argv[1:]):
        cmd = [os.path.join(release, "pathfinder-perfbench")] + args
        cmd += ["--repro", os.path.join(release, "repro")]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
