#!/usr/bin/env python3
"""Builds and runs the host-clock benchmark of the HPMP simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/, a cargo package of its own) in release
mode, and for the `bmc` workload also the repository's `hpmp-verify`
binary, whose search counts the benchmark must reproduce. Then runs the
benchmark, whose last line of output is the JSON result. Build output goes
to `$CARGO_TARGET_DIR` (default `.bench_build`). Exits non-zero, printing
no result, when the build or the run fails.
"""

import os
import re
import subprocess
import sys

# Must match `DEPTH` in perfbench/src/workloads/bmc.rs.
BMC_DEPTH = 3


def build(args):
    """Runs `cargo build --release` with `args`; exits on failure."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--quiet", *args], stdout=sys.stderr
    )
    if done.returncode != 0:
        sys.exit(done.returncode)


def bmc_expectations(target):
    """Runs `hpmp-verify bmc` at the benchmark's depth for every flavour and
    returns its counts as `--expect-bmc` arguments."""
    build(["-p", "hpmp-modelcheck", "--bin", "hpmp-verify"])
    verify = os.path.join(target, "release", "hpmp-verify")
    done = subprocess.run(
        [verify, "bmc", "--depth", str(BMC_DEPTH), "--harts", "2", "--flavor", "all"],
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(done.returncode)
    names = {"Penglai-PMP": "pmp", "Penglai-PMPT": "pmpt", "Penglai-HPMP": "hpmp"}
    out = []
    flavor = None
    for line in done.stdout.splitlines():
        m = re.match(r"bmc: flavor=(\S+) ", line)
        if m:
            flavor = names[m.group(1)]
        m = re.match(r"bmc: states-explored=(\d+) states-pruned=(\d+) transitions=(\d+)", line)
        if m and flavor:
            out += ["--expect-bmc", f"{flavor}={','.join(m.groups())}"]
    if len(out) != 2 * len(names):
        sys.stderr.write("cannot read hpmp-verify output:\n" + done.stdout)
        sys.exit(1)
    return out


def main():
    args = sys.argv[1:]
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    extra = bmc_expectations(target) if workload == "bmc" else []
    bench = os.path.join(target, "release", "hpmp-perfbench")
    sys.exit(subprocess.run([bench, *args, *extra]).returncode)


if __name__ == "__main__":
    main()
