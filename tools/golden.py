#!/usr/bin/env python3
"""Golden-output manifest: one hash per deterministic bench output.

Runs the deterministic benches of a build directory, hashes what each one
writes, and compares the hashes with the committed GOLDEN.json (--check)
or rewrites that file (--update). A change that is meant to leave every
simulated number alone must pass --check; a change that moves numbers runs
--update and names each changed entry, and why, in CHANGES.md.

Entries:
  smoke/<bench>        the cluster bench's --smoke JSON, without its
                       wall-clock lines ("wall...) and with fig18's host
                       core count ("nproc") zeroed;
  stdout/<bench>       the stdout of a deterministic paper-figure bench
                       (table1_prefetcher_matrix is left out: its
                       ns/decision column is wall-clock);
  micro_hotpath/fingerprint
                       micro_hotpath's fingerprint block (final sim time
                       and hit/miss counts per row);
  leapbench/<workload> the `fingerprint` line of a tiny leapbench run
                       (python3 leapbench/run.py --workload <workload>
                       --seed 7 --seconds 1 --trace 0 --tiny), which pins
                       the benchmark's own simulation. leapbench builds
                       itself from source into .bench_build/, whatever
                       --build names.

Usage:
  python3 tools/golden.py --check  [--build build]
  python3 tools/golden.py --update [--build build]
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(REPO, "GOLDEN.json")

SMOKE_BENCHES = [
    "fig13_cluster",
    "fig15_qos",
    "fig16_failover",
    "fig17_tiering",
    "fig18_scale",
    "fig19_policy_score",
]

FIGURE_BENCHES = [
    "fig01_datapath_stages",
    "fig02_default_latency",
    "fig03_pattern_windows",
    "fig04_eviction_wait",
    "fig07_leap_latency",
    "fig08a_benefit_breakdown",
    "fig08b_slow_storage",
    "fig09_prefetcher_cache",
    "fig10_prefetch_quality",
    "fig11_applications",
    "fig12_cache_size",
    "fig13_concurrent",
    "ablation_params",
]

LEAPBENCH_WORKLOADS = [
    "leap-stride",
    "default-voltdb",
    "cluster-mix",
]

NPROC = re.compile(rb'"nproc": \d+')


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# Longest any one output may take, sanitized builds included (the slowest
# takes about a minute there). A run that reads garbage as a time can
# simulate for ever; this turns that hang into a named failure.
RUN_TIMEOUT_S = 900


def run(argv, cwd=None):
    try:
        result = subprocess.run(argv, stdout=subprocess.PIPE, check=False,
                                cwd=cwd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"golden: {' '.join(argv)} ran past {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        sys.exit(f"golden: {' '.join(argv)} exited {result.returncode}")
    return result.stdout


def smoke_json(path):
    with open(path, "rb") as f:
        lines = [line for line in f.read().splitlines(True)
                 if b'"wall' not in line]
    return NPROC.sub(b'"nproc": 0', b"".join(lines))


def collect(build, scratch):
    hashes = {}
    for bench in SMOKE_BENCHES:
        out = os.path.join(scratch, bench + ".json")
        run([os.path.join(build, bench), "--smoke", out])
        hashes["smoke/" + bench] = sha256(smoke_json(out))
        print(f"  smoke/{bench}", flush=True)
    for bench in FIGURE_BENCHES:
        hashes["stdout/" + bench] = sha256(run([os.path.join(build, bench)]))
        print(f"  stdout/{bench}", flush=True)
    out = os.path.join(scratch, "BENCH_hotpath.json")
    run([os.path.join(build, "micro_hotpath"), out])
    with open(out) as f:
        fingerprint = json.load(f)["fingerprint"]
    hashes["micro_hotpath/fingerprint"] = sha256(
        json.dumps(fingerprint, sort_keys=True).encode())
    print("  micro_hotpath/fingerprint", flush=True)
    for workload in LEAPBENCH_WORKLOADS:
        out = run([sys.executable, os.path.join("leapbench", "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", "0", "--tiny"], cwd=REPO)
        lines = [line for line in out.splitlines()
                 if line.startswith(b"fingerprint ")]
        if len(lines) != 1:
            sys.exit(f"golden: leapbench {workload} printed "
                     f"{len(lines)} fingerprint lines")
        hashes["leapbench/" + workload] = sha256(lines[0])
        print(f"  leapbench/{workload}", flush=True)
    return hashes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="exit 1 unless every output matches GOLDEN.json")
    mode.add_argument("--update", action="store_true",
                      help="rewrite GOLDEN.json from this build")
    parser.add_argument("--build", default=os.path.join(REPO, "build"),
                        help="build directory holding the bench binaries")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        fresh = collect(os.path.abspath(args.build), scratch)
    committed = {}
    if os.path.exists(MANIFEST):
        with open(MANIFEST) as f:
            committed = json.load(f)
    changed = sorted(k for k in fresh.keys() | committed.keys()
                     if fresh.get(k) != committed.get(k))

    if args.update:
        with open(MANIFEST, "w") as f:
            json.dump(fresh, f, indent=2, sort_keys=True)
            f.write("\n")
        for key in changed:
            print(f"updated {key}")
        print(f"GOLDEN.json: {len(fresh)} entries, {len(changed)} changed")
        return 0
    for key in changed:
        print(f"MISMATCH {key}: committed {committed.get(key)}, "
              f"fresh {fresh.get(key)}")
    if changed:
        print(f"{len(changed)} of {len(committed)} golden outputs changed")
        return 1
    print(f"all {len(fresh)} golden outputs match GOLDEN.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
