#!/usr/bin/env python3
"""Self-test for the benchmark: tiny versions of every workload.

Run from the repository root:

    python3 leapbench/selftest.py

For each workload it makes two untraced tiny runs and one traced tiny run,
and checks that
  - every run reports correct results and exits 0;
  - every metric name matches [A-Za-z0-9_.-]+ and carries a unit;
  - fail_frac is reported (as served_frac = 1 - fail_frac, and on its own
    line);
  - the two untraced runs give identical sim-clock metrics and identical
    simulation fingerprints, and the traced run's fingerprint matches;
  - the metric names printed are the ones BENCHMARK.json and
    leapbench/metrics.json declare.
Exits non-zero on the first failure.
"""
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = "7"


def tiny_run(workload, trace):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", SEED, "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (workload, out.returncode,
                                                   out.stderr))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = [l for l in lines if l.startswith("fingerprint ")]
    if len(fingerprint) != 1:
        raise AssertionError("%s: no fingerprint line" % workload)
    return result, fingerprint[0], out.stdout


def check(ok, what):
    if not ok:
        raise AssertionError(what)


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    root = os.path.dirname(run.BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(run.BENCH_DIR, "metrics.json")) as f:
        described = json.load(f)
    clock = {m["name"]: m["clock"]
             for m in described["end_to_end"] + described["per_layer"]}
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    check(set(clock) == set(e2e) | set(layer),
          "metrics.json describes exactly the metrics BENCHMARK.json lists")
    check(sorted(w["name"] for w in bench["workloads"]) ==
          sorted(described["workloads"]),
          "metrics.json describes every workload")

    for workload in (w["name"] for w in bench["workloads"]):
        first, fp1, text = tiny_run(workload, 0)
        second, fp2, _ = tiny_run(workload, 0)
        traced, fp3, _ = tiny_run(workload, 1)
        for result in (first, second, traced):
            check(result["correct"] is True, "%s: correct" % workload)
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s: attempted/failed" % workload)
            for name, metric in result["metrics"].items():
                check(NAME.match(name) is not None, "metric name %r" % name)
                check(isinstance(metric["value"], (int, float)),
                      "%s: numeric value" % name)
                check(bool(metric.get("unit")), "%s: has a unit" % name)
        # Tiny runs may omit a tail percentile that lacks 10 samples beyond.
        check(set(first["metrics"]) <= set(e2e) and
              set(e2e) - set(first["metrics"]) <= {"remote_p999_ns"},
              "%s: end-to-end metric names" % workload)
        check(set(traced["metrics"]) == set(layer),
              "%s: per-layer metric names" % workload)
        check("served_frac" in first["metrics"] and "fail_frac=" in text,
              "%s: fail_frac reported" % workload)
        sim = {k: v for k, v in first["metrics"].items()
               if clock[k] == "sim"}
        check(sim and sim == {k: second["metrics"][k] for k in sim},
              "%s: identical sim-clock metrics across runs" % workload)
        check(fp1 == fp2 == fp3, "%s: identical fingerprints" % workload)
        print("selftest %s: ok (%s)" % (workload, fp1.split(": ")[-1]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("selftest FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
