#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 leapbench/run.py --workload leap-stride --seed 1 --seconds 10 --trace 0

The first call configures and compiles the simulator and the benchmark binary into
.bench_build/ (CMake + Ninja when available); later calls only re-check the
build. Build output goes to stderr. The benchmark prints human-readable lines
and, as its last line, one JSON object with the run's metrics. The exit
code is non-zero when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "leapbench")
BINARY = os.path.join(BUILD_DIR, "leapbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark binary; returns True on success."""
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, env=env)
    return result.returncode == 0 and os.path.isfile(BINARY)


def main(argv):
    if not build():
        print("leapbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        trace_dir = os.path.join(".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = "-".join(args[args.index(flag) + 1]
                        for flag in ("--workload", "--seed") if flag in args)
        args += ["--trace-out", os.path.join(trace_dir, name + ".json")]
    try:
        return subprocess.run([BINARY] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("leapbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
