#!/usr/bin/env python3
"""Build and run the two-clock CHAOS benchmark (see README.md here).

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/suite/run.py --workload NAME --quick
    python3 bench/suite/run.py --calibrate
    python3 bench/suite/run.py            # every workload, seed 1, 20 s each

The first call configures bench/suite (which adds the repository's own
CMake build) into .bench_build at the repository root and builds the
chaos_bench target; later calls only re-run the incremental build. Build
output goes to stderr. A traced run writes its Chrome trace to
.bench_build/traces/. Each run's last stdout line is the runner's JSON
result, checked against the metric lists in BENCHMARK.json before it is
passed on.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "chaos_bench"
WORKLOADS = ["charmm", "dsmc", "sweep_static", "sweep_adaptive"]
RUN_TIMEOUT_S = 170


def build():
    steps = [["cmake", "--build", str(BUILD), "--target", "chaos_bench",
              "-j", "4"]]
    if not (BUILD / "CMakeCache.txt").exists():
        # The repository build fetches GoogleTest only when no installed
        # copy is found; the benchmark never downloads anything.
        steps.insert(0, ["cmake", "-S", str(ROOT / "bench" / "suite"),
                         "-B", str(BUILD),
                         "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    # The compiler's temporary files stay inside the build directory too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr.fileno(),
                          env=env).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: unexpected result keys %s" % sorted(result))
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        return
    spec = json.loads(spec_file.read_text())
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != listed:
        sys.exit("run.py: printed metrics differ from BENCHMARK.json: "
                 "missing %s, unlisted %s, unit mismatch %s" % (
                     sorted(set(listed) - set(printed)),
                     sorted(set(printed) - set(listed)),
                     sorted(k for k in set(listed) & set(printed)
                            if listed[k] != printed[k])))


def run(args, workload):
    """One chaos_bench call; returns its exit status."""
    cmd = [str(BINARY)]
    if args.calibrate:
        cmd.append("--calibrate")
    else:
        cmd += ["--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / ("%s-seed%d.json" % (workload, args.seed)))]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: chaos_bench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not args.calibrate and proc.returncode in (0, 1) and lines:
        check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: each in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args()

    build()
    if args.calibrate or args.workload:
        sys.exit(run(args, args.workload))
    sys.exit(max(run(args, w) for w in WORKLOADS))


if __name__ == "__main__":
    main()
