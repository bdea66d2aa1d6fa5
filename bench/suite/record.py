#!/usr/bin/env python3
"""Record a benchmark trajectory file: every workload on N seeds, R
untraced runs per seed and one traced run, for one or two source trees.

    python3 bench/suite/record.py OUT.json                    # this tree
    python3 bench/suite/record.py OUT.json --side base=PARENT --side head=.

Each run is one `run.py --workload W --seed S --seconds T --trace 0|1`
call in a side's tree, with T = BENCHMARK.json's run_seconds. With two
sides the runs alternate: for each workload, seed and repeat, both sides
run back to back, and which side goes first alternates, so slow stretches
of the host fall on both sides alike. Each tree builds its own
.bench_build before the first run.

The file lists every run, one per line, and per side, workload and
end-to-end metric the quartiles of its untraced runs over all seeds, and
the repeat spread compare.py weighs changes against (the quartile
distance over the median of same-seed ratios, repeat k over repeat 0). A
full record of one side takes about 45 minutes.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare import repeat_spread, value

ROOT = Path(__file__).resolve().parents[2]


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/suite/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def summary(runs, metric):
    values = [value(r, metric) for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "repeat_spread": repeat_spread(runs, metric)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--side", action="append", metavar="NAME=DIR",
                    help="a source tree to measure (at most two; "
                         "default base=this tree)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()
    sides = dict(s.split("=", 1) for s in args.side or ["base=%s" % ROOT])
    if not 1 <= len(sides) <= 2:
        ap.error("give one or two distinct --side NAME=DIR")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))

    for name, tree in sides.items():
        print("building %s (%s)" % (name, tree), file=sys.stderr)
        exit_code, _ = run_once(tree, "sweep_static", 1, 0.1, 0)
        if exit_code != 0:
            sys.exit("record.py: %s does not build or run" % tree)

    order = list(sides)
    plan = [(w, s, r, 0) for w in workloads for s in seeds
            for r in range(args.repeats)]
    if not args.no_trace:
        plan += [(w, s, 0, 1) for w in workloads for s in seeds]
    runs = []
    for i, (workload, seed, repeat, trace) in enumerate(plan):
        for name in (order if i % 2 == 0 else order[::-1]):
            exit_code, result = run_once(sides[name], workload, seed,
                                         seconds, trace)
            print("  %-5s %-15s seed %-3d repeat %d trace %d exit %d" % (
                name, workload, seed, repeat, trace, exit_code),
                  file=sys.stderr)
            runs.append({"side": name, "workload": workload, "seed": seed,
                         "repeat": repeat, "trace": trace,
                         "exit": exit_code, "result": result})

    spreads = {}
    for name in sides:
        for w in workloads:
            ok = [r for r in runs
                  if r["side"] == name and r["workload"] == w
                  and r["trace"] == 0 and r["result"]]
            if len(ok) < 2:
                continue
            spreads.setdefault(name, {})[w] = {
                m["name"]: summary(ok, m["name"]) for m in spec["end_to_end"]}
    head = {"run_seconds": seconds, "seeds": seeds, "repeats": args.repeats,
            "sides": list(sides), "spread": spreads}
    text = json.dumps(head, indent=1)[:-2]
    text += ',\n "runs": [\n' + ",\n".join(json.dumps(r) for r in runs)
    Path(args.out).write_text(text + "\n ]\n}\n")
    failed = sum(1 for r in runs if r["exit"] != 0 or not r["result"])
    print("wrote %s (%d failed runs)" % (args.out, failed), file=sys.stderr)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
