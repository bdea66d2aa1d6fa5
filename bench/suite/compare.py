#!/usr/bin/env python3
"""Compare the two sides of a benchmark trajectory file (record.py output).

    python3 bench/suite/compare.py PAIRS.json [MORE.json ...] \\
                                   [--base base] [--head head]

Runs of the two sides are paired by workload, seed and repeat; record.py
runs each pair back to back, alternating which side goes first. One row
per workload and end-to-end metric gives each side's median and
quartiles, the change, the metric's bound from BENCHMARK.json and a
verdict:

  modeled_*    virtual time, deterministic for a seed, so it is compared
               seed by seed: a REGRESSION when any seed is worse than the
               bound. The change column is the worst seed's.
  the rest     host measurements, compared pair by pair: the change is the
               median of the head/base ratios of the pairs. The noise it is
               weighed against is the repeat spread: the quartile distance
               over the median of the base side's own same-seed ratios
               (each later repeat over repeat 0), the ratio an unchanged
               tree would show. UNRESOLVED when that spread is wider than
               the bound, unless every head run beats every base run; else
               a REGRESSION when the change is worse than the bound;
               "better" when the head wins at least 9 in 10 pairs and the
               change is larger than the repeat spread.
  error_rate   failed self-checks (a failed run counts as one) over
               attempted ones on the head side; any failure is a
               REGRESSION.

Exit status 1 when any row is a REGRESSION, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def error_rate(runs):
    attempted = failed = 0
    for r in runs:
        res = r["result"]
        if r["exit"] not in (0, 1) or not res:
            attempted, failed = attempted + 1, failed + 1
        else:
            attempted += res["attempted"]
            failed += res["failed"]
    return failed / attempted if attempted else 0.0


def value(run, metric):
    return run["result"]["metrics"][metric]["value"]


def modeled_verdict(metric, base, head):
    """(change, verdict) comparing each seed's value on both sides."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    per_seed = {}
    for side, runs in (("base", base), ("head", head)):
        for r in runs:
            per_seed.setdefault(r["seed"], {}).setdefault(side, set()).add(
                value(r, metric["name"]))
    changes = []
    for seed, sides in sorted(per_seed.items()):
        if len(sides) < 2:
            continue
        if len(sides["base"]) > 1 or len(sides["head"]) > 1:
            return 0.0, "REGRESSION (seed %d does not repeat)" % seed
        b, h = sides["base"].pop(), sides["head"].pop()
        changes.append(sign * (h - b) / b if b else 0.0)
    if not changes:
        return 0.0, "no common seeds"
    worst = max(changes)
    if worst > metric["bound"]:
        return sign * worst, "REGRESSION"
    return sign * worst, "better" if worst < -metric["bound"] else "ok"


def repeat_spread(runs, name):
    """Quartile distance over median of the same-seed ratios of `runs`
    (one side's): each later repeat of a seed over its repeat 0. None with
    fewer than two such ratios."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["repeat"]] = value(r, name)
    ratios = [v[k] / v[0] for v in by_seed.values() if v.get(0)
              for k in v if k != 0]
    if len(ratios) < 2:
        return None
    q1, med, q3 = quartiles(ratios)
    return (q3 - q1) / med


def host_verdict(metric, pairs, base, head, spread):
    """(change, verdict) from paired runs, each side's samples and the
    base side's repeat spread."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    change = statistics.median(h / b for b, h in pairs) - 1.0
    worse = sign * change
    if spread is None:
        b1, bmed, b3 = quartiles(base)
        spread = (b3 - b1) / bmed if bmed else 0.0
    if spread > bound:
        if max(sign * h for h in head) < min(sign * b for b in base):
            return change, "better"
        return change, "UNRESOLVED (spread %.1f%%)" % (100 * spread)
    if worse > bound:
        return change, "REGRESSION"
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if worse < -spread and wins >= 0.9 * len(pairs):
        return change, "better"
    return change, "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--base", default="base")
    ap.add_argument("--head", default="head")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [r for f in args.files
            for r in json.loads(Path(f).read_text())["runs"]
            if r["trace"] == 0]
    sides = {s: [r for r in runs if r["side"] == s]
             for s in (args.base, args.head)}
    for s, rs in sides.items():
        if not rs:
            sys.exit("compare.py: no untraced runs of side '%s'" % s)

    fatal = False
    row = "%-15s %-20s %11s %-21s %11s %-21s %8s %5s %6s  %s"
    print(row % ("workload", "metric", "base median", "[q1, q3]",
                 "head median", "[q1, q3]", "change", "pairs", "bound",
                 "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        base = [r for r in sides[args.base] if r["workload"] == w]
        head = [r for r in sides[args.head] if r["workload"] == w]
        ok_base = [r for r in base if r["result"]]
        ok_head = [r for r in head if r["result"]]
        if not ok_base or not ok_head:
            print("%-15s no results on the %s side" % (
                w, "base" if not ok_base else "head"))
            fatal = True
            continue
        by_key = {(r["seed"], r["repeat"]): r for r in ok_base}
        paired = [(by_key[(r["seed"], r["repeat"])], r) for r in ok_head
                  if (r["seed"], r["repeat"]) in by_key]
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [value(r, name) for r in ok_base]
            hv = [value(r, name) for r in ok_head]
            if name.startswith("modeled_"):
                change, verdict = modeled_verdict(m, ok_base, ok_head)
            elif paired:
                change, verdict = host_verdict(
                    m, [(value(b, name), value(h, name)) for b, h in paired],
                    bv, hv, repeat_spread(ok_base, name))
            else:
                change, verdict = 0.0, "no pairs"
            fatal = fatal or verdict.startswith("REGRESSION")
            (b1, bmed, b3), (h1, hmed, h3) = quartiles(bv), quartiles(hv)
            print(row % (w, name, "%.5g" % bmed, "[%.5g, %.5g]" % (b1, b3),
                         "%.5g" % hmed, "[%.5g, %.5g]" % (h1, h3),
                         "%+.3f%%" % (100 * change), len(paired),
                         "%g" % m["bound"], verdict))
        be, he = error_rate(base), error_rate(head)
        fatal = fatal or he > 0
        print(row % (w, "error_rate", "%.3g" % be, "", "%.3g" % he, "", "",
                     "", "0", "REGRESSION" if he > 0 else "ok"))
    sys.exit(1 if fatal else 0)


if __name__ == "__main__":
    main()
