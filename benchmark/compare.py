#!/usr/bin/env python3
"""Compare two sets of benchmark results, or summarize one (stdlib only).

    python3 benchmark/compare.py BASE CHANGE
    python3 benchmark/compare.py summarize DIR [-o FILE]

BASE and CHANGE are directories of run.py result files (k runs of each
commit), or summary files written by `summarize` such as
benchmark/results/baseline.json. For every workload x end-to-end metric the
comparison prints each side's median and quartiles, the ratio with its base,
and a verdict using the metric's direction and bound from BENCHMARK.json:

  worse       the change's median is worse by more than the bound, and the
              runs resolve it: both quartile spreads are within the bound,
              or every change run is worse than every base run
  better      the change wins at least 9/10 of all base x change run pairs
              and the medians differ by more than the base's quartile spread
  unresolved  a quartile spread exceeds the bound and the runs overlap
  unchanged   otherwise

Exit status: 0 clean; 1 on any "worse", a higher failure fraction, or
determinism values that differ between runs of one commit and seed; 2 when
the inputs are refused (smoke results, mixed seeds, hosts or run lengths).
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Refused(Exception):
    pass


def load(path):
    """Result records from a directory of run files or a summary file."""
    path = Path(path)
    if path.is_dir():
        runs = [json.loads(f.read_text()) for f in sorted(path.glob("*.json"))
                if not f.name.endswith(".trace.json")]
    else:
        runs = json.loads(path.read_text())["runs"]
    runs = [r for r in runs if r.get("schema") == 1]
    if not runs:
        raise Refused(f"{path}: no result files")
    if any(r["smoke"] for r in runs):
        raise Refused(f"{path}: smoke results are not measurements")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_workload(runs):
    """{workload: {metric: [values]}} over untraced runs."""
    out = defaultdict(lambda: defaultdict(list))
    for r in runs:
        if not r["trace"]:
            for name, m in r["metrics"].items():
                out[r["workload"]][name].append(m["value"])
    return out


def check_determinism(runs, label):
    """Runs of one commit, workload, seed and mode must agree exactly."""
    groups = defaultdict(list)
    for r in runs:
        commit = r["commit"] if r["commit"] != "unknown" else label
        groups[(commit, r["workload"], r["seed"], r["trace"])].append(r["determinism"])
    problems = []
    for key, dets in groups.items():
        for d in dets[1:]:
            for k in sorted(set(d) | set(dets[0])):
                if d.get(k) != dets[0].get(k):
                    problems.append(f"{key[1]} seed {key[2]}: {k} = {dets[0].get(k)!r} vs {d.get(k)!r}")
    return problems


def verdict(base, change, better, bound):
    mb, mc = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mc - mb) / mb
    q1b, _, q3b = quartiles(base)
    q1c, _, q3c = quartiles(change)
    spread = max((q3b - q1b) / mb, (q3c - q1c) / mc)
    diffs = [sign * (c - b) for b in base for c in change]  # > 0: change worse
    all_worse = all(d > 0 for d in diffs)
    all_better = all(d < 0 for d in diffs)
    if worse_by > bound:
        return "worse" if spread <= bound or all_worse else "unresolved"
    if sum(d < 0 for d in diffs) >= 0.9 * len(diffs) and abs(mc - mb) > q3b - q1b:
        return "better"
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    return "unchanged"


def fmt(v):
    return f"{v:.6g}"


def compare(spec, base_runs, change_runs):
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base_runs + change_runs}
    if len(hosts) > 1:
        raise Refused("results come from different hosts: " + " | ".join(sorted(hosts)))
    if len({r["seconds"] for r in base_runs + change_runs}) > 1:
        raise Refused("results use different run lengths")
    for w in {r["workload"] for r in base_runs + change_runs}:
        sb = sorted(r["seed"] for r in base_runs if r["workload"] == w)
        sc = sorted(r["seed"] for r in change_runs if r["workload"] == w)
        if set(sb) != set(sc):
            raise Refused(f"{w}: seeds differ (base {sb}, change {sc})")

    status = 0
    problems = check_determinism(base_runs, "base") + check_determinism(change_runs, "change")
    for p in problems:
        print(f"determinism: {p}")
        status = 1

    base, change = by_workload(base_runs), by_workload(change_runs)
    header = f"{'workload':<11} {'metric':<12} {'base median [q1, q3]':<34} " \
             f"{'change median [q1, q3]':<34} {'change/base':<26} verdict"
    print(header)
    print("-" * len(header))
    for w in sorted(set(base) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            b, c = base[w].get(name), change[w].get(name)
            if not b or not c:
                continue
            q1b, mb, q3b = quartiles(b)
            q1c, mc, q3c = quartiles(c)
            v = verdict(b, c, m["better"], m["bound"])
            if v == "worse":
                status = 1
            print(f"{w:<11} {name:<12} {fmt(mb) + ' [' + fmt(q1b) + ', ' + fmt(q3b) + ']':<34} "
                  f"{fmt(mc) + ' [' + fmt(q1c) + ', ' + fmt(q3c) + ']':<34} "
                  f"{fmt(mc / mb) + ' of ' + fmt(mb) + ' ' + m['unit']:<26} {v}"
                  f" (n={len(b)}/{len(c)}, bound {m['bound']:g})")

    for w in sorted(set(base) & set(change)):
        def frac(runs):
            att = sum(r["attempted"] for r in runs if r["workload"] == w)
            return sum(r["failed"] for r in runs if r["workload"] == w) / max(1, att)
        fb, fc = frac(base_runs), frac(change_runs)
        if fc > fb:
            print(f"{w}: failure fraction rose from {fb:g} to {fc:g}")
            status = 1
    return status


def summarize(runs):
    stats = {}
    for w, metrics in sorted(by_workload(runs).items()):
        units = {}
        for r in runs:
            if r["workload"] == w and not r["trace"]:
                units.update({k: m["unit"] for k, m in r["metrics"].items()})
        stats[w] = {}
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            stats[w][name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "values": values}
    return {
        "host": runs[0]["host"],
        "commits": sorted({r["commit"] for r in runs}),
        "seconds": runs[0]["seconds"],
        "runs_per_workload": {w: sum(1 for r in runs if r["workload"] == w and not r["trace"])
                              for w in stats},
        "summary": stats,
        "runs": runs,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = sys.argv[1:]
    try:
        if argv and argv[0] == "summarize":
            ap = argparse.ArgumentParser(prog="compare.py summarize")
            ap.add_argument("dir")
            ap.add_argument("-o", "--output")
            args = ap.parse_args(argv[1:])
            runs = load(args.dir)
            problems = check_determinism(runs, "runs")
            if problems:
                for p in problems:
                    print(f"determinism: {p}", file=sys.stderr)
                return 1
            text = json.dumps(summarize(runs), indent=1) + "\n"
            if args.output:
                Path(args.output).write_text(text)
            else:
                sys.stdout.write(text)
            return 0
        ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        ap.add_argument("base")
        ap.add_argument("change")
        args = ap.parse_args(argv)
        return compare(spec, load(args.base), load(args.change))
    except Refused as e:
        print(f"compare.py: refused: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
