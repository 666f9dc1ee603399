#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out DIR]

Builds benchmark/ with CMake into .bench_build/ (Release), runs workload W in
its own ddlbench process with every DDL_* environment variable removed, and
writes the run's result file to DIR (default .bench_out/). With --trace 1 it
instead traces every workload at a quarter of the run length, each in its own
process, plus the isolated codelet/layout replays, and writes
DIR/<workload>.trace.json. Without --workload it runs all four workloads.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json, or its
per-layer metrics with --trace 1. Exits non-zero, printing no result, when
the build fails or a workload process does not produce its report.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("incache", "outcache", "stream_rt", "svc_steady")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170  # all workload processes of one result, after the build


class BenchError(Exception):
    pass


def build():
    """Configure once, then build ddlbench incrementally; returns its path."""
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ddlbench"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            raise BenchError(f"build failed: {e}") from e
    return BUILD / "ddlbench"


def ddlbench(binary, name, args, deadline):
    """Run one ddlbench process; echo its report lines, return its JSON.
    `deadline` (time.monotonic) bounds all processes of one run together."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DDL_")}
    try:
        proc = subprocess.run([str(binary), name, *args], capture_output=True, text=True,
                              env=env, timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"{name}: {e}") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: ddlbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(f"[{name}] {line}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"{name}: unreadable report: {e}") from e


def host_block(report):
    """The host as a workload process saw it (cache sizes from sysconf)."""
    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        **{k: report[k] for k in ("l1d_bytes", "l2_bytes", "l3_bytes", "isa")},
    }


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def pick(reports, declared, key, smoke):
    """The `declared` metrics (BENCHMARK.json entries) from the reports' `key`
    maps, checking each unit. Smoke runs skip metrics they do not produce
    (incache planning stops at 2^12); a full run lacking one is an error."""
    merged = {}
    for rep in reports:
        merged.update(rep[key])
    out = {}
    for m in declared:
        got = merged.get(m["name"])
        if got is None:
            if smoke:
                continue
            raise BenchError(f"reports lack metric {m['name']}")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got['unit']}, declared {m['unit']}")
        out[m["name"]] = got
    return out


def run_once(binary, spec, args, workload, out_dir):
    """One result: a workload's end-to-end metrics, or the traced run."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        reports = []
        for w in WORKLOADS:
            trace_file = out_dir / f"{w}.trace.json"
            reports.append(ddlbench(binary, w, [*common, "--trace", "--trace-out", str(trace_file)],
                                    deadline))
        reports.append(ddlbench(binary, "layers", common, deadline))
        metrics = pick(reports, spec["per_layer"], "layers", args.smoke)
        sources = [*WORKLOADS, "layers"]
    else:
        reports = [ddlbench(binary, workload, common, deadline)]
        metrics = pick(reports, spec["end_to_end"], "metrics", args.smoke)
        sources = [workload]
    result = {
        "schema": 1,
        "workload": "trace" if args.trace else workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": bool(args.smoke),
        "host": host_block(reports[0]),
        "commit": commit(),
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
        "determinism": {f"{src}/{k}": v for src, r in zip(sources, reports)
                        for k, v in r["determinism"].items()},
        "errors": [f"{src}: {e}" for src, r in zip(sources, reports) for e in r["errors"]],
    }
    stamp = time.strftime("%Y%m%d-%H%M%S")
    tag = "-smoke" if args.smoke else ""
    path = out_dir / f"{result['workload']}-seed{args.seed}{tag}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 length, one set-up, incache planning capped at 2^12")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = ap.parse_args()

    try:
        binary = build()
        args.out.mkdir(parents=True, exist_ok=True)
        if args.trace or args.workload:
            results = [run_once(binary, spec, args, args.workload, args.out)]
        else:
            results = [run_once(binary, spec, args, w, args.out) for w in names]
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    for r in results:
        for e in r["errors"]:
            print(f"run.py: {e}", file=sys.stderr)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
