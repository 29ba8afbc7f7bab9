#!/usr/bin/env python3
"""Compare two checkouts on the benchmark with alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload certify-wide --pairs 10 --first-seed 701 \\
        --out BENCH_7.json

Pair k runs ``perfbench/run.py --trace 0`` with seed ``first-seed + k`` once
in each checkout, from that checkout's root, parent first on even k and
change first on odd k, so drift of the machine's speed falls on both sides
alike.  ``--workload`` may be repeated.  Each checkout runs its own
``perfbench/``; the run length, the end-to-end metrics and the direction in
which each one is better come from the change's ``BENCHMARK.json``.

The output file holds, per workload and end-to-end metric, each side's
values, median and quartiles, the change's median over the parent's, and
the number of pairs the change won (ties count for neither side), together
with the seeds, the run length and the Python version.  Per workload and
side it also holds each run's wall seconds, process start to exit, and
their sum: round generation and set-up run outside item time, so this is
what an evaluation of the benchmark costs.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple:
    """One benchmark run in a checkout: its result JSON (last line) and
    its wall seconds."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1]), wall


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload and metric: both sides' spreads, the ratio of the
    medians (change / parent) and the pairs the change won.

    ``runs`` holds one dict per run with the keys ``workload``, ``seed``,
    ``side`` ("parent" or "change"), ``result`` (the run's JSON) and
    ``wall_s`` (its wall seconds); ``end_to_end`` is the list of that name
    in ``BENCHMARK.json``."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in mine})
        by = {(r["side"], r["seed"]): r["result"] for r in mine}
        wall = {(r["side"], r["seed"]): r["wall_s"] for r in mine}
        metrics = {}
        for spec in end_to_end:
            name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
            pairs = [(by["parent", s]["metrics"][name]["value"],
                      by["change", s]["metrics"][name]["value"])
                     for s in seeds]
            parent = _spread([p for p, _ in pairs])
            change = _spread([c for _, c in pairs])
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "parent": parent,
                "change": change,
                "ratio": change["median"] / parent["median"],
                "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            }
        out[workload] = {
            "seeds": seeds,
            "correct": all(by[side, s]["correct"]
                           for side in SIDES for s in seeds),
            "metrics": metrics,
            "wall_s": {side: {"values": [wall[side, s] for s in seeds],
                              "sum": sum(wall[side, s] for s in seeds)}
                       for side in SIDES},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=701)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    runs = []
    for workload in args.workload:
        for k in range(args.pairs):
            seed = args.first_seed + k
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                result, wall = run_once(checkouts[side], workload, seed,
                                        spec["run_seconds"])
                runs.append({"workload": workload, "seed": seed,
                             "side": side, "result": result, "wall_s": wall})
                ips = result["metrics"]["items_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: {ips:.1f} items/s, "
                      f"{wall:.1f} s wall", file=sys.stderr)
    args.out.write_text(json.dumps({
        "python": platform.python_version(),
        "seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "workloads": summarize(runs, spec["end_to_end"]),
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
