#!/usr/bin/env python3
"""Check the library's outputs against every recorded benchmark digest.

    python3 scripts/check_digests.py

Reruns all ``RECORDED`` recorded rounds of every benchmark workload with
the library under ``src/``, exactly as ``perfbench/run.py`` runs round 0,
and compares each item's output digest with ``perfbench/digests.json``.
Prints the counts per workload and exits 1 if any item fails its own
check, raises, or has an output that differs from the recorded one.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it was
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  perfbench/run.py
import workloads  # noqa: E402


def check(lib, name: str, recorded: dict) -> tuple[int, int, int]:
    """Items, failed checks and digest mismatches over all recorded
    rounds of one workload."""
    gen, runner = workloads.WORKLOADS[name]
    items = failed = mismatched = 0
    for seed in range(workloads.RECORDED):
        want = recorded[str(seed)]
        got = gen(lib, workloads.round_rng(name, seed, 0))
        if len(got) != len(want):
            print(f"{name} round {seed}: {len(got)} items, "
                  f"{len(want)} recorded", file=sys.stderr)
            mismatched += 1
        for i, (item, digest) in enumerate(zip(got, want)):
            items += 1
            try:
                ok, doc = runner(lib, item)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                failed += 1
                print(f"{name} round {seed} item {i}: fails its check",
                      file=sys.stderr)
            elif workloads.digest(doc) != digest:
                mismatched += 1
                print(f"{name} round {seed} item {i}: digest differs",
                      file=sys.stderr)
    return items, failed, mismatched


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    lib = run.load_library()
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    bad = 0
    for name in sorted(workloads.WORKLOADS):
        items, failed, mismatched = check(lib, name, digests[name])
        print(f"{name}: {items} items, {items - failed - mismatched} match, "
              f"{failed} failed, {mismatched} mismatched")
        bad += failed + mismatched
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
