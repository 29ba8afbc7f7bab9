#!/usr/bin/env python3
"""Record the output digests that runs compare round 0 against.

    python3 perfbench/record_digests.py

For every workload and each of its ``workloads.RECORDED`` recorded rounds,
runs the round, requires every item to pass its own check, and writes the
digest of each item's canonical output JSON to ``perfbench/digests.json``.
Record only from code whose outputs are known good: a run then fails any
item whose output differs by a byte.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.load_library()
    table = {}
    for name, (gen, runner) in sorted(workloads.WORKLOADS.items()):
        table[name] = {}
        for seed in range(workloads.RECORDED):
            digests = []
            for item in gen(lib, workloads.round_rng(name, seed, 0)):
                ok, doc = runner(lib, item)
                if not ok:
                    print(f"{name} seed {seed}: an item fails its check",
                          file=sys.stderr)
                    return 1
                digests.append(workloads.digest(doc))
            table[name][str(seed)] = digests
            print(name, seed, file=sys.stderr)
    (run.HERE / "digests.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
