#!/usr/bin/env python3
"""skeletron benchmark: one closed-loop caller, four seeded workloads.

    python3 perfbench/run.py --workload certify-wide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One caller sends one item at a time and waits for its result, in
one process with no threads.  A run measures whole rounds of items (see
``workloads.py``) until ``--seconds`` have passed, checks every output, and
prints one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics, with every time in reference
seconds (see ``machine_speed``).  ``--trace 1`` runs every item twice,
untraced and then with every layer wrapped (``tracer.py``), reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/trace-<workload>-<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import sys
import traceback
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave the checkout as it was
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Where load_library looks for bytecode: a directory nothing writes, so
# every import of skeletron compiles it from source, and set-up time does not
# depend on whether src/skeletron/__pycache__ exists.
NO_BYTECODE = ROOT / ".bench_out" / "no-bytecode"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 8  # set-ups timed before the run, and again after it
MODULES = ("newton", "points", "skeleton", "slopes", "stable", "oracle",
           "randfix", "io_json")

# Machine speed.  The speed of the shared machine this benchmark was built
# on drifts by up to 2x over tens of seconds, so raw wall times of two runs
# of the same code differ by 20-50%.  The runner therefore measures the
# machine between items with a fixed reference loop and reports every time
# in reference seconds: wall seconds times the measured speed over
# REFERENCE_RATE.  The loop is the benchmark's own code, so a change to the
# library moves reported times in the same proportion as wall times.  CPU
# time (time.process_time) does not help: it spreads as much as wall time,
# because what drifts is the speed of the core the process runs on, not the
# time it waits for one.  setup_s is in reference seconds too, although the
# benchmark's contract fixes its unit as "s".
REFERENCE_RATE = 2000.0   # speed at which a wall second is a reference second
CALIBRATE_EVERY = 0.2     # seconds of item time between speed measurements
CALIBRATE_FOR = 0.02      # seconds per speed measurement


def _reference_unit():
    """Canonicalise a term list the way PuiseuxElement.from_terms does:
    Fraction arithmetic, a dict and a sort, as in the library's hot path."""
    acc = {}
    for i in range(1, 60):
        q = Fraction(i % 7 - 3, i % 4 + 1)
        acc[q] = acc.get(q, 0) + Fraction(i, 9)
    return tuple(sorted((q, c) for q, c in acc.items() if c))


def machine_speed() -> float:
    """Reference-loop units per second, measured over CALIBRATE_FOR."""
    gc.disable()  # keep collections of the library's heap out of the loop
    try:
        t0, n = perf_counter(), 0
        while True:
            _reference_unit()
            n += 1
            elapsed = perf_counter() - t0
            if elapsed >= CALIBRATE_FOR:
                return n / elapsed
    finally:
        gc.enable()


class Speedometer:
    """Speed measurements taken between items, at most CALIBRATE_EVERY
    seconds of item time apart, used to scale item times."""

    def __init__(self):
        self.marks = [(0, machine_speed())]  # (items done, speed)
        self.since = 0.0

    def after(self, items_done: int, seconds: float) -> None:
        """Account for an item of ``seconds``; measure if it is time."""
        self.since += seconds
        if self.since >= CALIBRATE_EVERY:
            self.mark(items_done)

    def mark(self, items_done: int) -> None:
        self.marks.append((items_done, machine_speed()))
        self.since = 0.0

    def scale(self, times: list) -> list:
        """Times in reference seconds; each item is scaled by the mean of
        the speeds measured just before and just after it."""
        if self.marks[-1][0] < len(times):
            self.mark(len(times))
        out = []
        for (a, before), (b, after) in zip(self.marks, self.marks[1:]):
            factor = (before + after) / (2 * REFERENCE_RATE)
            out += [t * factor for t in times[a:b]]
        return out


def load_library():
    """Import skeletron afresh from the checkout's ``src/``, compiled from
    source (see NO_BYTECODE)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "skeletron"]:
        del sys.modules[name]
    prefix, sys.pycache_prefix = sys.pycache_prefix, str(NO_BYTECODE)
    try:
        sk = importlib.import_module("skeletron")
        lib = types.SimpleNamespace(sk=sk)
        for name in MODULES:
            setattr(lib, name, importlib.import_module(f"skeletron.{name}"))
    finally:
        sys.pycache_prefix = prefix
    if Path(sk.__file__).resolve().parent != ROOT / "src" / "skeletron":
        raise ImportError(f"skeletron imported from {sk.__file__}, not src/")
    return lib


def setup(workload: str, seed: int):
    """Import the library afresh and generate the first round.

    Returns the library, the round and the time both took."""
    gen = workloads.WORKLOADS[workload][0]
    t0 = perf_counter()
    lib = load_library()
    first = gen(lib, workloads.round_rng(workload, seed, 0))
    return lib, first, perf_counter() - t0


class Run:
    """Closed-loop execution of rounds, with per-item times and checks."""

    def __init__(self, lib, workload: str, seed: int, expected: list):
        self.lib, self.workload, self.seed = lib, workload, seed
        self.runner = workloads.WORKLOADS[workload][1]
        self.expected = expected  # recorded digests of round 0, maybe empty
        self.times: list[float] = []
        self.failed = 0
        self.checked = 0  # items compared with a recorded digest

    def item(self, item, want=None, tracer=None) -> None:
        """Run, time and check one item; ``want`` is its recorded digest."""
        t0 = perf_counter()
        try:
            if tracer is None:
                ok, doc = self.runner(self.lib, item)
            else:
                ok, doc = tracer.item(self.runner, self.lib, item)
        except Exception:  # an item that raises is a failed item
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.times.append(perf_counter() - t0)
        if ok and want is not None:
            ok = workloads.digest(doc) == want
            self.checked += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {self.workload} seed {self.seed} item "
                  f"{len(self.times) - 1}", file=sys.stderr)

    def want(self, r: int, i: int):
        """Recorded digest of item i of round r, if any: only round 0 has
        recorded digests."""
        return self.expected[i] if r == 0 and i < len(self.expected) else None

    @property
    def wall(self) -> float:
        return sum(self.times)


def rounds(lib, workload: str, seed: int, first):
    """Round 0, already generated, then rounds 1, 2, ... on demand."""
    gen = workloads.WORKLOADS[workload][0]
    yield first
    for r in itertools.count(1):
        yield gen(lib, workloads.round_rng(workload, seed, r))


def run_for(lib, workload, seed, first, seconds, expected):
    """Run whole rounds until ``seconds`` of item time have passed.

    Returns the run and its item times in reference seconds."""
    run = Run(lib, workload, seed, expected)
    speed = Speedometer()
    for r, items in enumerate(rounds(lib, workload, seed, first)):
        for i, item in enumerate(items):
            run.item(item, run.want(r, i))
            speed.after(len(run.times), run.times[-1])
        if run.wall >= seconds:
            return run, speed.scale(run.times)


def timed_setups(workload: str, seed: int, reps: int):
    """``reps`` set-ups, each timed in reference seconds; returns the
    library and first round of the last one, and the times."""
    speed = Speedometer()
    times = []
    for _ in range(reps):
        lib, first, seconds = setup(workload, seed)
        times.append(seconds)
        speed.mark(len(times))
    return lib, first, speed.scale(times)


def end_to_end(run: Run, times: list, setup_s: float) -> dict:
    """End-to-end metrics; ``times`` are the run's item times in reference
    seconds."""
    verified = len(times) - run.failed
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (verified / sum(times), "1/ref_s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ref_ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ref_ms"),
        "verified_ratio": (verified / len(times), "ratio"),
        "peak_rss_mib": (rss, "MiB"),
    }


def traced(lib, workload, seed, first, seconds, expected):
    """Run every item untraced and then traced, for whole rounds until
    ``seconds`` have passed; tracing overhead is the difference of the two
    sums, taken item by item under the same machine conditions."""
    tracer = Tracer()
    plain = Run(lib, workload, seed, expected)
    run = Run(lib, workload, seed, expected)
    for r, items in enumerate(rounds(lib, workload, seed, first)):
        for i, item in enumerate(items):
            plain.item(item, plain.want(r, i))
            tracer.install(lib)
            try:
                run.item(item, run.want(r, i), tracer)
            finally:
                tracer.uninstall()
        if plain.wall + run.wall >= seconds:
            break
    tracer.write(ROOT / ".bench_out" / f"trace-{workload}-{seed}.json.gz")
    m = tracer.layer_metrics()
    m["trace.items"] = len(run.times)
    m["trace.wall_s"] = run.wall
    m["trace.untraced_wall_s"] = plain.wall
    m["trace.overhead_s"] = run.wall - plain.wall
    units = {k: ("s" if k.endswith("_s") else "count") for k in m}
    units["skeleton.retract.joins_per_call"] = "joins/call"
    units["slopes.eval_val_per_vertex"] = "calls/vertex"
    units["skeleton.vertices"] = "vertices/build"
    plain.times += run.times
    plain.failed += run.failed
    plain.checked += run.checked
    return plain, {k: (v, units[k]) for k, v in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "skeletron" / "__init__.py").is_file():
        print(f"no skeletron sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    digests = json.loads((HERE / "digests.json").read_text())
    recorded = str(args.seed % workloads.RECORDED)
    expected = digests.get(args.workload, {}).get(recorded, [])
    if not expected:
        print(f"digests.json has no digests for {args.workload} round "
              f"{recorded}; run perfbench/record_digests.py", file=sys.stderr)
        return 2
    if args.trace:
        lib, first, _ = setup(args.workload, args.seed)
        run, metrics = traced(lib, args.workload, args.seed, first,
                              args.seconds, expected)
    else:
        # Set-up is timed several times, half before and half after the
        # run, so that its median reflects the machine over the whole run.
        lib, first, setup_times = timed_setups(args.workload, args.seed,
                                               SETUP_REPS)
        run, times = run_for(lib, args.workload, args.seed, first,
                             args.seconds, expected)
        setup_times += timed_setups(args.workload, args.seed, SETUP_REPS)[2]
        metrics = end_to_end(run, times, statistics.median(setup_times))
    print(f"{run.checked} of {len(run.times)} items checked against "
          f"recorded digests", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.times),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
