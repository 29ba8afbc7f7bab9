#!/usr/bin/env python3
"""Batch experiment: certify the slope formula on random rational functions.

Samples factored rational functions with Puiseux-monomial roots, spans the
skeleton by their zeros/poles plus infinity, and verifies every part of the
certificate.  Prints summary statistics; exits 1 on any failure.
"""

import argparse
import random
import sys
import time
from collections import Counter

from skeletron import build_skeleton_tree, verify_slope_formula
from skeletron.cli import nonnegative_int
from skeletron.randfix import punctures_of, rand_rational_function


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=nonnegative_int, default=200)
    ap.add_argument("--samples", type=nonnegative_int, default=20,
                    help="off-skeleton retraction samples per function")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    failures = 0
    vertex_hist = Counter()
    t0 = time.perf_counter()
    for k in range(args.count):
        f = rand_rational_function(rng)
        tree = build_skeleton_tree(punctures_of(f))
        report = verify_slope_formula(f, tree, samples=args.samples,
                                      seed=rng.randrange(2**32))
        vertex_hist[len(tree.placement)] += 1
        if not report.verdict:
            failures += 1
            print(f"FAIL #{k}: {report.ray_checks}", file=sys.stderr)
    elapsed = time.perf_counter() - t0

    print(f"functions checked : {args.count}")
    print(f"failures          : {failures}")
    print(f"skeleton sizes    : {dict(sorted(vertex_hist.items()))}")
    print(f"elapsed           : {elapsed:.2f}s")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
