"""Seeded inputs, item runners and output checks for the four workloads.

Inputs come in rounds.  A round is a fixed list of strata (sizes and
shapes), so every run measures the same mix whatever the seed; the seed only
picks the values inside each stratum.  Round r of a workload is generated
from its own generator, seeded by (workload, seed, r), so a run can generate
rounds as it goes and two runs with one seed see identical inputs.
Round 0 is the exception: it is one of RECORDED rounds, picked by the seed
modulo RECORDED, whose output digests are recorded in ``digests.json``, so
every run checks its first round byte for byte whatever its seed.

Every runner calls only the public API of ``skeletron``, through module
attributes looked up at call time, so the tracer's wrappers see each call.
A runner returns ``(ok, doc)``: ``ok`` is the workload's own check of the
output and ``doc`` the canonical output JSON whose digest is compared with
the recorded one in round 0.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

SAMPLES = 20  # retraction samples per certificate
RECORDED = 64  # round 0 of seed s is recorded round s % RECORDED


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    if index == 0:
        seed %= RECORDED
    return random.Random(f"{workload}/{seed}/{index}")


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([x for x in range(-bound, bound + 1) if x])


# --- certify-wide -------------------------------------------------------

def two_term_roots(lib, rng: random.Random, n: int, clustered: bool):
    """n pairwise distinct roots c1*t^q1 + c2*t^q2 with q1 < q2.

    The tree shape depends only on n and the mode, so items of one stratum
    cost about the same whatever the seed.  Clustered roots share one of
    three leading terms, taken in turn, and have pairwise distinct second
    exponents: three deep chains of nested balls.  Spread roots take one
    of eight leading exponents in turn, with leading coefficients distinct
    within each group: one ball per group, each with many branches, a
    shallow bushy tree.
    """
    groups = 3 if clustered else 8
    exps = rng.sample(range(-24, 25), groups)
    coeff_pool = [Fraction(p, q) for p in range(-9, 10) if p
                  for q in range(1, 6) if Fraction(p, q).denominator == q]
    gaps = rng.sample(range(1, 97), n)
    if clustered:
        leads = [(Fraction(e, 4), rng.choice(coeff_pool)) for e in exps]
        heads = [leads[i % groups] for i in range(n)]
    else:
        firsts = [rng.sample(coeff_pool, -(-n // groups)) for _ in exps]
        heads = [(Fraction(exps[i % groups], 4),
                  firsts[i % groups][i // groups]) for i in range(n)]
    return [
        lib.sk.PuiseuxElement.from_terms(
            [(q1, c1), (q1 + Fraction(gap, 4), rng.choice(coeff_pool))])
        for (q1, c1), gap in zip(heads, gaps)
    ]


# (n, clustered) per item of a round.  An odd number of strata puts the
# median item inside one stratum instead of in the gap between two, where it
# would jump from run to run.
WIDE_STRATA = ((16, True), (16, False), (24, True), (32, True), (32, False),
               (48, True), (48, False))


def gen_certify_wide(lib, rng: random.Random):
    items = []
    for n, clustered in WIDE_STRATA:
        roots = two_term_roots(lib, rng, n, clustered)
        factors = [(r, rng.choice((-2, -1, 1, 2))) for r in roots]
        f = lib.sk.RationalFunction.make(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)), factors)
        items.append((f, lib.randfix.punctures_of(f), rng.randrange(2**32)))
    return items


# --- certify-batch ------------------------------------------------------

def gen_certify_batch(lib, rng: random.Random):
    items = []
    for _ in range(16):
        f = lib.randfix.rand_rational_function(rng)
        items.append((f, lib.randfix.punctures_of(f), rng.randrange(2**32)))
    return items


def run_certificate(lib, item):
    f, punctures, sample_seed = item
    tree = lib.sk.build_skeleton_tree(punctures)
    report = lib.sk.verify_slope_formula(f, tree, samples=SAMPLES,
                                         seed=sample_seed)
    doc = lib.io_json.slope_report_to_json(report)
    return report.verdict is True and doc["verdict"] == "pass", doc


# --- oracle-crosscheck --------------------------------------------------

def gen_oracle(lib, rng: random.Random):
    """Nine strata: 6, 7 or 8 distinct monomial roots with a fixed
    multiplicity pattern, times a point centre of 0, 1 or 2 terms.

    Every exponent lies on the half-integer grid.  With the degrees of
    numerator and denominator and the term count of every shift
    (centre - root) fixed by the stratum, the cost of an item stays
    within a few times its stratum's mean; free denominators would let the
    number of distinct exponents in the expansion, and so the cost, vary
    by orders of magnitude from seed to seed.
    """
    patterns = {6: (3, 2, 1, -1, -2, -3), 7: (3, 2, 1, 1, -1, -2, -3),
                8: (3, 2, 1, 1, -1, -1, -2, -3)}

    def coeff(bound):
        return Fraction(_nonzero(rng, bound), rng.randint(1, 3))

    items = []
    for k, mults in patterns.items():
        for centre_terms in (0, 1, 2):
            roots = [lib.sk.PuiseuxElement.monomial(coeff(5), Fraction(e, 2))
                     for e in rng.sample(range(-8, 13), k)]
            f = lib.sk.RationalFunction.make(
                Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                zip(roots, rng.sample(mults, k)))
            centre = lib.sk.PuiseuxElement.from_terms(
                (Fraction(e, 2), coeff(6))
                for e in rng.sample(range(-8, 17), centre_terms))
            s = Fraction(rng.randint(-12, 20), rng.randint(1, 4))
            items.append((f, lib.sk.Type2(centre, s)))
    return items


def run_oracle(lib, item):
    f, x = item
    direct = lib.sk.eval_val(f, x)
    newton = lib.oracle.eval_val_newton(f, x)
    ok = isinstance(direct, Fraction) and direct == newton
    return ok, [str(direct), str(newton)]


# --- stabilize-large ----------------------------------------------------

CORES = {
    # stable core: (vertex count, edges, rays)
    "theta": (2, [(0, 1), (0, 1), (0, 1)], []),
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], []),
    "loop-tail": (2, [(0, 0), (0, 1)], [(1, "m0")]),
}


def subdivided_core_graph(lib, rng: random.Random, size: int, core: str):
    """A stable core with every edge subdivided many times and pendant
    chains and trees hung off it, about ``size`` vertices in all.

    Nearly every vertex has weight 0, so pruning removes all pendants
    (valence-1 rule) and merges every subdivision (valence-2 rule).  A few
    pendant vertices carry a marking, so rays absorb the edges leading to
    them, and a few carry weight 1, so some pendants survive.
    """
    n_core, core_edges, core_rays = CORES[core]
    n = n_core
    edges, rays = [], list(core_rays)

    def length():
        return Fraction(rng.randint(1, 9), rng.randint(1, 4))

    cuts = [0] * len(core_edges)
    for _ in range((size - n_core) // 2):
        cuts[rng.randrange(len(cuts))] += 1
    for (u, v), k in zip(core_edges, cuts):
        prev = u
        for _ in range(k):
            edges.append((prev, n, length()))
            prev, n = n, n + 1
        edges.append((prev, v, length()))
    weighted = set()
    while n < size:
        k = min(rng.randint(1, 12), size - n)
        attach = rng.randrange(n)
        chain = rng.random() < 0.5
        for i in range(k):
            parent = attach if i == 0 else (n - 1 if chain else
                                            rng.randint(n - i, n - 1))
            edges.append((parent, n, length()))
            n += 1
        roll = rng.random()
        if roll < 0.15:
            rays.append((n - 1, f"m{len(rays) + 1}"))
        elif roll < 0.2:
            weighted.add(n - 1)
    names = [f"x{i:03d}" for i in rng.sample(range(size), size)]
    return lib.sk.MetricGraph.make(
        [(names[i], 1 if i in weighted else 0) for i in range(size)],
        [(names[u], names[v], l) for u, v, l in edges],
        [(names[b], m) for b, m in rays],
    )


def gen_stabilize(lib, rng: random.Random):
    sizes = (60, 95, 130, 165, 200)  # odd, as for WIDE_STRATA
    cores = ("theta", "k4", "loop-tail", "theta", "k4")
    return [subdivided_core_graph(lib, rng, s, c)
            for s, c in zip(sizes, cores)]


def run_stabilize(lib, g):
    report = lib.sk.stabilize(g)
    out = report.output
    ok = (
        lib.stable.is_stable(out)
        and lib.sk.total_genus(out) == lib.sk.total_genus(g)
        and lib.sk.euler_char(out) == lib.sk.euler_char(g) == report.chi
        and sorted(m for _, m in out.rays) == sorted(m for _, m in g.rays)
    )
    return ok, lib.io_json.stabilization_report_to_json(report)


WORKLOADS = {
    "certify-wide": (gen_certify_wide, run_certificate),
    "certify-batch": (gen_certify_batch, run_certificate),
    "oracle-crosscheck": (gen_oracle, run_oracle),
    "stabilize-large": (gen_stabilize, run_stabilize),
}
