"""Acceptance criteria, runnable as a batch.

Each criterion returns (passed, detail, seconds, budget_s): the verdict,
a one-line account, its wall time and its wall-clock budget.  All checks
are exact (zero tolerance); counts and time budgets follow the shipped
contract.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from .metric_graph import (
    MetricGraph,
    betti1,
    euler_char,
    is_isomorphic,
    refine,
    shortest_path,
    total_genus,
)
from .newton import (
    Interval,
    TropicalLaurent,
    map_skeleton,
    slope_at,
    slope_change_count,
    unit_decomposition,
)
from .oracle import eval_val_newton, expand_from_roots, tropicalize
from .points import (
    INFINITY,
    RationalFunction,
    Type1,
    Type2,
    eval_val,
    path_distance,
)
from .puiseux import PuiseuxElement, parse_element
from .randfix import (
    confluence_family,
    punctures_of,
    rand_metric_graph,
    rand_rational,
    rand_rational_function,
    rand_roots,
    rand_type2,
)
from .skeleton import build_skeleton_tree, retract
from .slopes import first_failure, verify_slope_formula
from .stable import (
    apply_prune,
    is_stable,
    minimal_vertex_characterization,
    prune_candidates,
    stabilize,
    tate_skeleton,
)


def _timed(budget_s, fn):
    """(passed, detail, seconds, budget_s) of one criterion run."""
    t0 = time.monotonic()
    ok, detail = fn()
    dt = time.monotonic() - t0
    if dt > budget_s:
        return (False, f"{detail}; exceeded {budget_s}s budget ({dt:.1f}s)",
                dt, budget_s)
    return ok, f"{detail} ({dt:.1f}s)", dt, budget_s


def criterion_1_slope_formula(seed=0):
    """200 random factored functions: full slope-formula certificate."""

    def run():
        rng = random.Random(seed)
        for i in range(200):
            f = rand_rational_function(rng)
            tree = build_skeleton_tree(punctures_of(f))
            report = verify_slope_formula(
                f, tree, samples=20, seed=rng.randrange(2**32)
            )
            if not report.verdict:
                return False, f"fixture {i} failed at {first_failure(report)}"
        return True, "200 fixtures certified"

    return _timed(30, run)


def criterion_2_oracle_equivalence(seed=0):
    """1000 random (function, point) pairs: factored formula vs recentering
    Newton polygon, exact."""

    def run():
        rng = random.Random(seed)
        for i in range(1000):
            f = rand_rational_function(rng, max_roots=4)
            x = rand_type2(rng)
            if eval_val(f, x) != eval_val_newton(f, x):
                return False, f"pair {i} disagrees"
        return True, "1000 pairs agree exactly"

    return _timed(10, run)


def criterion_3_slope_counting(seed=0):
    """100 random functions on the punctured unit ball: slope change at
    every breakpoint counts poles minus zeros at that valuation; beyond the
    last breakpoint the slope equals the order at the center."""

    def run():
        rng = random.Random(seed)
        for i in range(100):
            # roots strictly inside the punctured ball, plus an order at 0
            k = rng.randint(1, 4)
            roots = []
            while len(roots) < k:
                c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 2))
                q = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                cand = PuiseuxElement.monomial(c, q)
                if all(cand != r for r in roots):
                    roots.append(cand)
            mults = [rng.choice([-2, -1, 1, 2]) for _ in roots]
            m0 = rng.choice([-2, -1, 0, 1, 2])  # order at the center

            shifts_num = [-r for r, m in zip(roots, mults) for _ in range(max(m, 0))]
            shifts_den = [-r for r, m in zip(roots, mults) for _ in range(max(-m, 0))]
            t_num = tropicalize(expand_from_roots(shifts_num))
            t_den = tropicalize(expand_from_roots(shifts_den))
            if m0:
                t_num = TropicalLaurent.from_terms(
                    [(n + max(m0, 0), v) for n, v in t_num.terms]
                )
                t_den = TropicalLaurent.from_terms(
                    [(n + max(-m0, 0), v) for n, v in t_den.terms]
                )

            data = [(r.valuation(), m) for r, m in zip(roots, mults)]
            bps = sorted({r.valuation() for r in roots})
            for s in bps:
                ln, rn = slope_at(t_num, s)
                ld, rd = slope_at(t_den, s)
                # F = val num - val den; its change of slope at s must
                # count poles minus zeros retracting there
                change = (rn - ln) - (rd - ld)
                expected = slope_change_count(data, s)
                if change != expected:
                    return False, f"fixture {i}: change {change} at {s}"
            s_far = max(bps) + 1
            _, rn = slope_at(t_num, s_far)
            _, rd = slope_at(t_den, s_far)
            if rn - rd != m0:
                return False, f"fixture {i}: tail slope {rn - rd} != {m0}"
        return True, "100 fixtures: breakpoint counting and tail slope exact"

    return _timed(5, run)


def criterion_4_units(seed=0):
    """100 random monomial-dominant units: decomposition recovers (d, val
    alpha) and the skeleton image scales lengths by |d|."""

    def run():
        rng = random.Random(seed)
        for i in range(100):
            lo = rand_rational(rng, -6, 6)
            hi = lo + Fraction(rng.randint(0, 8), rng.randint(1, 3))
            interval = Interval(lo, hi)
            d = rng.choice([-3, -2, -1, 1, 2, 3])
            v_d = rand_rational(rng, -6, 6)
            terms = [(d, v_d)]
            for _ in range(rng.randint(0, 4)):
                n = rng.randint(-4, 4)
                if n == d:
                    continue
                # strictly dominated at both endpoints
                floor = max(v_d + (d - n) * lo, v_d + (d - n) * hi)
                terms.append((n, floor + Fraction(rng.randint(1, 5),
                                                  rng.randint(1, 3))))
            f = TropicalLaurent.from_terms(terms)
            got = unit_decomposition(f, interval)
            if got != (d, v_d):
                return False, f"fixture {i}: got {got}, expected {(d, v_d)}"
            image = map_skeleton(d, v_d, interval)
            if image.length() != abs(d) * interval.length():
                return False, f"fixture {i}: image length mismatch"
        return True, "100 units decomposed; modulus scales by |d|"

    return _timed(5, run)


def _all_prune_outcomes(g: MetricGraph, cache, limit=20000):
    """Every graph reachable as a prune fixed point, over all orders."""
    key = (g.vertices, tuple(sorted(g.edges)), tuple(sorted(g.rays)))
    if key in cache:
        return cache[key]
    moves = prune_candidates(g)
    if not moves:
        result = [g]
    else:
        result = []
        for rule, v in moves:
            result.extend(_all_prune_outcomes(apply_prune(g, rule, v), cache))
            if len(result) > limit:
                raise RuntimeError("prune order explosion")
    cache[key] = result
    return result


def criterion_5_confluence(seed=0):
    """All prune orders on a family of small chi<0 graphs end in isomorphic
    stable graphs; genus, Euler characteristic, and markings conserved."""

    def run():
        rng = random.Random(seed)
        for i, g in enumerate(confluence_family(rng)):
            outcomes = _all_prune_outcomes(g, {})
            ref = stabilize(g).output
            for out in outcomes:
                if not is_isomorphic(out, ref):
                    return False, f"fixture {i}: non-confluent prune orders"
                if not is_stable(out):
                    return False, f"fixture {i}: unstable output"
                if minimal_vertex_characterization(out) != set(out.vertex_ids()):
                    return False, f"fixture {i}: characterization mismatch"
            if total_genus(ref) != total_genus(g):
                return False, f"fixture {i}: genus not conserved"
            if euler_char(ref) != euler_char(g):
                return False, f"fixture {i}: chi not conserved"
            if sorted(m for _, m in ref.rays) != sorted(m for _, m in g.rays):
                return False, f"fixture {i}: markings not conserved"
        return True, "confluence family checked over all prune orders"

    return _timed(60, run)


def criterion_6_refinement_invariance(seed=0):
    """100 random graphs, 10 refinements each: genus data and original
    pairwise distances unchanged."""

    def run():
        rng = random.Random(seed)
        for i in range(100):
            g = rand_metric_graph(rng)
            originals = g.vertex_ids()
            dists = {
                (u, v): shortest_path(g, u, v)
                for u, v in itertools.combinations(originals, 2)
            }
            b, tg, chi = betti1(g), total_genus(g), euler_char(g)
            h = g
            for _ in range(10):
                if not h.edges:
                    break
                e = rng.randrange(len(h.edges))
                length = h.edges[e][2]
                pos = length * Fraction(rng.randint(1, 5), 6)
                h = refine(h, e, pos)
            if (betti1(h), total_genus(h), euler_char(h)) != (b, tg, chi):
                return False, f"fixture {i}: genus data changed"
            for (u, v), d in dists.items():
                if shortest_path(h, u, v) != d:
                    return False, f"fixture {i}: distance ({u},{v}) changed"
        return True, "100 graphs x 10 refinements invariant"

    return _timed(10, run)


def criterion_7_retraction(seed=0):
    """Nested skeleta: retract_T o retract_T' = retract_T on 500 points;
    the three-leg distance decomposition holds on 500 pairs."""

    def run():
        rng = random.Random(seed)
        checked_pts = 0
        checked_pairs = 0
        while checked_pts < 500 or checked_pairs < 500:
            roots = rand_roots(rng, max_roots=4)
            punctures = [Type1(r) for r in roots] + [Type1(INFINITY)]
            tree = build_skeleton_tree(punctures)
            extras = [rand_type2(rng) for _ in range(rng.randint(1, 2))]
            tree_fine = build_skeleton_tree(punctures, extras)
            for _ in range(25):
                x = rand_type2(rng)
                via = retract(retract(x, tree_fine), tree)
                direct = retract(x, tree)
                if via != direct:
                    return False, f"retraction compatibility failed at {x}"
                checked_pts += 1
            for _ in range(25):
                x, y = rand_type2(rng), rand_type2(rng)
                tx, ty = retract(x, tree), retract(y, tree)
                if tx == ty:
                    continue
                lhs = path_distance(x, y)
                rhs = (
                    path_distance(x, tx)
                    + path_distance(tx, ty)
                    + path_distance(ty, y)
                )
                if lhs != rhs:
                    return False, f"distance decomposition failed at {x},{y}"
                checked_pairs += 1
        return True, (
            f"{checked_pts} retraction points, {checked_pairs} pairs exact"
        )

    return _timed(10, run)


def criterion_8_tate(seed=0):
    """Loop length is exactly -val(j) for 20 negative rational val_j; the
    good-reduction branch returns the weight-1 point."""

    def run():
        rng = random.Random(seed)
        for _ in range(20):
            vj = -Fraction(rng.randint(1, 40), rng.randint(1, 6))
            g = tate_skeleton(vj)
            if len(g.edges) != 1 or g.edges[0][2] != -vj:
                return False, f"val_j {vj}: wrong circumference"
            if total_genus(g) != 1 or euler_char(g) != 0:
                return False, f"val_j {vj}: wrong genus data"
        for vj in (Fraction(0), Fraction(3), Fraction(1, 2)):
            g = tate_skeleton(vj)
            if g.edges or g.vertices != (("v0", 1),):
                return False, f"val_j {vj}: good reduction branch wrong"
        return True, "20 multiplicative + 3 good-reduction cases exact"

    return _timed(5, run)


def criterion_9_worked_fixture(seed=0):
    """f = T(T-t)/(T-1)^2 on D = {0, t, 1, inf}: frozen regression values,
    cross-checked against the recentering oracle."""

    def run():
        t = parse_element("t")
        one = parse_element("1")
        zero = PuiseuxElement.zero()
        f = RationalFunction.make(0, [(zero, 1), (t, 1), (one, -2)])
        punctures = [Type1(zero), Type1(t), Type1(one), Type1(INFINITY)]
        tree = build_skeleton_tree(punctures)

        inner = Type2(zero, Fraction(1))
        gauss = Type2(zero, Fraction(0))
        for point, expected in ((gauss, Fraction(0)), (inner, Fraction(2))):
            if eval_val(f, point) != expected:
                return False, f"F({point}) != {expected}"
            if eval_val_newton(f, point) != expected:
                return False, f"oracle disagrees at {point}"

        report = verify_slope_formula(f, tree, samples=20, seed=seed)
        F = report.F
        vid_gauss = tree.vertex_at(gauss)
        vid_inner = tree.vertex_at(inner)
        if vid_gauss is None or vid_inner is None:
            return False, "expected vertices missing from skeleton"
        (u, v, length), = tree.graph.edges
        slope = F.edge_slopes[0] if u == vid_gauss else -F.edge_slopes[0]
        if length != 1 or slope != 2:
            return False, f"edge slope {slope} (length {length}) != 2"
        expected_rays = {"0": 1, str(t): 1, "1": -2, "inf": 0}
        if F.ray_slopes != expected_rays:
            return False, f"ray slopes {F.ray_slopes} != {expected_rays}"
        if not report.verdict:
            return False, "slope report failed"
        return True, "worked fixture reproduced exactly"

    return _timed(5, run)


CRITERIA = [
    ("1 slope-formula suite", criterion_1_slope_formula),
    ("2 oracle equivalence", criterion_2_oracle_equivalence),
    ("3 breakpoint counting", criterion_3_slope_counting),
    ("4 unit decomposition / modulus scaling", criterion_4_units),
    ("5 stable-reduction confluence", criterion_5_confluence),
    ("6 refinement invariance", criterion_6_refinement_invariance),
    ("7 retraction compatibility", criterion_7_retraction),
    ("8 Tate relation", criterion_8_tate),
    ("9 worked fixture", criterion_9_worked_fixture),
]


def run_all(seed=0):
    """(name, passed, detail, seconds, budget_s) per criterion."""
    return [(name, *fn(seed)) for name, fn in CRITERIA]
