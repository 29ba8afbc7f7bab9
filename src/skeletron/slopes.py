"""Valuation functions of rational functions on a skeleton, and the
harmonicity certificate.

For f with all zeros and poles among the punctures, F = val(f) restricted
to the skeleton is affine with integer slope on each edge and on each ray
from its base on (no zero or pole of f branches off a ray beyond its base),
and harmonic: at every finite vertex the outgoing slopes over all tangent
directions sum to zero, and the outgoing slope along a ray equals the order
of f at the targeted puncture (Poincare-Lelong).  So both kinds of slope are
read as F's change over a length from a vertex value.  Off the skeleton, F
factors through the retraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .metric_graph import PLFunction
from .points import RationalFunction, Type1, Type2, eval_val
from .randfix import rand_type2
from .skeleton import SkeletonTree, retract


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ValueError(f"non-integer {what}: {x}")
    return int(x)


def _check_divisor_on_punctures(f: RationalFunction, tree: SkeletonTree):
    finite = {t.value for t in tree.ray_target.values()
              if not t.is_infinity()}
    for root, _ in f.factors:
        if root not in finite:
            raise ValueError(f"zero/pole at {root} is not a puncture")
    if f.order_at_infinity() != 0 and not tree.has_infinity:
        raise ValueError("zero/pole at infinity is not a puncture")


def _ray_slope(f: RationalFunction, target: Type1, base: Type2,
               base_value: Fraction) -> int:
    """Outgoing slope along the ray from its base toward the puncture: F's
    change over length 1 from the base value.  Every zero and pole of f is
    a puncture, so each other one separates from a finite puncture at or
    above its ray's base, and each finite one lies in the root ball, where
    the ray toward infinity starts: F is affine beyond the base."""
    if target.is_infinity():  # decreasing s from the root
        probe = Type2(base.center, base.s - 1)
    else:
        probe = Type2(target.value, base.s + 1)
    return _as_int(eval_val(f, probe) - base_value, "ray slope")


def compute_F(f: RationalFunction, tree: SkeletonTree) -> PLFunction:
    """val(f) on the skeleton: exact vertex values, integer edge slopes,
    and one integer slope per ray measured outgoing toward its puncture."""
    _check_divisor_on_punctures(f, tree)
    g = tree.graph
    values = {v: eval_val(f, tree.placement[v]) for v in g.vertex_ids()}
    edge_slopes = {}
    for i, (u, v, length) in enumerate(g.edges):
        edge_slopes[i] = _as_int((values[v] - values[u]) / length,
                                 "edge slope")
    ray_slopes = {}
    for base, mark in g.rays:
        ray_slopes[mark] = _ray_slope(f, tree.ray_target[mark],
                                      tree.placement[base], values[base])
    return PLFunction(
        graph=g,
        vertex_values=values,
        edge_slopes=edge_slopes,
        ray_slopes=ray_slopes,
    ).validate()


@dataclass(frozen=True)
class SlopeReport:
    F: PLFunction
    harmonicity: dict          # vertex id -> outgoing slope sum
    ray_checks: tuple          # (mark, slope, expected order, match)
    retraction_samples: tuple  # (point, F(point), F(tau(point)), match)
    degree_sum: int            # sum of all ray slopes
    verdict: bool


def verify_slope_formula(
    f: RationalFunction,
    tree: SkeletonTree,
    samples: int = 0,
    seed: int = 0,
) -> SlopeReport:
    """Certify harmonicity, ray slopes, the degree-zero sum, and the
    factor-through-retraction property on sampled off-skeleton points."""
    if samples < 0:
        raise ValueError(f"samples must be zero or more, got {samples}")
    F = compute_F(f, tree)
    g = tree.graph

    # each edge leaves u with its slope and v with the opposite one, so a
    # loop adds nothing
    harmonicity = dict.fromkeys(g.vertex_ids(), 0)
    for i, (u, v, _) in enumerate(g.edges):
        harmonicity[u] += F.edge_slopes[i]
        harmonicity[v] -= F.edge_slopes[i]
    for base, mark in g.rays:
        harmonicity[base] += F.ray_slopes[mark]

    ray_checks = []
    for base, mark in g.rays:
        slope = F.ray_slopes[mark]
        expected = f.order_at(tree.ray_target[mark])
        ray_checks.append((mark, slope, expected, slope == expected))

    rng = random.Random(seed)
    sample_rows = []
    for _ in range(samples):
        x = rand_type2(rng)
        fx = eval_val(f, x)
        tau = retract(x, tree)
        ftau = eval_val(f, tau)
        sample_rows.append((x, fx, ftau, fx == ftau))

    degree_sum = sum(F.ray_slopes.values())
    verdict = (
        all(s == 0 for s in harmonicity.values())
        and all(ok for *_, ok in ray_checks)
        and all(ok for *_, ok in sample_rows)
        and degree_sum == 0
    )
    return SlopeReport(
        F=F,
        harmonicity=harmonicity,
        ray_checks=tuple(ray_checks),
        retraction_samples=tuple(sample_rows),
        degree_sum=degree_sum,
        verdict=verdict,
    )
