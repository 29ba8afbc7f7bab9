"""Valuation functions of rational functions on a skeleton, and the
harmonicity certificate.

For f with all zeros and poles among the punctures, F = val(f) restricted
to the skeleton is affine on each edge with integer slope, constant along
each ray beyond the last Newton breakpoint, and harmonic: at every finite
vertex the outgoing slopes over all tangent directions sum to zero, and the
outgoing slope along a ray equals the order of f at the targeted puncture.
Off the skeleton, F factors through the retraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .metric_graph import PLFunction
from .points import RationalFunction, Type1, Type2, eval_val
from .puiseux import val_diff
from .randfix import rand_type2
from .skeleton import SkeletonTree, retract


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ValueError(f"non-integer {what}: {x}")
    return int(x)


def _check_divisor_on_punctures(f: RationalFunction, tree: SkeletonTree):
    targets = list(tree.ray_target.values())
    for root, _ in f.factors:
        if not any((not t.is_infinity()) and t.value == root for t in targets):
            raise ValueError(f"zero/pole at {root} is not a puncture")
    if f.order_at_infinity() != 0:
        if not any(t.is_infinity() for t in targets):
            raise ValueError("zero/pole at infinity is not a puncture")


def _ray_slope(f: RationalFunction, tree: SkeletonTree, base: str,
               target: Type1) -> int:
    """Outgoing slope along the ray from base toward the puncture,
    probed beyond every Newton breakpoint of f relative to the ray."""
    base_pt = tree.placement[base]
    if target.is_infinity():
        # ray parametrized by decreasing s below the root
        breaks = [val_diff(base_pt.center, root) for root, _ in f.factors]
        s0 = min([base_pt.s] + [b for b in breaks if b != float("inf")],
                 default=base_pt.s) - 1
        g0 = eval_val(f, Type2(base_pt.center, s0))
        g1 = eval_val(f, Type2(base_pt.center, s0 - 1))
        return _as_int(g1 - g0, "ray slope")
    a = target.value
    breaks = [val_diff(a, root) for root, _ in f.factors if root != a]
    s0 = max([base_pt.s] + breaks) + 1
    g0 = eval_val(f, Type2(a, s0))
    g1 = eval_val(f, Type2(a, s0 + 1))
    return _as_int(g1 - g0, "ray slope")


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
        ray_slopes[mark] = _ray_slope(f, tree, base, tree.ray_target[mark])
    return PLFunction(
        graph=g,
        vertex_values=values,
        edge_slopes=edge_slopes,
        ray_slopes=ray_slopes,
    ).validate()


def direction_count(tree: SkeletonTree, v: str) -> int:
    """Tangent directions at a vertex within the skeleton: incident edge
    ends (loops twice) plus incident rays.  Directions off the skeleton
    carry slope zero and are excluded from harmonicity sums."""
    return tree.graph.valence(v)


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
