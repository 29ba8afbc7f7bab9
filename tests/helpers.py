"""Shared test oracles: brute-force tree membership and nearest-point
search, and the canonicalising Puiseux arithmetic that the merge-based
operators and ``val_diff`` replace."""

from fractions import Fraction

from skeletron.points import Type2, path_distance
from skeletron.puiseux import PuiseuxElement
from skeletron.skeleton import SkeletonTree
from skeletron.valq import INF


def ref_add(x: PuiseuxElement, y: PuiseuxElement) -> PuiseuxElement:
    return PuiseuxElement.from_terms(x.terms + y.terms)


def ref_sub(x: PuiseuxElement, y: PuiseuxElement) -> PuiseuxElement:
    return ref_add(x, PuiseuxElement(tuple((q, -c) for q, c in y.terms)))


def ref_mul(x: PuiseuxElement, y: PuiseuxElement) -> PuiseuxElement:
    return PuiseuxElement.from_terms(
        (q1 + q2, c1 * c2) for q1, c1 in x.terms for q2, c2 in y.terms
    )


def ref_join(x, y):
    """Join of two finite points by the formula
    min(s_x, s_y, val(center_x - center_y)), with a full subtraction."""
    if x == y:
        return x
    sx = x.s if isinstance(x, Type2) else INF
    sy = y.s if isinstance(y, Type2) else INF
    cx = x.center if isinstance(x, Type2) else x.value
    cy = y.center if isinstance(y, Type2) else y.value
    return Type2(cx, Fraction(min(sx, sy, ref_sub(cx, cy).valuation())))


def ref_eval_val(f, x: Type2):
    """lead_val + sum_i mult_i * min(val(b - a_i), s), with full
    subtractions."""
    return f.lead_val + sum(
        mult * min(ref_sub(x.center, root).valuation(), x.s)
        for root, mult in f.factors
    )


def on_tree(p: Type2, tree: SkeletonTree) -> bool:
    """Membership of a type-2 point in the tree's realization."""
    placement = tree.placement
    for u, v, _ in tree.graph.edges:
        pu, pv = placement[u], placement[v]
        lo, hi = (pu, pv) if pu.s <= pv.s else (pv, pu)
        if lo.s <= p.s <= hi.s and Type2(hi.center, p.s) == p:
            return True
    for base, mark in tree.graph.rays:
        bp = placement[base]
        target = tree.ray_target[mark]
        if target.is_infinity():
            if p.s <= bp.s and Type2(tree.root_point().center, p.s) == p:
                return True
        else:
            if p.s >= bp.s and Type2(target.value, p.s) == p:
                return True
    return any(p == q for q in placement.values())


def grid_points(tree: SkeletonTree, step=Fraction(1, 4), ray_extent=8):
    """Dense grid of type-2 points on edges and (truncated) rays."""
    pts = list(tree.placement.values())
    for u, v, _ in tree.graph.edges:
        pu, pv = tree.placement[u], tree.placement[v]
        lo, hi = (pu, pv) if pu.s <= pv.s else (pv, pu)
        s = lo.s
        while s <= hi.s:
            pts.append(Type2(hi.center, s))
            s += step
    for base, mark in tree.graph.rays:
        bp = tree.placement[base]
        target = tree.ray_target[mark]
        for k in range(1, int(ray_extent / step) + 1):
            if target.is_infinity():
                pts.append(Type2(tree.root_point().center, bp.s - k * step))
            else:
                pts.append(Type2(target.value, bp.s + k * step))
    return pts


def brute_nearest(x: Type2, tree: SkeletonTree, step=Fraction(1, 4)):
    """Grid minimizer of the path distance from x to the tree."""
    return min(grid_points(tree, step), key=lambda p: path_distance(x, p))
