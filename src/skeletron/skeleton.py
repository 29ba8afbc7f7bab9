"""Skeleton trees inside the Berkovich projective line.

The skeleton spanned by a puncture set D (plus optional extra type-2
vertices) is the convex hull of D: a finite metric tree whose vertices are
pairwise joins, with one ray per puncture.  Vertices are balls nested under
containment; the root is the smallest ball containing every finite anchor,
and the ray toward infinity (when infinity is a puncture) leaves the tree
through the root.

The vertex set is closed under joins, and ``v0, v1, ...`` number it in
``_point_key`` order, radius first.  So ``v0`` is the root, a vertex's
parent is the nearest earlier vertex that contains it, and the ray toward
a finite puncture starts at the last vertex that contains it.  Every
vertex contains an anchor, and the retraction is the identity on the
tree, so ``retract`` costs one join per anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .metric_graph import MetricGraph
from .points import Type1, Type2, join
from .puiseux import PuiseuxElement, val_diff_pair


def puncture_label(p: Type1) -> str:
    """A puncture's marking, for display; punctures compare by value."""
    return "inf" if p.is_infinity() else str(p.value)


def _point_key(x: Type2):
    # by value: the int tuples of the terms would sort 1/2 before 2/5
    return (x.s, x.center.pairs())


def _contains(outer: Type2, inner: Type2) -> bool:
    """Ball containment: outer >= inner."""
    return outer.s <= inner.s and _contains_type1(outer, inner.center)


def _contains_type1(outer: Type2, value: PuiseuxElement) -> bool:
    """val(outer.center - value) >= outer.s, compared in ints."""
    v = val_diff_pair(outer.center.terms, value.terms)
    return v is None or (v[0] * outer.s.denominator
                         >= outer.s.numerator * v[1])


@dataclass(frozen=True)
class SkeletonTree:
    graph: MetricGraph
    placement: dict            # vertex id -> Type2
    ray_target: dict           # marking label -> Type1 puncture
    anchors: tuple             # finite punctures (Type1) and extra vertices
    has_infinity: bool

    def root_id(self) -> str:
        return "v0"

    def root_point(self) -> Type2:
        return self.placement[self.root_id()]

    def vertex_at(self, point: Type2):
        for vid, p in self.placement.items():
            if p == point:
                return vid
        return None


def build_skeleton_tree(punctures, extra_vertices=()) -> SkeletonTree:
    """Metric tree spanned by all pairwise joins of the punctures and the
    extra vertices, with one ray per puncture."""
    punctures = list(punctures)
    if len(punctures) < 2:
        raise ValueError("need at least two punctures to span a skeleton")
    if len(set(punctures)) != len(punctures):
        raise ValueError("punctures must be pairwise distinct")
    finite = [p for p in punctures if not p.is_infinity()]
    has_inf = len(finite) < len(punctures)

    anchors = list(finite) + [Type2(v.center, v.s) for v in extra_vertices]
    points = {join(a, b) for i, a in enumerate(anchors)
              for b in anchors[i + 1:]}
    points.update(extra_vertices)
    if len(finite) == 1:
        # the two-puncture line {a, inf}: canonical vertex at radius 0
        points.add(Type2(finite[0].value, Fraction(0)))

    placed = sorted(points, key=_point_key)
    placement = {f"v{i}": p for i, p in enumerate(placed)}
    ids = list(placement)

    # the balls containing a vertex form a chain of smaller radii, so the
    # nearest earlier one that contains it is its parent
    edges = []
    for k in range(1, len(placed)):
        p = placed[k]
        j = next(j for j in range(k - 1, -1, -1) if _contains(placed[j], p))
        edges.append((ids[j], ids[k], p.s - placed[j].s))

    rays = []
    ray_target = {}
    for p in punctures:
        label = puncture_label(p)
        if p.is_infinity():
            base = 0
        else:  # the deepest ball containing the puncture
            base = next(j for j in range(len(placed) - 1, -1, -1)
                        if _contains_type1(placed[j], p.value))
        rays.append((ids[base], label))
        ray_target[label] = p

    graph = MetricGraph.make(
        [(vid, 0) for vid in ids], edges, rays
    )
    return SkeletonTree(
        graph=graph,
        placement=placement,
        ray_target=ray_target,
        anchors=tuple(anchors),
        has_infinity=has_inf,
    )


def retract(x, tree: SkeletonTree):
    """Closest point of the tree's realization to x (the entry point of
    x's complement component into the skeleton).  Idempotent on tree
    points; punctures retract to the base vertex of their ray."""
    if isinstance(x, Type1):
        if x.is_infinity():
            return tree.root_point()
        for label, target in tree.ray_target.items():
            if x == target:
                base = next(b for b, m in tree.graph.rays if m == label)
                return tree.placement[base]

    best = max((join(x, a) for a in tree.anchors), key=lambda j: j.s)
    if not tree.has_infinity:
        rp = tree.root_point()
        if best.s < rp.s:
            return rp
    return best
