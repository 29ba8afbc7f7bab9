"""Skeleton trees inside the Berkovich projective line.

The skeleton spanned by a puncture set D (plus optional extra type-2
vertices) is the convex hull of D: a finite metric tree whose vertices are
pairwise joins, with one ray per puncture.  Vertices are balls nested under
containment; the root is the smallest ball containing every finite anchor,
and the ray toward infinity (when infinity is a puncture) leaves the tree
through the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .metric_graph import MetricGraph
from .points import INFINITY, Type1, Type2, join
from .puiseux import PuiseuxElement, val_diff


def puncture_label(p: Type1) -> str:
    return "inf" if p.is_infinity() else str(p.value)


def _point_key(x: Type2):
    return (x.s, tuple(x.center.terms))


def _contains(outer: Type2, inner: Type2) -> bool:
    """Ball containment: outer >= inner."""
    return outer.s <= inner.s and (
        val_diff(outer.center, inner.center) >= outer.s
    )


def _contains_type1(outer: Type2, value: PuiseuxElement) -> bool:
    return val_diff(outer.center, value) >= outer.s


@dataclass(frozen=True)
class SkeletonTree:
    graph: MetricGraph
    placement: dict            # vertex id -> Type2
    ray_target: dict           # marking label -> Type1 puncture
    anchors: tuple             # finite punctures (Type1) and extra vertices
    has_infinity: bool

    def root_id(self) -> str:
        return min(self.placement, key=lambda v: _point_key(self.placement[v]))

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
    if len(set(map(puncture_label, punctures))) != len(punctures):
        raise ValueError("punctures must be pairwise distinct")
    finite = [p for p in punctures if not p.is_infinity()]
    has_inf = len(finite) < len(punctures)

    anchors = list(finite) + [Type2(v.center, v.s) for v in extra_vertices]
    points: dict[tuple, Type2] = {}

    def add(pt: Type2):
        points.setdefault(_point_key(pt), pt)

    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            add(join(anchors[i], anchors[j]))
    for v in extra_vertices:
        add(v)
    if len(finite) == 1:
        # the two-puncture line {a, inf}: canonical vertex at radius 0
        add(Type2(finite[0].value, Fraction(0)))

    placed = sorted(points.values(), key=_point_key)
    placement = {f"v{i}": p for i, p in enumerate(placed)}
    ids = list(placement)

    # parent = deepest strictly-containing ball
    edges = []
    for vid in ids:
        p = placement[vid]
        best = None
        for uid in ids:
            if uid == vid:
                continue
            q = placement[uid]
            if q != p and _contains(q, p):
                if best is None or placement[best].s < q.s:
                    best = uid
        if best is not None:
            edges.append((best, vid, p.s - placement[best].s))

    rays = []
    ray_target = {}
    root = min(ids, key=lambda v: _point_key(placement[v]))
    for p in punctures:
        label = puncture_label(p)
        if p.is_infinity():
            base = root
        else:
            containing = [
                v for v in ids if _contains_type1(placement[v], p.value)
            ]
            base = max(containing, key=lambda v: placement[v].s)
        rays.append((base, label))
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

    candidates = list(tree.anchors) + list(tree.placement.values())
    best = None
    for c in candidates:
        if c == x:
            continue
        j = join(x, c)
        if isinstance(j, Type1):
            continue
        if best is None or j.s > best.s:
            best = j
    if best is None:
        # x coincides with the unique anchor; fall back to the root
        return tree.root_point()
    if not tree.has_infinity:
        rp = tree.root_point()
        if best.s < rp.s:
            return rp
    return best
