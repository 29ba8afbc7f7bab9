"""Skeleton trees inside the Berkovich projective line.

The skeleton spanned by a puncture set D (plus optional extra type-2
vertices) is the convex hull of D: a finite metric tree whose vertices are
pairwise joins, with one ray per puncture.  Vertices are balls nested under
containment; the root is the smallest ball containing every finite anchor,
and the ray toward infinity (when infinity is a puncture) leaves the tree
through the root.

The tree is read off the ball order of ``_compare``.  On field elements it
is the ultrametric order: x < y when, at the first exponent where their
coefficients differ, x's coefficient is smaller (a missing term counts as
0).  A closed ball (c, s) is the set of elements that agree with c below
exponent s, so it is a contiguous run of that order; it sorts just before
the run, so the order is a depth-first preorder of all balls and points.
Three facts follow for anchors sorted this way:

* the join of two anchors is the largest join of adjacent anchors between
  them, so the n - 1 adjacent joins are all the pairwise joins, and two of
  them are one ball iff they have the same radius and none between them
  has a smaller one;
* a vertex's parent is the deeper of the nearest joins of smaller radius
  on its left and on its right, found for all of them in one stack pass
  (the Cartesian tree of an LCP array, Kasai et al. 2001);
* the deepest vertex containing an anchor, its ray base or its parent, is
  the deeper of its two adjacent joins, and the deepest join of any point
  with an anchor is its join with a neighbour of its insertion position.

So a build costs n - 1 joins and O(n log n) comparisons.  The tree keeps
its anchors (finite punctures, extra vertices and, on a two-puncture line
{a, inf}, the ball (a, 0)) distinct and sorted in this order, so
``retract`` costs a bisection and two joins; a puncture retracts to its
ray base by one lookup.

The vertex set is closed under joins, and ``v0, v1, ...`` number it in
``_point_key`` order, radius first.  So ``v0`` is the root, a vertex's
parent is the nearest earlier vertex that contains it, and the ray toward
a finite puncture starts at the last vertex that contains it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .metric_graph import MetricGraph
from .points import Type1, Type2, join


def puncture_label(p: Type1) -> str:
    """A puncture's marking, for display; punctures compare by value."""
    return "inf" if p.is_infinity() else str(p.value)


def _point_key(x: Type2):
    # by value: the int tuples of the terms would sort 1/2 before 2/5
    return (x.s, x.center.pairs())


def _compare(x, y) -> int:
    """Ball order of two finite points (type-1 points count as balls of
    radius +inf): -1, 0 or 1 as x sorts before, equal to or after y.

    Let e be the first exponent where the centres' coefficients differ.
    If e is below both radii, the balls are disjoint, and the one whose
    centre has the smaller coefficient at e sorts first.  Otherwise, or
    with equal centres, one ball contains the other and the larger one
    sorts first.  Compared in ints on the term tuples; ``sign`` is that of
    x's coefficient at e minus y's."""
    if isinstance(x, Type2):
        cx, sx = x.center.terms, x.s
    else:
        cx, sx = x.value.terms, None
    if isinstance(y, Type2):
        cy, sy = y.center.terms, y.s
    else:
        cy, sy = y.value.terms, None
    for u, v in zip(cx, cy):
        if u != v:
            d = u[0] * v[1] - v[0] * u[1]
            if d < 0:    # the term u is x's alone: y's coefficient is 0
                e, sign = u, u[2]
            elif d > 0:  # the term v is y's alone
                e, sign = v, -v[2]
            else:
                e, sign = u, u[2] * v[3] - v[2] * u[3]
            break
    else:
        n = len(cy)
        if len(cx) > n:
            e = cx[n]
            sign = e[2]
        elif len(cx) < n:
            e = cy[len(cx)]
            sign = -e[2]
        else:
            e = None
    larger = sy is None or (sx is not None and sx < sy)  # x's radius is less
    if e is not None:
        s = sx if larger else sy
        if s is None or e[0] * s.denominator < s.numerator * e[1]:
            return -1 if sign < 0 else 1
    if sx == sy:
        return 0
    return -1 if larger else 1


_BALL_ORDER = cmp_to_key(_compare)


@dataclass(frozen=True)
class SkeletonTree:
    graph: MetricGraph
    placement: dict            # vertex id -> Type2
    ray_target: dict           # marking label -> Type1 puncture
    # the finite punctures (Type1) and extra vertices, plus the ball (a, 0)
    # on a two-puncture line {a, inf}: distinct, in ``_compare`` order
    anchors: tuple
    has_infinity: bool

    def root_id(self) -> str:
        return "v0"

    def root_point(self) -> Type2:
        return self.placement[self.root_id()]

    @cached_property
    def ray_base(self) -> dict:
        """Puncture (Type1) -> id of its ray's base vertex."""
        return {self.ray_target[m]: b for b, m in self.graph.rays}

    def vertex_at(self, point: Type2):
        for vid, p in self.placement.items():
            if p == point:
                return vid
        return None


def build_skeleton_tree(punctures, extra_vertices=()) -> SkeletonTree:
    """Metric tree spanned by all pairwise joins of the punctures and the
    extra vertices, with one ray per puncture."""
    punctures, extras = list(punctures), list(extra_vertices)
    for what, points, kind in (("punctures", punctures, Type1),
                               ("extra_vertices", extras, Type2)):
        for i, p in enumerate(points):
            if not isinstance(p, kind):
                raise ValueError(f"{what}[{i}] must be a type-"
                                 f"{1 if kind is Type1 else 2} point")
    if len(punctures) < 2:
        raise ValueError("need at least two punctures to span a skeleton")
    if len(set(punctures)) != len(punctures):
        raise ValueError("punctures must be pairwise distinct")
    finite = [p for p in punctures if not p.is_infinity()]
    has_inf = len(finite) < len(punctures)

    seeds = set(finite)
    seeds.update(extras)
    if len(finite) == 1:
        # the two-puncture line {a, inf}: canonical vertex at radius 0
        seeds.add(Type2(finite[0].value, Fraction(0)))
    anchors = sorted(seeds, key=_BALL_ORDER)

    # one stack pass over the adjacent joins: the stack holds the vertices
    # of the open chain, radius increasing; a join pops the deeper ones,
    # the last of which hangs below it, and merges with an equal radius
    balls = []     # the vertices, as found
    parent = []    # index in balls of each vertex's parent; None at the root
    of_join = []   # index in balls of each adjacent join
    stack = []
    for a, b in zip(anchors, anchors[1:]):
        j = join(a, b)
        last = None
        while stack and balls[stack[-1]].s > j.s:
            last = stack.pop()
        if stack and balls[stack[-1]].s == j.s:
            k = stack[-1]
        else:
            k = len(balls)
            balls.append(j)
            parent.append(stack[-1] if stack else None)
            stack.append(k)
        if last is not None:
            parent[last] = k
        of_join.append(k)

    # the deeper adjacent join: a puncture's ray base, and the parent of an
    # extra vertex that contains no other anchor (a leaf of its own)
    base_of = {}
    for i, a in enumerate(anchors):
        near = of_join[max(i - 1, 0):i + 1]
        below = max(near, key=lambda k: balls[k].s)
        if isinstance(a, Type1):
            base_of[a] = below
        elif balls[below] != a:
            balls.append(a)
            parent.append(below)

    order = sorted(range(len(balls)), key=lambda k: _point_key(balls[k]))
    ids = {k: f"v{n}" for n, k in enumerate(order)}
    edges = [(ids[parent[k]], ids[k], balls[k].s - balls[parent[k]].s)
             for k in order[1:]]
    rays = []
    ray_target = {}
    for p in punctures:
        label = puncture_label(p)
        rays.append(("v0" if p.is_infinity() else ids[base_of[p]], label))
        ray_target[label] = p

    graph = MetricGraph.make([(ids[k], 0) for k in order], edges, rays)
    return SkeletonTree(
        graph=graph,
        placement={ids[k]: balls[k] for k in order},
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
        base = tree.ray_base.get(x)
        if base is not None:
            return tree.placement[base]

    i = bisect_left(tree.anchors, _BALL_ORDER(x), key=_BALL_ORDER)
    best = max((join(x, a) for a in tree.anchors[max(i - 1, 0):i + 1]),
               key=lambda j: j.s)
    if not tree.has_infinity:
        rp = tree.root_point()
        if best.s < rp.s:
            return rp
    return best
