"""Vertex-weighted metric graphs with rational edge lengths and rays.

These are dimension-1 polyhedral complexes over the rational value group:
finitely many weighted vertices, finite edges of positive rational length
(loops and parallel edges allowed), and rays (infinite edges) based at
vertices and labeled by pairwise-distinct markings.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MetricGraph:
    vertices: tuple[tuple[str, int], ...]       # (id, genus weight >= 0)
    edges: tuple[tuple[str, str, Fraction], ...]  # (u, v, length > 0)
    rays: tuple[tuple[str, str], ...]           # (base vertex, marking)

    @staticmethod
    def make(vertices, edges=(), rays=()) -> "MetricGraph":
        vs = tuple((str(i), w) for i, w in vertices)
        es = tuple((str(u), str(v), Fraction(l)) for u, v, l in edges)
        rs = tuple((str(b), str(m)) for b, m in rays)
        ids = [i for i, _ in vs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        idset = set(ids)
        for i, w in vs:
            if type(w) is not int:  # also rejects a JSON true or false
                raise ValueError(f"weight {w!r} at {i} is not an integer")
            if w < 0:
                raise ValueError(f"negative weight at {i}")
        for u, v, l in es:
            if u not in idset or v not in idset:
                raise ValueError(f"edge ({u},{v}) has unknown endpoint")
            if l <= 0:
                raise ValueError(f"edge ({u},{v}) has non-positive length {l}")
        marks = [m for _, m in rs]
        if len(set(marks)) != len(marks):
            raise ValueError("marking labels must be pairwise distinct")
        for b, _ in rs:
            if b not in idset:
                raise ValueError(f"ray based at unknown vertex {b}")
        g = MetricGraph(vs, es, rs)
        if not g.is_connected():
            raise ValueError("graph must be connected")
        return g

    def vertex_ids(self) -> list[str]:
        return [i for i, _ in self.vertices]

    def weight(self, v: str) -> int:
        for i, w in self.vertices:
            if i == v:
                return w
        raise KeyError(v)

    def is_connected(self) -> bool:
        ids = self.vertex_ids()
        if not ids:
            return False
        adj: dict[str, set[str]] = {i: set() for i in ids}
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(ids)

    def valence(self, v: str) -> int:
        """Tangent directions at v inside the graph: edge ends (a loop
        contributes two) plus rays."""
        n = 0
        for u, w, _ in self.edges:
            n += (u == v) + (w == v)
        n += sum(1 for b, _ in self.rays if b == v)
        return n

    def incident_edges(self, v: str) -> list[int]:
        return [
            i for i, (u, w, _) in enumerate(self.edges) if v in (u, w)
        ]


@dataclass(frozen=True)
class PLFunction:
    """Function on a metric graph, affine with integer slope on each edge.

    edge_slopes[i] is the slope of edges[i] read from u to v; the slope
    read the other way is its negative.  Rays carry a slope instead of a
    far-end value (the function tends to +/-inf toward a puncture).
    """

    graph: MetricGraph
    vertex_values: dict      # vertex id -> Fraction
    edge_slopes: dict        # edge index -> int (u -> v direction)
    ray_slopes: dict         # marking -> int (outgoing from the base)

    def validate(self):
        for i, (u, v, l) in enumerate(self.graph.edges):
            delta = self.vertex_values[v] - self.vertex_values[u]
            if delta != self.edge_slopes[i] * l:
                raise ValueError(
                    f"edge {i} ({u},{v}): value jump {delta} != "
                    f"slope {self.edge_slopes[i]} * length {l}"
                )
        return self

    def slope_from(self, edge_index: int, vertex: str) -> int:
        """Outgoing slope of edges[edge_index] read away from vertex."""
        u, v, _ = self.graph.edges[edge_index]
        if vertex == u:
            return self.edge_slopes[edge_index]
        if vertex == v:
            return -self.edge_slopes[edge_index]
        raise ValueError(f"{vertex} is not an endpoint of edge {edge_index}")


def betti1(g: MetricGraph) -> int:
    """First Betti number #edges - #vertices + 1 (rays excluded)."""
    if not g.is_connected():
        raise ValueError("betti1 needs a connected graph")
    return len(g.edges) - len(g.vertices) + 1


def total_genus(g: MetricGraph) -> int:
    """Sum of vertex weights plus the first Betti number."""
    return sum(w for _, w in g.vertices) + betti1(g)


def euler_char(g: MetricGraph) -> int:
    """2 - 2*genus - #markings."""
    return 2 - 2 * total_genus(g) - len(g.rays)


def fresh_vertex_id(g: MetricGraph) -> str:
    """The first of w0, w1, ... that is not a vertex of g."""
    ids = set(g.vertex_ids())
    for k in itertools.count():
        cand = f"w{k}"
        if cand not in ids:
            return cand


def refine(g: MetricGraph, edge_index: int, position) -> MetricGraph:
    """Split an edge at an interior point, inserting a fresh weight-0
    vertex.  Genus, Euler characteristic, and the metric are unchanged."""
    position = Fraction(position)
    u, v, length = g.edges[edge_index]
    if not (0 < position < length):
        raise ValueError(f"position {position} outside (0, {length})")
    mid = fresh_vertex_id(g)
    edges = list(g.edges)
    edges[edge_index : edge_index + 1] = [
        (u, mid, position),
        (mid, v, length - position),
    ]
    return MetricGraph(g.vertices + ((mid, 0),), tuple(edges), g.rays)


def shortest_path(g: MetricGraph, u: str, v: str) -> Fraction:
    """Exact least total length over paths (Dijkstra with rational weights)."""
    if u == v:
        return Fraction(0)
    dist = {u: Fraction(0)}
    heap = [(Fraction(0), u)]
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        if x == v:
            return d
        done.add(x)
        for a, b, l in g.edges:
            if x in (a, b):
                y = b if x == a else a
                nd = d + l
                if y not in dist or nd < dist[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
    raise ValueError(f"no path from {u} to {v}")


def is_strongly_semistable(g: MetricGraph) -> bool:
    """True iff the graph has no loop edges."""
    return all(u != v for u, v, _ in g.edges)


def make_loopless(g: MetricGraph) -> MetricGraph:
    """Refine every loop at its midpoint, producing a loop-free refinement."""
    while True:
        loop = next(
            (i for i, (u, v, _) in enumerate(g.edges) if u == v), None
        )
        if loop is None:
            return g
        g = refine(g, loop, g.edges[loop][2] / 2)


def _vertex_signature(g: MetricGraph, v: str):
    lengths = sorted(l for u, w, l in g.edges if v in (u, w))
    marks = sorted(m for b, m in g.rays if b == v)
    return (g.weight(v), g.valence(v), tuple(lengths), tuple(marks))


def is_isomorphic(g1: MetricGraph, g2: MetricGraph) -> bool:
    """Brute-force isomorphism preserving weights, ray markings, and the
    length multiset of edges between each vertex pair.  Bounded to 12
    vertices."""
    if len(g1.vertices) > 12 or len(g2.vertices) > 12:
        raise ValueError("is_isomorphic is limited to 12 vertices")
    if (
        len(g1.vertices) != len(g2.vertices)
        or len(g1.edges) != len(g2.edges)
        or len(g1.rays) != len(g2.rays)
    ):
        return False

    def edge_multiset(g, phi=None):
        out: dict[tuple[str, str], list[Fraction]] = {}
        for u, v, l in g.edges:
            a, b = (phi[u], phi[v]) if phi else (u, v)
            key = (min(a, b), max(a, b))
            out.setdefault(key, []).append(l)
        return {k: sorted(v) for k, v in out.items()}

    sig1 = {v: _vertex_signature(g1, v) for v in g1.vertex_ids()}
    sig2 = {v: _vertex_signature(g2, v) for v in g2.vertex_ids()}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    target_edges = edge_multiset(g2)
    target_rays = {m: b for b, m in g2.rays}
    ids1 = g1.vertex_ids()

    def candidates(v):
        return [w for w in g2.vertex_ids() if sig2[w] == sig1[v]]

    def backtrack(i, phi, used):
        if i == len(ids1):
            return edge_multiset(g1, phi) == target_edges
        v = ids1[i]
        for w in candidates(v):
            if w in used:
                continue
            # ray markings pin vertices exactly
            ok = all(
                target_rays.get(m) == w
                for b, m in g1.rays
                if b == v
            )
            if not ok:
                continue
            phi[v] = w
            if backtrack(i + 1, phi, used | {w}):
                return True
            del phi[v]
        return False

    return backtrack(0, {}, set())
