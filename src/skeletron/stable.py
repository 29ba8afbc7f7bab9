"""Stabilization of marked weighted metric graphs.

A vertex set is stable when no weight-0 vertex has valence below three
(valence counts rays once and loop edges twice).  For negative Euler
characteristic, repeatedly removing weight-0 vertices of valence one and
merging through weight-0 vertices of valence two reaches the unique stable
graph; the removal order does not matter up to isomorphism.

``stabilize`` fixes one order: the valence-1 rule before the valence-2
rule, and within a rule the lowest vertex id in string order ("v10" comes
before "v2").  It indexes the graph once (incident edge ids, valence, loop
and ray counts per vertex) and keeps one min-heap of vertex ids per rule,
with stale entries skipped when popped.  A prune updates only the one or
two neighbours it touches and pushes a neighbour again when it starts to
qualify, so the whole reduction costs O((V + E) log V) instead of a rescan
and a rebuild of the graph per prune.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .metric_graph import MetricGraph, euler_char, total_genus

CHI_ZERO_DIAGNOSTIC = (
    "Euler characteristic is zero: minimal vertex sets are non-unique "
    "(genus 0 with two markings, or genus 1 with no markings); "
    "stabilization is not defined"
)

VALENCE1, VALENCE2 = "valence1", "valence2"


def _counts(g: MetricGraph) -> dict:
    """[valence, loop edges, rays] per vertex, from one pass over the
    edges and rays."""
    counts = {v: [0, 0, 0] for v, _ in g.vertices}
    for u, v, _ in g.edges:
        counts[u][0] += 1
        counts[v][0] += 1
        counts[u][1] += u == v
    for b, _ in g.rays:
        counts[b][0] += 1
        counts[b][2] += 1
    return counts


def _rule(w: int, valence: int, loops: int, rays: int):
    """The prune rule that applies at a vertex with these counts, or None.

    Valence 1: the single incidence is a non-loop edge; a vertex whose
    only incidence is a ray is kept, as its one neighbor is a marking.
    Valence 2: two distinct non-loop segments (edges or rays), not both
    of them rays, as both far endpoints would then be markings.
    """
    if w != 0:
        return None
    if valence == 1 and rays == 0:
        return VALENCE1
    if valence == 2 and loops == 0 and rays != 2:
        return VALENCE2
    return None


def _apply_valence1(g: MetricGraph, v: str) -> MetricGraph:
    edges = [e for e in g.edges if v not in e[:2]]
    vertices = tuple(x for x in g.vertices if x[0] != v)
    return MetricGraph.make(vertices, edges, g.rays)


def _apply_valence2(g: MetricGraph, v: str) -> MetricGraph:
    inc = [i for i, (a, b, _) in enumerate(g.edges) if v in (a, b)]
    vertices = tuple(x for x in g.vertices if x[0] != v)
    edges = [e for i, e in enumerate(g.edges) if i not in inc]
    rays = list(g.rays)
    if len(inc) == 2:
        # merge two edges through v into one of summed length
        (a1, b1, l1) = g.edges[inc[0]]
        (a2, b2, l2) = g.edges[inc[1]]
        y1 = b1 if a1 == v else a1
        y2 = b2 if a2 == v else a2
        edges.append((y1, y2, l1 + l2))
    else:
        # one edge and one ray: the ray absorbs the edge
        (a, b, _) = g.edges[inc[0]]
        y = b if a == v else a
        k = next(i for i, (base, _) in enumerate(rays) if base == v)
        rays[k] = (y, rays[k][1])
    return MetricGraph.make(vertices, edges, rays)


def prune_candidates(g: MetricGraph):
    """All applicable single prune moves, as (rule, vertex) pairs: the
    valence-1 moves, then the valence-2 moves, each in vertex order."""
    counts = _counts(g)
    moves = [(_rule(w, *counts[v]), v) for v, w in g.vertices]
    return [m for m in moves if m[0] == VALENCE1] + [
        m for m in moves if m[0] == VALENCE2
    ]


def apply_prune(g: MetricGraph, rule: str, v: str) -> MetricGraph:
    if rule == VALENCE1:
        return _apply_valence1(g, v)
    if rule == VALENCE2:
        return _apply_valence2(g, v)
    raise ValueError(f"unknown rule {rule}")


def prune_step(g: MetricGraph):
    """One deterministic prune: valence-1 rule first, lowest vertex id
    first.  Returns (graph, rule, vertex) or None at a fixed point."""
    moves = prune_candidates(g)
    if not moves:
        return None
    rule, v = min(moves)  # "valence1" < "valence2", then by vertex id
    return apply_prune(g, rule, v), rule, v


def is_stable(g: MetricGraph) -> bool:
    counts = _counts(g)
    return all(w > 0 or counts[v][0] >= 3 for v, w in g.vertices)


@dataclass(frozen=True)
class StabilizationReport:
    input: MetricGraph
    output: MetricGraph
    steps: tuple[tuple[str, str], ...]  # (rule, removed vertex id)
    chi: int


def stabilize(g: MetricGraph) -> StabilizationReport:
    """Prune to the stable graph.  Requires negative Euler characteristic;
    the two chi = 0 cases have non-unique minimal vertex sets and are
    rejected with a diagnostic.

    The steps and the output are those of ``prune_step`` repeated to a
    fixed point: surviving edges keep their order, a merged edge is
    appended, read from the earlier of the two edges it replaces, and a
    ray that absorbs an edge keeps its place.
    """
    chi = euler_char(g)
    if chi >= 0:
        raise ValueError(CHI_ZERO_DIAGNOSTIC if chi == 0 else
                         f"Euler characteristic {chi} > 0: no skeleton")
    weight = dict(g.vertices)  # live vertices
    counts = _counts(g)
    # edge id -> edge; ids only grow, so dict order is the edge order
    edges = dict(enumerate(g.edges))
    incident = {v: set() for v in weight}
    for i, (a, b, _) in edges.items():
        incident[a].add(i)
        incident[b].add(i)
    rays = list(g.rays)
    ray_at = {v: [] for v in weight}
    for k, (b, _) in enumerate(rays):
        ray_at[b].append(k)
    heaps = {VALENCE1: [], VALENCE2: []}

    def push(v):
        rule = _rule(weight[v], *counts[v])
        if rule:
            heapq.heappush(heaps[rule], v)

    def pop(rule):
        heap = heaps[rule]
        while heap:
            v = heapq.heappop(heap)
            if v in weight and _rule(weight[v], *counts[v]) == rule:
                return v
        return None

    def add_edge(i, a, b, length):
        edges[i] = (a, b, length)
        for x in (a, b):
            incident[x].add(i)
            counts[x][0] += 1
        counts[a][1] += a == b

    def remove_edge(i, v):
        """Drop edge i at v; return its other endpoint and its length."""
        a, b, length = edges.pop(i)
        for x in (a, b):
            incident[x].discard(i)
            counts[x][0] -= 1
        counts[a][1] -= a == b
        return (b if a == v else a), length

    for v in weight:
        push(v)
    steps = []
    next_id = len(edges)
    while True:
        rule = VALENCE1
        v = pop(VALENCE1)
        if v is None:
            rule = VALENCE2
            v = pop(VALENCE2)
            if v is None:
                break
        steps.append((rule, v))
        del weight[v]
        ids = sorted(incident[v])
        if rule == VALENCE1:
            y, _ = remove_edge(ids[0], v)
            push(y)
        elif len(ids) == 2:
            # merge two edges through v into one of summed length
            y1, l1 = remove_edge(ids[0], v)
            y2, l2 = remove_edge(ids[1], v)
            add_edge(next_id, y1, y2, l1 + l2)
            next_id += 1
            # y1 and y2 keep their counts, or gain a loop if y1 == y2:
            # neither can start to qualify
        else:
            # one edge and one ray: the ray absorbs the edge
            y, _ = remove_edge(ids[0], v)
            k = ray_at[v][0]
            rays[k] = (y, rays[k][1])
            ray_at[y].append(k)
            counts[y][0] += 1
            counts[y][2] += 1
            push(y)
    out = MetricGraph.make(
        [x for x in g.vertices if x[0] in weight], edges.values(), rays
    )
    if not is_stable(out):
        raise AssertionError("pruning stopped before stability")
    return StabilizationReport(input=g, output=out, steps=tuple(steps), chi=chi)


def minimal_vertex_characterization(g: MetricGraph) -> set:
    """Vertices that must belong to any semistable vertex set: valence at
    least three or positive weight.  Equals the full vertex set exactly
    when the graph is stable."""
    counts = _counts(g)
    return {v for v, w in g.vertices if w > 0 or counts[v][0] >= 3}


def tate_skeleton(val_j) -> MetricGraph:
    """Skeleton of an elliptic curve from the valuation of its j-invariant.

    Multiplicative reduction (val j < 0): a circle of circumference
    -val(j).  Otherwise good reduction: a single weight-1 vertex.
    """
    val_j = Fraction(val_j)
    if val_j < 0:
        return MetricGraph.make([("v0", 0)], [("v0", "v0", -val_j)], [])
    return MetricGraph.make([("v0", 1)], [], [])


def abstract_tropicalization(g: int, n: int, graph: MetricGraph):
    """Package a genus-g, n-marked graph as a point of the tropical moduli
    space: checks the numerics, stabilizes when 2-2g-n < 0, and flags the
    boundary case 2-2g-n = 0 (returned unmodified).

    Returns (graph, stabilized: bool).
    """
    if 2 - 2 * g - n > 0:
        raise ValueError(f"2-2g-n = {2 - 2 * g - n} > 0: no tropical curve")
    if len(graph.rays) != n:
        raise ValueError(f"graph has {len(graph.rays)} markings, expected {n}")
    if total_genus(graph) != g:
        raise ValueError(
            f"graph has genus {total_genus(graph)}, expected {g}"
        )
    if 2 - 2 * g - n == 0:
        return graph, False
    return stabilize(graph).output, True
