"""Stabilization of marked weighted metric graphs.

A vertex set is stable when no weight-0 vertex has valence below three
(valence counts rays once and loop edges twice).  For negative Euler
characteristic, repeatedly removing weight-0 vertices of valence one and
merging through weight-0 vertices of valence two reaches the unique stable
graph; the removal order does not matter up to isomorphism.

``stabilize`` fixes one order: the valence-1 rule before the valence-2
rule, and within a rule the lowest vertex id in string order ("v10" comes
before "v2").  It reads the graph's incidence (``MetricGraph.incidence``:
incident edge and ray ids per vertex, whence valence, loop and ray counts)
into a mutable index and keeps one min-heap of vertex ids per rule,
with stale entries skipped when popped.  A prune updates only the one or
two neighbours it touches and pushes a neighbour again when it starts to
qualify, so the whole reduction costs O((V + E) log V) instead of a rescan
and a rebuild of the graph per prune.  ``apply_prune`` and ``prune_step``
make their single move on the same index.
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


def _counts(es: list, rs: list) -> list:
    """[valence, loop edges, rays] of a vertex with incident edge ids es
    (a loop listed twice) and ray ids rs."""
    return [len(es) + len(rs), len(es) - len(set(es)), len(rs)]


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


class _PruneIndex:
    """A graph under pruning: live vertices, edges keyed by a growing id
    (so dict order is edge order), incident edge ids and counts per
    vertex, and the ray list."""

    def __init__(self, g: MetricGraph):
        inc = g.incidence
        self.vertices = g.vertices
        self.weight = dict(g.vertices)  # live vertices
        self.counts = {v: _counts(es, rs) for v, (_, es, rs) in inc.items()}
        self.incident = {v: set(es) for v, (_, es, _) in inc.items()}
        self.ray_at = {v: list(rs) for v, (_, _, rs) in inc.items()}
        self.edges = dict(enumerate(g.edges))
        self.rays = list(g.rays)
        self.next_id = len(self.edges)

    def rule(self, v):
        """The prune rule that applies at a live vertex v, or None."""
        w = self.weight.get(v)
        return None if w is None else _rule(w, *self.counts[v])

    def _remove_edge(self, i, v):
        """Drop edge i at v; return its other endpoint and its length."""
        a, b, length = self.edges.pop(i)
        for x in (a, b):
            self.incident[x].discard(i)
            self.counts[x][0] -= 1
        self.counts[a][1] -= a == b
        return (b if a == v else a), length

    def prune(self, rule, v):
        """Apply rule at v; return the neighbours that may now qualify."""
        del self.weight[v]
        ids = sorted(self.incident[v])
        if rule == VALENCE1:
            y, _ = self._remove_edge(ids[0], v)
            return (y,)
        if len(ids) == 2:
            # merge two edges through v into one of summed length; y1 and
            # y2 keep their counts, or gain a loop if y1 == y2, so neither
            # can start to qualify
            y1, l1 = self._remove_edge(ids[0], v)
            y2, l2 = self._remove_edge(ids[1], v)
            i, self.next_id = self.next_id, self.next_id + 1
            self.edges[i] = (y1, y2, l1 + l2)
            for x in (y1, y2):
                self.incident[x].add(i)
                self.counts[x][0] += 1
            self.counts[y1][1] += y1 == y2
            return ()
        # one edge and one ray: the ray absorbs the edge
        y, _ = self._remove_edge(ids[0], v)
        k = self.ray_at[v][0]
        self.rays[k] = (y, self.rays[k][1])
        self.ray_at[y].append(k)
        self.counts[y][0] += 1
        self.counts[y][2] += 1
        return (y,)

    def graph(self) -> MetricGraph:
        return MetricGraph.make(
            [x for x in self.vertices if x[0] in self.weight],
            self.edges.values(), self.rays,
        )


def prune_candidates(g: MetricGraph):
    """All applicable single prune moves, as (rule, vertex) pairs: the
    valence-1 moves, then the valence-2 moves, each in vertex order."""
    moves = [(_rule(w, *_counts(es, rs)), v)
             for v, (w, es, rs) in g.incidence.items()]
    return [m for m in moves if m[0] == VALENCE1] + [
        m for m in moves if m[0] == VALENCE2
    ]


def apply_prune(g: MetricGraph, rule: str, v: str) -> MetricGraph:
    """The graph after one prune move; ValueError unless it applies."""
    index = _PruneIndex(g)
    if rule is None or index.rule(v) != rule:
        raise ValueError(f"rule {rule!r} does not apply at vertex {v!r}")
    index.prune(rule, v)
    return index.graph()


def prune_step(g: MetricGraph):
    """One deterministic prune: valence-1 rule first, lowest vertex id
    first.  Returns (graph, rule, vertex) or None at a fixed point."""
    moves = prune_candidates(g)
    if not moves:
        return None
    rule, v = min(moves)  # "valence1" < "valence2", then by vertex id
    return apply_prune(g, rule, v), rule, v


def is_stable(g: MetricGraph) -> bool:
    return minimal_vertex_characterization(g) == set(g.vertex_ids())


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
    index = _PruneIndex(g)
    # the rule test of index.rule, inlined in the hot loop
    weight, counts = index.weight, index.counts
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

    for v in weight:
        push(v)
    steps = []
    while True:
        rule = VALENCE1
        v = pop(VALENCE1)
        if v is None:
            rule = VALENCE2
            v = pop(VALENCE2)
            if v is None:
                break
        steps.append((rule, v))
        for y in index.prune(rule, v):
            push(y)
    out = index.graph()
    if not is_stable(out):
        raise AssertionError("pruning stopped before stability")
    return StabilizationReport(input=g, output=out, steps=tuple(steps), chi=chi)


def minimal_vertex_characterization(g: MetricGraph) -> set:
    """Vertices that must belong to any semistable vertex set: valence at
    least three or positive weight.  Equals the full vertex set exactly
    when the graph is stable."""
    return {v for v, (w, es, rs) in g.incidence.items()
            if w > 0 or len(es) + len(rs) >= 3}


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
