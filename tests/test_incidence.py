"""The incidence index of ``MetricGraph`` against the per-vertex scans it
replaced, the cached connectivity verdict, and the type-tested
``format_rational``."""

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import pytest

from helpers import (
    ref_counts,
    ref_format_rational,
    ref_incident_edges,
    ref_is_connected,
    ref_shortest_path,
    ref_valence,
    ref_weight,
)
from skeletron.metric_graph import (
    MetricGraph,
    _vertex_signature,
    betti1,
    euler_char,
    refine,
    shortest_path,
    total_genus,
)
from skeletron.randfix import confluence_family, rand_metric_graph
from skeletron.stable import (
    VALENCE1,
    VALENCE2,
    _counts,
    _rule,
    is_stable,
    minimal_vertex_characterization,
    prune_candidates,
    stabilize,
)
from skeletron.valq import INF, NEG_INF, format_rational


def _refine_chain(rng, g, steps):
    """g refined ``steps`` times at random interior points of random edges
    (loops included); every link but the first is raw-constructed."""
    chain = [g]
    for _ in range(steps):
        if not g.edges:
            break
        i = rng.randrange(len(g.edges))
        g = refine(g, i, g.edges[i][2] * Fraction(rng.randint(1, 3), 4))
        assert "incidence" not in vars(g)  # indexed on first use
        chain.append(g)
    return chain


def _without_an_edge(rng, g):
    """A raw-constructed copy of g with one edge dropped: often
    disconnected."""
    i = rng.randrange(len(g.edges))
    return MetricGraph(g.vertices, g.edges[:i] + g.edges[i + 1:], g.rays)


def _draws():
    rng = random.Random(13)
    graphs = [rand_metric_graph(rng, max_vertices=8) for _ in range(300)]
    graphs += confluence_family(random.Random(14), count=60)
    for g in graphs[:60]:
        graphs += _refine_chain(rng, g, 3)[1:]
    graphs += [_without_an_edge(rng, g) for g in graphs[:120] if g.edges]
    return graphs


def _ref_signature(g, v):
    lengths = sorted(g.edges[i][2] for i in ref_incident_edges(g, v))
    marks = sorted(m for b, m in g.rays if b == v)
    return (ref_weight(g, v), ref_valence(g, v), tuple(lengths),
            tuple(marks))


def test_incidence_matches_the_scans():
    seen = {"loop": 0, "parallel": 0, "ray": 0, "disconnected": 0}
    for g in _draws():
        ends = [frozenset((u, v)) for u, v, _ in g.edges]
        seen["loop"] += any(len(e) == 1 for e in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["ray"] += bool(g.rays)
        assert g.connected == ref_is_connected(g)
        if not g.connected:
            seen["disconnected"] += 1
            with pytest.raises(ValueError):
                betti1(g)
            continue
        counts = ref_counts(g)
        for v in g.vertex_ids():
            assert g.weight(v) == ref_weight(g, v)
            assert g.valence(v) == ref_valence(g, v)
            assert g.incident_edges(v) == ref_incident_edges(g, v)
            _, es, rs = g.incidence[v]
            assert _counts(es, rs) == counts[v]
            assert _vertex_signature(g, v) == _ref_signature(g, v)
        moves = [(_rule(w, *counts[v]), v) for v, w in g.vertices]
        assert prune_candidates(g) == [
            m for rule in (VALENCE1, VALENCE2) for m in moves if m[0] == rule]
        assert minimal_vertex_characterization(g) == {
            v for v, w in g.vertices if w > 0 or counts[v][0] >= 3}
        for u, v in combinations(g.vertex_ids(), 2):
            assert shortest_path(g, u, v) == ref_shortest_path(g, u, v)
    assert all(n >= 10 for n in seen.values()), seen


def test_betti1_raises_on_two_isolated_vertices():
    g = MetricGraph((("a", 0), ("b", 0)), (), ())
    assert not g.connected
    with pytest.raises(ValueError, match="connected"):
        betti1(g)


def test_each_graph_is_walked_once(monkeypatch):
    """``make`` walks a new graph; betti1, total_genus, euler_char and
    stabilize on graphs ``make`` accepted read the cached verdict, so
    only stabilize's output graph is walked again."""
    walks = []
    walk = MetricGraph.connected.func

    def counting(g):
        walks.append(g)
        return walk(g)

    prop = cached_property(counting)
    prop.__set_name__(MetricGraph, "connected")
    monkeypatch.setattr(MetricGraph, "connected", prop)
    g = MetricGraph.make(
        [("a", 0), ("b", 0), ("m", 0), ("p", 0), ("q", 0)],
        [("a", "b", 1), ("a", "b", 2), ("a", "m", Fraction(3, 2)),
         ("m", "b", Fraction(3, 2)), ("b", "p", 5), ("p", "q", 1)],
        [("q", "x")],
    )
    assert len(walks) == 1 and walks[0] is g
    betti1(g), total_genus(g), euler_char(g)
    report = stabilize(g)
    out = report.output
    assert out is not g
    assert is_stable(out)
    assert total_genus(out) == total_genus(g)
    assert euler_char(out) == euler_char(g) == report.chi
    assert len(walks) == 2 and walks[1] is out


def test_format_rational_matches_reference():
    rng = random.Random(7)
    values = [INF, NEG_INF, 0, 5, -3, Fraction(0), Fraction(-7, 1)]
    values += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
               for _ in range(2000)]
    values += [Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30))
               for _ in range(200)]
    for v in values:
        assert format_rational(v) == ref_format_rational(v)
