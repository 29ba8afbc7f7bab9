import json
import random
from fractions import Fraction

import pytest

from helpers import (
    _apply_valence1,
    _apply_valence2,
    _ref_prune_step,
    ref_stabilize,
)
from skeletron.io_json import stabilization_report_to_json
from skeletron.metric_graph import (
    MetricGraph,
    euler_char,
    is_isomorphic,
    total_genus,
)
from skeletron.randfix import confluence_family, rand_metric_graph
from skeletron.stable import (
    CHI_ZERO_DIAGNOSTIC,
    VALENCE1,
    VALENCE2,
    abstract_tropicalization,
    apply_prune,
    is_stable,
    minimal_vertex_characterization,
    prune_candidates,
    prune_step,
    stabilize,
    tate_skeleton,
)


def theta():
    return MetricGraph.make(
        [("a", 0), ("b", 0)], [("a", "b", 1), ("a", "b", 2), ("a", "b", 3)]
    )


def theta_with_pendant():
    return MetricGraph.make(
        [("a", 0), ("b", 0), ("x", 0)],
        [("a", "b", 1), ("a", "b", 2), ("a", "b", 3), ("b", "x", 5)],
    )


def test_prune_step_pendant():
    g, rule, v = prune_step(theta_with_pendant())
    assert (rule, v) == ("valence1", "x")
    assert is_isomorphic(g, theta())


def test_prune_step_valence2_merge():
    g = MetricGraph.make(
        [("a", 1), ("x", 0), ("b", 1)],
        [("a", "x", 1), ("x", "b", 2)],
    )
    h, rule, v = prune_step(g)
    assert (rule, v) == ("valence2", "x")
    assert h.edges == (("a", "b", Fraction(3)),)


def test_prune_step_stable_fixed_point():
    assert prune_step(theta()) is None


def test_stabilize_composite():
    g = theta_with_pendant()
    # additionally subdivide the length-3 edge into 1 + 2
    g = MetricGraph.make(
        [("a", 0), ("b", 0), ("x", 0), ("m", 0)],
        [
            ("a", "b", 1),
            ("a", "b", 2),
            ("a", "m", 1),
            ("m", "b", 2),
            ("b", "x", 5),
        ],
    )
    rep = stabilize(g)
    assert is_isomorphic(rep.output, theta())
    assert len(rep.steps) == 2
    assert rep.chi == euler_char(g)


def test_stabilize_stable_input_is_identity():
    rep = stabilize(theta())
    assert rep.steps == ()
    assert rep.output == theta()


def test_stabilize_ray_chain():
    g = MetricGraph.make(
        [("v1", 0), ("v2", 2)], [("v1", "v2", 3)], [("v1", "p")]
    )
    assert euler_char(g) == -3
    rep = stabilize(g)
    assert rep.output.vertices == (("v2", 2),)
    assert rep.output.edges == ()
    assert rep.output.rays == (("v2", "p"),)


def test_stabilize_rejects_chi_zero_with_diagnostic():
    circle = MetricGraph.make([("v", 0)], [("v", "v", 5)])
    with pytest.raises(ValueError, match="non-unique"):
        try:
            stabilize(circle)
        except ValueError as e:
            assert str(e) == CHI_ZERO_DIAGNOSTIC
            raise
    two_marked = MetricGraph.make([("v", 0)], rays=[("v", "0"), ("v", "inf")])
    with pytest.raises(ValueError):
        stabilize(two_marked)


def test_prune_never_strands_marking_pair():
    # a single weight-0 vertex carrying two rays is untouchable even
    # when an edge could otherwise merge through it
    g = MetricGraph.make(
        [("v", 0), ("w", 1)],
        [("v", "w", 1)],
        [("v", "p"), ("v", "q")],
    )
    # v has valence 3: not a candidate anyway; drop one ray to test the rule
    h = MetricGraph.make(
        [("v", 0), ("w", 1)], [("v", "w", 1)], [("v", "p")]
    )
    step = prune_step(h)
    assert step is not None
    out, rule, vtx = step
    assert (rule, vtx) == ("valence2", "v")
    assert out.rays == (("w", "p"),)


def test_minimal_vertex_characterization():
    g = theta()
    assert minimal_vertex_characterization(g) == {"a", "b"}
    single = MetricGraph.make([("v", 2)], rays=[("v", "p")])
    assert minimal_vertex_characterization(single) == {"v"}
    rep = stabilize(theta_with_pendant())
    assert minimal_vertex_characterization(rep.output) == set(
        rep.output.vertex_ids()
    )


def test_tate_skeleton():
    g = tate_skeleton(-5)
    assert g.edges == (("v0", "v0", Fraction(5)),)
    assert total_genus(g) == 1 and euler_char(g) == 0

    g = tate_skeleton(Fraction(-1, 2))
    assert g.edges[0][2] == Fraction(1, 2)

    good = tate_skeleton(3)
    assert good.edges == () and good.vertices == (("v0", 1),)
    assert total_genus(good) == 1


def test_abstract_tropicalization():
    g2 = theta()
    out, stabilized = abstract_tropicalization(2, 0, g2)
    assert out == g2 and stabilized

    circle_marked = MetricGraph.make(
        [("v", 0)], [("v", "v", 4)], [("v", "1")]
    )
    out, stabilized = abstract_tropicalization(1, 1, circle_marked)
    assert out == circle_marked and stabilized
    assert is_stable(circle_marked)  # loop counts twice + ray = valence 3

    boundary = MetricGraph.make([("v", 0)], rays=[("v", "0"), ("v", "inf")])
    out, stabilized = abstract_tropicalization(0, 2, boundary)
    assert out == boundary and not stabilized

    with pytest.raises(ValueError):
        abstract_tropicalization(0, 1, boundary)  # 2-2g-n > 0
    with pytest.raises(ValueError):
        abstract_tropicalization(1, 2, boundary)  # genus mismatch
    with pytest.raises(ValueError):
        abstract_tropicalization(0, 3, boundary)  # marking count mismatch


def _all_maximal_outcomes(g, limit=2000):
    """Every graph reachable by exhausting prune moves in every order."""
    outcomes = []
    stack = [g]
    seen = 0
    while stack:
        cur = stack.pop()
        seen += 1
        if seen > limit:
            raise AssertionError("search blew up")
        moves = prune_candidates(cur)
        if not moves:
            outcomes.append(cur)
            continue
        for rule, v in moves:
            stack.append(apply_prune(cur, rule, v))
    return outcomes


def test_confluence_on_fixture_family():
    rng = random.Random(17)
    for g in confluence_family(rng, count=40):
        assert euler_char(g) < 0
        outcomes = _all_maximal_outcomes(g)
        first = outcomes[0]
        for other in outcomes[1:]:
            assert is_isomorphic(first, other)
        assert is_stable(first)


def test_stabilize_conservation_and_termination():
    rng = random.Random(31)
    for g in confluence_family(rng, count=60):
        rep = stabilize(g)
        assert total_genus(rep.output) == total_genus(g)
        assert euler_char(rep.output) == euler_char(g)
        assert sorted(m for _, m in rep.output.rays) == sorted(
            m for _, m in g.rays
        )
        assert len(rep.steps) <= len(g.vertices)
        assert len(rep.output.vertices) == len(g.vertices) - len(rep.steps)


CORES = (
    # (vertex count, edges, rays) of a stable core
    (2, [(0, 1), (0, 1), (0, 1)], []),  # theta
    (2, [(0, 0), (0, 1)], [(1, "m0")]),  # loop with a marked tail
    (2, [(0, 0), (1, 1), (0, 1)], []),  # dumbbell
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], []),  # K4
)


def subdivided_graph(rng, size):
    """A stable core with every edge subdivided at least once, plus
    pendant chains and trees, some ending in a marking or a weight-1
    vertex.  The input has no loops, so every loop of the output comes
    from merging two parallel edges; rays at pendant ends absorb the
    edges that lead to them; ids v0, v1, ... are shuffled, and "v10"
    sorts before "v2"."""
    n, core_edges, core_rays = rng.choice(CORES)
    rays = list(core_rays)
    edges = []

    def add(a, b):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b, Fraction(rng.randint(1, 9), rng.randint(1, 4))))

    cuts = [1] * len(core_edges)
    for _ in range((size - n) // 2 - len(core_edges)):
        cuts[rng.randrange(len(cuts))] += 1
    for (u, v), k in zip(core_edges, cuts):
        prev = u
        for _ in range(k):
            add(prev, n)
            prev, n = n, n + 1
        add(prev, v)
    weighted = set()
    while n < size:
        attach = rng.randrange(n)
        chain = rng.random() < 0.5
        for i in range(min(rng.randint(1, 6), size - n)):
            parent = attach if i == 0 else (n - 1 if chain else
                                            rng.randint(n - i, n - 1))
            add(parent, n)
            n += 1
        roll = rng.random()
        if roll < 0.3:
            rays.append((n - 1, f"m{len(rays) + 1}"))
        elif roll < 0.4:
            weighted.add(n - 1)
    names = [f"v{i}" for i in rng.sample(range(n), n)]
    return MetricGraph.make(
        [(names[i], int(i in weighted)) for i in range(n)],
        [(names[a], names[b], l) for a, b, l in edges],
        [(names[b], m) for b, m in rays],
    )


def chi_nonnegative_graphs():
    return [
        MetricGraph.make([("v", 0)], [("v", "v", 5)]),
        MetricGraph.make([("v", 0)], rays=[("v", "0"), ("v", "inf")]),
        MetricGraph.make([("v", 0)]),
        MetricGraph.make([("a", 0), ("b", 0)], [("a", "b", 1)], [("b", "p")]),
        MetricGraph.make(  # a subdivided circle
            [(f"v{i}", 0) for i in range(12)],
            [(f"v{i}", f"v{(i + 1) % 12}", i + 1) for i in range(12)],
        ),
        MetricGraph.make([("a", 1), ("b", 0)], [("a", "b", 2)]),
    ]


def _outcome(stabilize_fn, g):
    """Steps and report JSON, or the ValueError message."""
    try:
        rep = stabilize_fn(g)
    except ValueError as e:
        return "ValueError", str(e)
    return rep.steps, json.dumps(stabilization_report_to_json(rep))


def _family(name):
    if name == "confluence":
        return confluence_family(random.Random(5), count=120)
    if name == "random":
        rng = random.Random(23)
        return [rand_metric_graph(rng, max_vertices=8) for _ in range(300)]
    if name == "subdivided":
        rng = random.Random(41)
        return [subdivided_graph(rng, rng.randint(20, 110))
                for _ in range(16)]
    return chi_nonnegative_graphs()


@pytest.mark.parametrize(
    "family", ["confluence", "random", "subdivided", "chi_nonnegative"]
)
def test_stabilize_matches_reference(family):
    graphs = _family(family)
    for g in graphs:
        assert _outcome(stabilize, g) == _outcome(ref_stabilize, g)
    if family == "chi_nonnegative":
        assert all(_outcome(stabilize, g)[0] == "ValueError" for g in graphs)


def test_subdivided_family_covers_loops_rays_and_string_order():
    loops = moved_rays = string_order = 0
    for g in _family("subdivided"):
        rep = stabilize(g)
        loops += any(u == v for u, v, _ in rep.output.edges)
        moved_rays += set(rep.output.rays) != set(g.rays)
        removed = [v for _, v in rep.steps]
        string_order += sorted(removed) != sorted(
            removed, key=lambda v: int(v[1:])
        )
    assert loops and moved_rays and string_order


@pytest.mark.parametrize("family", ["confluence", "random", "subdivided"])
def test_prune_moves_match_reference(family):
    # apply_prune and prune_step run on the same incidence index as
    # stabilize; the rebuilt-graph moves they replaced are the reference
    ref_apply = {VALENCE1: _apply_valence1, VALENCE2: _apply_valence2}
    for g in _family(family):
        moves = prune_candidates(g)
        for v in g.vertex_ids():
            for rule in (VALENCE1, VALENCE2):
                if (rule, v) in moves:
                    assert apply_prune(g, rule, v) == ref_apply[rule](g, v)
                else:
                    with pytest.raises(ValueError):
                        apply_prune(g, rule, v)
        assert prune_step(g) == _ref_prune_step(g)
        assert is_stable(g) == all(
            w > 0 or g.valence(v) >= 3 for v, w in g.vertices
        )
