import random
from fractions import Fraction

import pytest

from skeletron.io_json import tree_to_json
from skeletron.points import INFINITY, Type1, Type2, path_distance
from skeletron.puiseux import PuiseuxElement
from skeletron.randfix import rand_puiseux, rand_roots, rand_type2
from skeletron.skeleton import build_skeleton_tree, retract

from helpers import (
    brute_nearest,
    grid_points,
    lone_extra,
    on_tree,
    ref_build_skeleton_tree,
    ref_retract,
)

ZERO = PuiseuxElement.zero()
ONE = PuiseuxElement.constant(1)
t = PuiseuxElement.monomial(1, 1)
INF_PT = Type1(INFINITY)


def zeta(center, s):
    return Type2(center, Fraction(s))


def standard_tree():
    return build_skeleton_tree([Type1(ZERO), Type1(ONE), Type1(t), INF_PT])


def test_gm_skeleton():
    tree = build_skeleton_tree([Type1(ZERO), INF_PT])
    assert list(tree.placement.values()) == [zeta(ZERO, 0)]
    assert tree.graph.edges == ()
    assert sorted(m for _, m in tree.graph.rays) == ["0", "inf"]


def test_four_puncture_tree():
    tree = standard_tree()
    placed = sorted(tree.placement.values(), key=lambda p: p.s)
    assert placed == [zeta(ZERO, 0), zeta(ZERO, 1)]
    (u, v, length), = tree.graph.edges
    assert length == 1
    base_of = {m: b for b, m in tree.graph.rays}
    root = tree.root_id()
    deep = next(i for i in tree.placement if i != root)
    assert tree.placement[root] == zeta(ZERO, 0)
    assert base_of["1"] == root and base_of["inf"] == root
    assert base_of["0"] == deep and base_of["t"] == deep


def test_extra_vertex_splits_line():
    tree = build_skeleton_tree(
        [Type1(ZERO), INF_PT], extra_vertices=[zeta(ZERO, 4)]
    )
    placed = sorted(tree.placement.values(), key=lambda p: p.s)
    assert placed == [zeta(ZERO, 0), zeta(ZERO, 4)]
    (u, v, length), = tree.graph.edges
    assert length == 4
    base_of = {m: b for b, m in tree.graph.rays}
    assert tree.placement[base_of["inf"]] == zeta(ZERO, 0)
    assert tree.placement[base_of["0"]] == zeta(ZERO, 4)


def test_edge_lengths_are_path_distances():
    tree = build_skeleton_tree(
        [Type1(ZERO), Type1(t), Type1(t + t * t * t), Type1(ONE), INF_PT]
    )
    for u, v, length in tree.graph.edges:
        assert length == path_distance(tree.placement[u], tree.placement[v])


def test_rejects_too_few_or_repeated_punctures():
    with pytest.raises(ValueError):
        build_skeleton_tree([Type1(ZERO)])
    with pytest.raises(ValueError):
        build_skeleton_tree([Type1(ZERO), Type1(ZERO)])


def test_retract_fixes_tree_points():
    tree = standard_tree()
    for p in grid_points(tree):
        assert retract(p, tree) == p


def test_retract_entry_point():
    tree = standard_tree()
    # x hangs off the ball zeta(0,2), which sits on the ray toward 0;
    # the entry point is zeta(0,2), confirmed by the grid minimizer
    x = zeta(t * t, 3)
    assert retract(x, tree) == zeta(ZERO, 2)
    assert brute_nearest(x, tree) == zeta(ZERO, 2)


def test_retract_punctures_to_ray_bases():
    tree = standard_tree()
    assert retract(Type1(ONE), tree) == zeta(ZERO, 0)
    assert retract(Type1(t), tree) == zeta(ZERO, 1)
    assert retract(INF_PT, tree) == zeta(ZERO, 0)


def test_retract_clips_to_root_without_infinity():
    # no puncture at infinity: nothing lies above the root ball
    tree = build_skeleton_tree([Type1(ZERO), Type1(t)])
    x = zeta(ONE, 5)  # joins every anchor at s = 0, below the root at s = 1
    got = retract(x, tree)
    assert got == tree.root_point()


def test_retract_idempotent_and_matches_grid_oracle():
    tree = standard_tree()
    rng = random.Random(11)
    for _ in range(40):
        x = rand_type2(rng)
        tau = retract(x, tree)
        assert on_tree(tau, tree)
        assert retract(tau, tree) == tau
        near = brute_nearest(x, tree)
        assert path_distance(x, tau) <= path_distance(x, near)


def test_nested_tree_compatibility():
    # adding extra vertices refines the tree; retractions compose
    punctures = [Type1(ZERO), Type1(ONE), Type1(t), INF_PT]
    coarse = build_skeleton_tree(punctures)
    fine = build_skeleton_tree(
        punctures, extra_vertices=[zeta(ZERO, Fraction(1, 2)), zeta(t, 3)]
    )
    rng = random.Random(5)
    for _ in range(40):
        x = rand_type2(rng)
        assert retract(retract(x, fine), coarse) == retract(x, coarse)


def _tree_distance(tree, x, y):
    """Path distance between two points on the tree, through the graph."""
    if x == y:
        return Fraction(0)
    # both are type-2 points of the realization: join works directly
    return path_distance(x, y)


def test_path_decomposition_through_retraction():
    tree = standard_tree()
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        x, y = rand_type2(rng), rand_type2(rng)
        tx, ty = retract(x, tree), retract(y, tree)
        if tx == ty or x == y:
            continue
        lhs = path_distance(x, y)
        rhs = (
            path_distance(x, tx)
            + _tree_distance(tree, tx, ty)
            + path_distance(ty, y)
        )
        assert lhs == rhs
        checked += 1


def _reference_family(seed, count):
    """(punctures, extra vertices) as in criterion 7: up to four monomial
    roots with infinity and 0-3 extra vertices, and as many sets of two to
    four roots without infinity."""
    rng = random.Random(seed)
    family = []
    while len(family) < count:
        with_inf = len(family) % 2 == 0
        roots = rand_roots(rng, max_roots=4)
        punctures = [Type1(r) for r in roots]
        if with_inf:
            punctures.append(INF_PT)
        elif len(punctures) < 2:
            continue
        extras = [rand_type2(rng) for _ in range(rng.randint(0, 3))]
        family.append((punctures, extras))
    return family


def test_build_matches_reference():
    for punctures, extras in _reference_family(3, 300):
        got = build_skeleton_tree(punctures, extras)
        want = ref_build_skeleton_tree(punctures, extras)
        assert tree_to_json(got) == tree_to_json(want)
        assert got.root_id() == min(
            want.placement, key=lambda v: want.placement[v].s
        )


def test_retract_matches_reference_except_at_lone_extras():
    rng = random.Random(8)
    lone = 0
    for punctures, extras in _reference_family(4, 120):
        tree = build_skeleton_tree(punctures, extras)
        points = [rand_type2(rng) for _ in range(10)]
        points += list(tree.placement.values()) + list(tree.anchors)
        points += punctures + [Type1(rand_puiseux(rng)) for _ in range(3)]
        for x in points:
            got = retract(x, tree)
            if isinstance(x, Type2) and lone_extra(x, tree):
                lone += 1
                assert got == x == brute_nearest(x, tree)
            else:
                assert got == ref_retract(x, tree)
    assert lone > 0


def test_retract_fixes_lone_extra_vertex():
    # nothing below zeta(2, 1) but itself: it is a tree vertex, so it
    # retracts to itself, not to its parent zeta(0, 0)
    x = zeta(PuiseuxElement.constant(2), 1)
    tree = build_skeleton_tree([Type1(ZERO), Type1(ONE), INF_PT],
                               extra_vertices=[x])
    assert retract(x, tree) == x
    assert brute_nearest(x, tree) == x


# pairs a < b whose raw int tuples (numerator, denominator) sort b first
VALUE_VS_TUPLE = [
    ("exponents", [(Fraction(2, 5), 1)], [(Fraction(1, 2), 1)]),
    ("negative exponents", [(Fraction(-1, 2), 1)], [(Fraction(-2, 5), 1)]),
    ("coefficients", [(0, Fraction(2, 5))], [(0, Fraction(1, 2))]),
]


@pytest.mark.parametrize("lo, hi", [case[1:] for case in VALUE_VS_TUPLE],
                         ids=[case[0] for case in VALUE_VS_TUPLE])
def test_vertex_ids_follow_value_order(lo, hi):
    # two vertices at radius 3 whose centers are lo and hi
    a, b = PuiseuxElement.from_terms(lo), PuiseuxElement.from_terms(hi)
    assert a.terms > b.terms
    tail = PuiseuxElement.monomial(1, 3)
    punctures = [Type1(b), Type1(b + tail), Type1(a), Type1(a + tail), INF_PT]
    got = build_skeleton_tree(punctures)
    assert tree_to_json(got) == tree_to_json(
        ref_build_skeleton_tree(punctures))
    assert (got.placement["v1"], got.placement["v2"]) == (zeta(a, 3),
                                                          zeta(b, 3))
