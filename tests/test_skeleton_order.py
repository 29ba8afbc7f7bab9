"""The sort-and-stack skeleton against the builders and retractions it
replaces, the ball order it rests on, and a count of its joins."""

import random
from fractions import Fraction
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from skeletron import skeleton
from skeletron.io_json import tree_to_json
from skeletron.points import INFINITY, Type1, Type2, join
from skeletron.puiseux import PuiseuxElement
from skeletron.randfix import (
    punctures_of,
    rand_puiseux,
    rand_rational_function,
    rand_roots,
    rand_type2,
)
from skeletron.skeleton import (
    _BALL_ORDER,
    _compare,
    build_skeleton_tree,
    retract,
)

from helpers import (
    lone_extra,
    ref_anchor_retract,
    ref_build_skeleton_tree,
    ref_pairwise_build_skeleton_tree,
    ref_retract,
    two_term_roots,
    val_diff,
)

ZERO = PuiseuxElement.zero()
INF_PT = Type1(INFINITY)


def _cases():
    """(punctures, extra vertices): criterion-1 and criterion-7 draws with
    0-3 extras, certify-wide-style clustered and spread roots with and
    without extras, and two-puncture lines {a, inf}."""
    rng = random.Random(17)
    for k in range(120):
        f = rand_rational_function(rng)
        yield punctures_of(f), [rand_type2(rng) for _ in range(k % 4)]
    for k in range(120):
        punctures = [Type1(r) for r in rand_roots(rng, max_roots=4)]
        punctures.append(INF_PT)
        yield punctures, [rand_type2(rng) for _ in range(k % 3 + 1)]
    for n, clustered in ((16, True), (16, False), (32, True), (48, False)):
        punctures = [Type1(r) for r in two_term_roots(rng, n, clustered)]
        yield punctures + [INF_PT], []
        yield punctures, [rand_type2(rng) for _ in range(2)]
    for a in (ZERO, PuiseuxElement.monomial(1, 1),
              PuiseuxElement.from_terms([(-1, 3), (2, 1)])):
        yield [Type1(a), INF_PT], []
        yield [INF_PT, Type1(a)], [Type2(a, 4)]
        yield [Type1(a), INF_PT], [Type2(a - PuiseuxElement.monomial(1, -1),
                                         2)]
    # extras repeated, and an extra that is one of the joins
    yield ([Type1(ZERO), Type1(PuiseuxElement.monomial(1, 1)), INF_PT],
           [Type2(ZERO, 1), Type2(ZERO, 1), Type2(ZERO, 3)])


def test_build_matches_both_references():
    for punctures, extras in _cases():
        got = tree_to_json(build_skeleton_tree(punctures, extras))
        assert got == tree_to_json(
            ref_pairwise_build_skeleton_tree(punctures, extras))
        assert got == tree_to_json(ref_build_skeleton_tree(punctures, extras))


def test_retract_matches_both_references():
    rng = random.Random(29)
    lone = 0
    for punctures, extras in _cases():
        tree = build_skeleton_tree(punctures, extras)
        old = ref_pairwise_build_skeleton_tree(punctures, extras)
        points = [rand_type2(rng) for _ in range(8)]
        points += list(tree.placement.values()) + list(tree.anchors)
        points += list(extras) + punctures
        # type-1 points that are no puncture, one of them near a puncture
        points += [Type1(rand_puiseux(rng)) for _ in range(3)]
        a = punctures[0] if not punctures[0].is_infinity() else punctures[1]
        points.append(Type1(a.value + PuiseuxElement.monomial(1, 40)))
        for x in points:
            got = retract(x, tree)
            assert got == ref_anchor_retract(x, old)
            if isinstance(x, Type2) and lone_extra(x, tree):
                lone += 1
                assert got == x
            else:
                assert got == ref_retract(x, tree)
    assert lone > 0


def test_puncture_retracts_to_its_ray_base_by_lookup():
    punctures = [Type1(r) for r in two_term_roots(random.Random(3), 24,
                                                   True)] + [INF_PT]
    tree = build_skeleton_tree(punctures)
    assert tree.ray_base == {tree.ray_target[m]: b for b, m in tree.graph.rays}
    for p in punctures:
        assert retract(p, tree) == tree.placement[tree.ray_base[p]]


# --- the ball order ------------------------------------------------------

# exponents with denominators up to 6 from a small pool, so that elements
# often share leading terms and differ first at a coefficient or at a term
# present on one side only, of either sign
EXPONENTS = [Fraction(p, q) for p, q in ((-3, 2), (-1, 6), (0, 1), (1, 3),
                                         (1, 2), (5, 6), (1, 1), (7, 6))]
COEFFS = [Fraction(p, q) for p in (-2, -1, 1, 2) for q in (1, 3)]
elements = st.lists(
    st.tuples(st.sampled_from(EXPONENTS), st.sampled_from(COEFFS)),
    max_size=4, unique_by=lambda term: term[0],
).map(PuiseuxElement.from_terms)
radii = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def _contains(ball: Type2, a: Type1) -> bool:
    return val_diff(ball.center, a.value) >= ball.s


def _e(*terms):
    return PuiseuxElement.from_terms(terms)


@settings(max_examples=300, deadline=None)
@given(st.lists(elements, min_size=1, max_size=8, unique=True),
       st.lists(st.tuples(elements, radii), max_size=3), elements)
# a negative coefficient at the first differing exponent
@example([_e((0, 1), (1, -2)), _e((0, 1), (1, 1)), _e((0, 1))],
         [(_e((0, 1)), Fraction(1, 2))], _e((0, 1), (1, -1)))
# a term on one side only, of either sign
@example([_e((0, 1)), _e((0, 1), (Fraction(1, 6), -1)),
          _e((0, 1), (Fraction(1, 6), 1))],
         [(_e((0, 1)), Fraction(1, 6)), (_e((0, 1)), Fraction(1, 5))],
         _e((0, 1), (Fraction(5, 6), -2)))
def test_ball_order(values, balls, probe):
    points = [Type1(v) for v in values]
    balls = [Type2(c, s) for c, s in balls]
    items = list(dict.fromkeys(points + balls))
    ordered = sorted(items, key=_BALL_ORDER)
    # a total order: strictly increasing along the sort, and antisymmetric
    for i, x in enumerate(ordered):
        assert _compare(x, x) == 0
        for y in ordered[i + 1:]:
            assert _compare(x, y) == -1 and _compare(y, x) == 1

    # a ball is a contiguous run of the sorted points, and sorts first in it
    anchors = sorted(points, key=_BALL_ORDER)
    for ball in balls:
        inside = [i for i, a in enumerate(anchors) if _contains(ball, a)]
        if inside:
            assert inside == list(range(inside[0], inside[-1] + 1))
            first = bisect_left(anchors, _BALL_ORDER(ball), key=_BALL_ORDER)
            assert first == inside[0]

    # a neighbour of the insertion position attains max val(probe - a),
    # and for a ball (c, s) the deepest join, max min(s, val(c - a))
    def depth(x, a):
        if isinstance(x, Type1):
            return val_diff(x.value, a.value)
        return min(x.s, val_diff(x.center, a.value))

    for x in (Type1(probe), *balls):
        i = bisect_left(anchors, _BALL_ORDER(x), key=_BALL_ORDER)
        near = anchors[max(i - 1, 0):i + 1]
        assert max(depth(x, a) for a in near) == max(
            depth(x, a) for a in anchors)


# --- growth guard --------------------------------------------------------

def _count_joins(monkeypatch):
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return join(x, y)

    monkeypatch.setattr(skeleton, "join", counted)
    return calls


@pytest.mark.parametrize("n_extras", [0, 3])
def test_joins_grow_linearly(n_extras, monkeypatch):
    rng = random.Random(1280)
    roots = two_term_roots(rng, 1280, clustered=False)
    punctures = [Type1(r) for r in roots] + [INF_PT]
    extras = [rand_type2(rng) for _ in range(n_extras)]
    calls = _count_joins(monkeypatch)
    tree = build_skeleton_tree(punctures, extras)
    n_anchors = len(roots) + n_extras
    assert calls[0] <= (len(roots) - 1) + n_extras * n_anchors

    points = [rand_type2(rng) for _ in range(50)] + extras
    points += [Type1(rand_puiseux(rng)) for _ in range(10)] + punctures[:10]
    for x in points:
        calls[0] = 0
        retract(x, tree)
        assert calls[0] <= 2 + n_extras
