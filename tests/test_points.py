import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skeletron.oracle import eval_val_newton
from skeletron.points import (
    INFINITY,
    RationalFunction,
    Type1,
    Type2,
    eval_val,
    gauss_point,
    join,
    path_distance,
)
from skeletron.puiseux import PuiseuxElement, parse_element
from skeletron.randfix import (
    rand_puiseux,
    rand_rational_function,
    rand_type2,
)
from skeletron.valq import INF

from helpers import ref_eval_val, ref_join

ZERO = PuiseuxElement.zero()
t = PuiseuxElement.monomial(1, 1)


def zeta(center, s):
    return Type2(center, Fraction(s))


def test_join_concentric():
    assert join(zeta(ZERO, 2), zeta(ZERO, 5)) == zeta(ZERO, 2)


def test_join_separated_centers():
    assert join(zeta(ZERO, 3), zeta(t, 5)) == zeta(ZERO, 1)


def test_join_idempotent_and_symmetric():
    x, y = zeta(t, 2), zeta(ZERO, Fraction(3, 2))
    assert join(x, x) == x
    assert join(x, y) == join(y, x)


def test_join_with_type1():
    # a field point is a ball of radius +inf
    assert join(Type1(t), zeta(ZERO, 3)) == zeta(ZERO, 1)
    assert join(Type1(t), Type1(ZERO)) == zeta(ZERO, 1)


def test_join_rejects_infinity():
    with pytest.raises(ValueError):
        join(Type1(INFINITY), gauss_point())


def test_type2_equivalence_of_centers():
    # (b, s) and (b', s) name the same ball iff val(b - b') >= s
    assert zeta(t * t, 1) == zeta(ZERO, 1)
    assert zeta(t, 1) == zeta(ZERO, 1)  # val(t - 0) = 1 >= s
    assert zeta(t, 2) != zeta(ZERO, 2)
    assert zeta(t, 2) == zeta(t + t * t, 2)


def test_path_distance_examples():
    assert path_distance(zeta(ZERO, 2), zeta(ZERO, 5)) == 3
    assert path_distance(zeta(ZERO, 3), zeta(t, 5)) == 6
    assert path_distance(Type1(t), gauss_point()) == INF
    assert path_distance(Type1(t), Type1(t)) == 0


def test_eval_val_examples():
    f = RationalFunction.make(0, [(ZERO, 1)])
    assert eval_val(f, gauss_point()) == 0

    g = RationalFunction.make(
        0, [(PuiseuxElement.constant(1), 1), (t, 1), (ZERO, -1)]
    )
    assert eval_val(g, zeta(ZERO, Fraction(1, 2))) == 0

    const = RationalFunction.make(7, [])
    assert eval_val(const, zeta(t, 4)) == 7


def test_rational_function_validation():
    with pytest.raises(ValueError):
        RationalFunction.make(0, [(ZERO, 1), (ZERO, 2)])
    with pytest.raises(ValueError):
        RationalFunction.make(0, [(ZERO, 1), (INFINITY, 2)])
    f = RationalFunction.make(0, [(ZERO, 2), (t, -1), (INFINITY, -1)])
    assert f.order_at_infinity() == -1
    assert f.order_at(Type1(INFINITY)) == -1
    assert f.order_at(t) == -1
    assert f.order_at(PuiseuxElement.constant(5)) == 0


def test_inverse_negates_everything():
    f = RationalFunction.make(Fraction(3, 2), [(ZERO, 2), (t, -1)])
    g = f.inverse()
    assert g.lead_val == Fraction(-3, 2)
    x = zeta(parse_element("1 + t"), 2)
    assert eval_val(f, x) + eval_val(g, x) == 0


centers = st.lists(
    st.tuples(
        st.fractions(max_denominator=3, min_value=-4, max_value=4),
        st.fractions(max_denominator=4, min_value=-5, max_value=5),
    ),
    max_size=3,
).map(PuiseuxElement.from_terms)
type2_points = st.builds(
    Type2, centers, st.fractions(max_denominator=4, min_value=-6, max_value=6)
)


@given(type2_points, type2_points, type2_points)
def test_metric_axioms(x, y, z):
    dxy = path_distance(x, y)
    assert dxy >= 0
    assert (dxy == 0) == (x == y)
    assert dxy == path_distance(y, x)
    assert dxy <= path_distance(x, z) + path_distance(z, y)


@given(type2_points, type2_points)
def test_join_contains_both(x, y):
    j = join(x, y)
    assert j.s <= min(x.s, y.s)
    assert (x.center - j.center).valuation() >= j.s
    assert (y.center - j.center).valuation() >= j.s


def test_eval_val_matches_recentering_oracle():
    rng = random.Random(42)
    for _ in range(300):
        f = rand_rational_function(rng)
        x = rand_type2(rng)
        assert eval_val(f, x) == eval_val_newton(f, x)


def test_join_and_eval_val_match_reference_formulas():
    rng = random.Random(7)
    for _ in range(400):
        x, y = rand_type2(rng), rand_type2(rng)
        near = Type2(x.center + rand_puiseux(rng), rng.randint(-4, 12))
        a, b = Type1(rand_puiseux(rng)), Type1(x.center)
        for p, q in ((x, y), (x, near), (near, x), (x, x), (x, a), (a, x),
                     (a, b), (b, x)):
            assert join(p, q) == ref_join(p, q)
        f = rand_rational_function(rng)
        for pt in (x, near, Type2(f.factors[0][0], x.s)):
            assert eval_val(f, pt) == ref_eval_val(f, pt)
