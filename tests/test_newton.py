import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ref_breakpoints,
    ref_slope_at,
    ref_ties,
    ref_unit_decomposition,
)
from skeletron.newton import (
    Breakpoint,
    Interval,
    TropicalLaurent,
    breakpoints,
    eval_trop,
    map_skeleton,
    slope_at,
    slope_change_count,
    unit_decomposition,
)
from skeletron.valq import INF, NEG_INF


def TL(*pairs):
    return TropicalLaurent.from_terms(pairs)


def test_eval_single_monomial():
    assert eval_trop(TL((1, 0)), 5) == 5


def test_eval_two_term_min():
    assert eval_trop(TL((0, 1), (1, 0)), 3) == 1


def test_eval_three_terms():
    # min(2 - 1/2, 0, 1 + 1) at s = 1/2, enumerated by hand
    f = TL((-1, 2), (0, 0), (2, 1))
    assert eval_trop(f, Fraction(1, 2)) == 0


def test_breakpoints_two_pieces():
    bps = breakpoints(TL((0, 1), (1, 0)), Interval(Fraction(0), Fraction(3)))
    assert bps == [Breakpoint(Fraction(1), 1, 0)]


def test_breakpoints_monomial_none():
    assert breakpoints(TL((1, 0)), Interval(NEG_INF, INF)) == []


def test_breakpoints_three_pieces():
    bps = breakpoints(
        TL((0, 3), (1, 1), (2, 0)), Interval(Fraction(0), Fraction(5))
    )
    assert bps == [
        Breakpoint(Fraction(1), 2, 1),
        Breakpoint(Fraction(2), 1, 0),
    ]


def test_breakpoints_exclude_boundary():
    assert breakpoints(TL((0, 1), (1, 0)), Interval(Fraction(1), Fraction(3))) == []


def test_slope_at_examples():
    f = TL((0, 3), (1, 1), (2, 0))  # breaks at s = 1 and s = 2
    assert slope_at(f, 0) == (2, 2)
    assert slope_at(f, 1) == (2, 1)
    assert slope_at(f, Fraction(3, 2)) == (1, 1)
    assert slope_at(f, 2) == (1, 0)
    assert slope_at(f, NEG_INF) == (2, 2)
    assert slope_at(f, INF) == (0, 0)
    # three collinear terms tie at s = -1; the middle one is never alone
    assert slope_at(TL((0, 0), (1, 1), (2, 2)), -1) == (2, 0)


def test_slope_change_examples():
    assert slope_change_count([(1, 1)], 1) == -1
    assert slope_change_count([(1, -1)], 1) == 1
    assert slope_change_count([(2, 1), (2, -1)], 2) == 0
    with pytest.raises(ValueError):
        slope_change_count([(1, 0)], 1)


def test_unit_single_monomial():
    assert unit_decomposition(TL((2, 1)), Interval(Fraction(0), Fraction(2))) == (2, 1)


def test_unit_zero_inside():
    # T + t has a root of valuation 1 inside [0, 2]
    assert unit_decomposition(TL((0, 1), (1, 0)), Interval(Fraction(0), Fraction(2))) is None


def test_unit_tie_at_endpoint():
    # 1 + T has a root on the boundary circle s = 0
    assert unit_decomposition(TL((0, 0), (1, 0)), Interval(Fraction(0), Fraction(2))) is None


def test_unit_degenerate_interval():
    f = TL((0, 5), (3, 0))
    assert unit_decomposition(f, Interval(Fraction(1), Fraction(1))) == (3, 0)


def test_unit_on_ray():
    # punctured ball: smallest exponent must dominate out to s = +inf
    assert unit_decomposition(TL((0, 0), (1, 5)), Interval(Fraction(3), INF)) == (0, 0)
    assert unit_decomposition(TL((0, 5), (1, 0)), Interval(Fraction(3), INF)) is None


@pytest.mark.parametrize("end", [INF, NEG_INF])
def test_interval_at_infinity_rejected(end):
    with pytest.raises(ValueError, match="no finite point"):
        Interval(end, end)


def test_map_skeleton_examples():
    assert map_skeleton(2, 1, Interval(Fraction(0), Fraction(2))) == Interval(
        Fraction(1), Fraction(5)
    )
    assert map_skeleton(-1, 0, Interval(Fraction(0), Fraction(3))) == Interval(
        Fraction(-3), Fraction(0)
    )
    i = Interval(Fraction(2), Fraction(7))
    assert map_skeleton(1, 0, i) == i


def test_map_skeleton_rejects_degree_zero():
    with pytest.raises(ValueError):
        map_skeleton(0, 1, Interval(Fraction(0), Fraction(1)))


def test_map_skeleton_infinite_ray():
    img = map_skeleton(-2, 1, Interval(Fraction(0), INF))
    assert img.lo == NEG_INF and img.hi == 1


trop_terms = st.lists(
    st.tuples(
        st.integers(min_value=-5, max_value=5),
        st.fractions(max_denominator=4, min_value=-10, max_value=10),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def terms_and_interval(draw):
    """A term list and two endpoints, each a tie of two terms, a random
    rational or an infinity, in either order of drawing."""
    f = TropicalLaurent.from_terms(draw(trop_terms))
    ties = ref_ties(f.terms)
    finite = st.one_of(
        st.sampled_from(ties) if ties else st.nothing(),
        st.fractions(max_denominator=4, min_value=-12, max_value=12),
    )
    lo, hi = sorted([draw(finite | st.just(NEG_INF)),
                     draw(finite | st.just(INF))])
    return f, lo, hi


@settings(max_examples=400, deadline=None)
@given(terms_and_interval())
@example((TL((0, 0), (1, 1), (2, 2)), Fraction(-1), Fraction(-1)))
@example((TL((0, 0), (1, 1), (2, 2)), NEG_INF, Fraction(-2)))
@example((TL((0, 0), (1, 1), (2, 2)), NEG_INF, INF))
@example((TL((0, 5), (3, 0)), NEG_INF, INF))
@example((TL((2, 1)), NEG_INF, INF))
def test_envelope_matches_minimizer_sets(case):
    f, lo, hi = case
    interval = Interval(lo, hi)
    assert breakpoints(f, interval) == ref_breakpoints(f.terms, lo, hi)
    assert unit_decomposition(f, interval) == ref_unit_decomposition(
        f.terms, lo, hi)
    points = {lo, hi, *ref_ties(f.terms)}
    if NEG_INF < lo and hi < INF:
        points.add((lo + hi) / 2)
    for s in points:
        assert slope_at(f, s) == ref_slope_at(f.terms, s)


@given(trop_terms)
def test_slopes_strictly_decreasing(pairs):
    f = TropicalLaurent.from_terms(pairs)
    bps = breakpoints(f, Interval(NEG_INF, INF))
    slopes = [b.slope_left for b in bps] + [bps[-1].slope_right] if bps else []
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    for b in bps:
        assert b.slope_left > b.slope_right


@given(
    trop_terms,
    st.integers(min_value=-3, max_value=3).filter(lambda d: d != 0),
    st.fractions(max_denominator=4, min_value=-5, max_value=5),
)
def test_modulus_scales_by_degree(pairs, d, val_alpha):
    lo = min(v for _, v in pairs)
    hi = lo + 3
    img = map_skeleton(d, val_alpha, Interval(lo, hi))
    assert img.length() == abs(d) * 3


def test_eval_matches_factored_form():
    # val of prod (T - a_i)^{m_i} at radius s: both routes, 100 random s
    rng = random.Random(7)
    from skeletron.oracle import expand_from_roots, tropicalize
    from skeletron.puiseux import PuiseuxElement

    roots = [PuiseuxElement.monomial(c, q) for c, q in [(1, 1), (2, 3), (-1, 0)]]
    mults = [2, 1, 3]
    shifts = [-r for r, m in zip(roots, mults) for _ in range(m)]
    f = tropicalize(expand_from_roots(shifts))
    for _ in range(100):
        s = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        direct = sum(
            m * min(r.valuation(), s) for r, m in zip(roots, mults)
        )
        assert eval_trop(f, s) == direct


def test_monotone_beyond_zeros():
    # pole of order 3 at the center, two zeros in the punctured ball:
    # val f strictly decreasing in s, so log|f| increases toward the center
    from skeletron.oracle import expand_from_roots, tropicalize
    from skeletron.puiseux import PuiseuxElement

    zeros = [PuiseuxElement.monomial(1, 1), PuiseuxElement.monomial(1, 2)]
    num = tropicalize(expand_from_roots([-z for z in zeros]))

    def val_f(s):
        return eval_trop(num, s) - 3 * s  # divide by T^3

    samples = [Fraction(k, 2) for k in range(1, 20)]
    vals = [val_f(s) for s in samples]
    assert all(a > b for a, b in zip(vals, vals[1:]))
