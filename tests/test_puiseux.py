from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from skeletron.puiseux import (
    PuiseuxElement,
    canonical_terms,
    element_from_json,
    element_to_json,
    parse_element,
)
from skeletron.valq import INF

from helpers import (
    is_canonical,
    ref_add,
    ref_from_terms,
    ref_mul,
    ref_sub,
    val_diff,
)

t = PuiseuxElement.monomial(1, 1)
one = PuiseuxElement.constant(1)


def test_add_cancellation():
    assert (t + (-t)).is_zero()
    assert (t + (-t)).valuation() == INF


def test_add_like_terms():
    assert (one + t) + t == parse_element("1 + 2*t")


def test_add_distinct_valuations():
    x = PuiseuxElement.monomial(1, Fraction(1, 2))
    y = PuiseuxElement.monomial(1, Fraction(1, 3))
    assert (x + y).valuation() == Fraction(1, 3)


def test_mul_exponent_addition():
    h = PuiseuxElement.monomial(1, Fraction(1, 2))
    assert h * h == t


def test_mul_difference_of_squares():
    assert (one + t) * (one - t) == parse_element("1 - t^2")


def test_mul_zero_absorbs():
    z = PuiseuxElement.zero() * parse_element("3 + t")
    assert z.is_zero() and z.valuation() == INF


def test_valuation_examples():
    assert parse_element("3*t^2 - t^5").valuation() == 2
    assert parse_element("7").valuation() == 0
    assert parse_element("0").valuation() == INF


def test_parse_variants():
    assert parse_element("t^(-1)") == PuiseuxElement.monomial(1, -1)
    assert parse_element("-t") == -t
    assert parse_element("1/2*t^(3/4)") == PuiseuxElement.monomial(
        Fraction(1, 2), Fraction(3, 4)
    )
    assert parse_element("-3/2") == PuiseuxElement.constant(Fraction(-3, 2))


def test_parse_rejects_garbage():
    # a zero denominator is a ValueError too, not a ZeroDivisionError
    # and an exponent takes both parentheses or neither
    for bad in ("", "t+", "x^2", "1**t", "1/0*t", "t^(1/0)", "3 - t^2/0",
                "t^(1/2", "t^1/2)"):
        with pytest.raises(ValueError):
            parse_element(bad)


def test_str_parse_roundtrip():
    x = parse_element("-t^(-1/3) + 3 + 2*t^(1/2)")
    assert parse_element(str(x)) == x


def test_json_roundtrip():
    x = parse_element("1/2 - t^(5/3)")
    assert element_from_json(element_to_json(x)) == x


rationals = st.fractions(max_denominator=6, min_value=-20, max_value=20)
elements = st.lists(
    st.tuples(rationals, rationals), max_size=4
).map(PuiseuxElement.from_terms)


@given(elements, elements)
def test_ultrametric(x, y):
    vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@given(elements, elements)
def test_valuation_multiplicative(x, y):
    assert (x * y).valuation() == x.valuation() + y.valuation()


@given(elements, elements, elements)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


small = st.fractions(max_denominator=4, min_value=-6, max_value=6)
term_lists = st.lists(st.tuples(small, small), max_size=4)
# exponents above every exponent of `small`: a tail on one side only
tail_lists = st.lists(
    st.tuples(st.fractions(max_denominator=4, min_value=7, max_value=10),
              small),
    min_size=1, max_size=3,
)


@st.composite
def element_pairs(draw):
    """(x, y) built around a common part that y carries with either sign,
    so equal pairs, zero operands, leading terms that cancel under + or -
    and one-sided tails all come up often."""
    common = draw(term_lists)
    sign = draw(st.sampled_from((1, -1)))
    x = PuiseuxElement.from_terms(common + draw(term_lists))
    y = PuiseuxElement.from_terms(
        [(q, sign * c) for q, c in common]
        + draw(st.one_of(term_lists, tail_lists))
    )
    return draw(st.sampled_from(((x, y), (y, x))))


Z = PuiseuxElement.zero()
X = parse_element("1 - t + 2*t^2")


@given(element_pairs())
@example((Z, Z))
@example((X, X))
@example((X, Z))
@example((Z, X))
@example((X, -X))
@example((X, parse_element("1 - t + 2*t^2 + t^8")))
@example((X, parse_element("-1 + t^3")))
def test_fast_arithmetic_matches_reference(pair):
    x, y = pair
    assert val_diff(x, y) == ref_sub(x, y).valuation()
    assert (x + y).terms == ref_add(x, y).terms
    assert (x - y).terms == ref_sub(x, y).terms
    assert (x * y).terms == ref_mul(x, y).terms


# Every kind of rational that from_terms reads: ints, Fractions, and floats
# and strings through the Fraction(x) fallback.
any_rational = st.one_of(
    st.integers(-12, 12),
    st.fractions(max_denominator=8, min_value=-12, max_value=12),
    st.integers(-48, 48).map(lambda n: n / 4),
    st.fractions(max_denominator=8, min_value=-12, max_value=12).map(str),
)


@st.composite
def raw_term_lists(draw):
    """(exponent, coefficient) lists where some terms repeat an exponent,
    some of them with the negated coefficient, so sums cancel to zero."""
    terms = draw(st.lists(st.tuples(any_rational, any_rational), max_size=6))
    for q, c in draw(st.lists(st.sampled_from(terms), max_size=4)
                     if terms else st.just([])):
        terms.append((q, -Fraction(c) if draw(st.booleans()) else c))
    return draw(st.permutations(terms))


@given(raw_term_lists())
@example([])
@example([(1, 2), (Fraction(2, 2), -2)])
@example([("1/2", 0.5), (0.5, "-1/2"), (0, 3)])
@example([(Fraction(-1, 3), 1), (Fraction(1, 2), 1), (Fraction(-1, 2), 1)])
def test_from_terms_matches_reference(pairs):
    x = PuiseuxElement.from_terms(pairs)
    assert x.terms == ref_from_terms(pairs).terms
    assert is_canonical(x)


int_terms = st.lists(st.tuples(
    st.integers(-24, 24), st.integers(1, 12),
    st.integers(-24, 24), st.integers(1, 12)), max_size=6)


@given(int_terms)
@example([])
@example([(2, 4, 3, 6), (1, 2, -2, 4), (0, 5, 0, 3)])
@example([(3, 6, 1, 2), (-2, 4, 1, 2), (0, 2, 4, 8)])
def test_canonical_terms_reduces_unreduced_pairs(terms):
    x = PuiseuxElement(canonical_terms(terms))
    assert x == ref_from_terms(
        (Fraction(p, q), Fraction(a, b)) for p, q, a, b in terms)
    assert is_canonical(x)
