"""The int term tuples against the Fraction kernel they replace: every
operation's result, read back as Fraction pairs, equals the reference's."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from skeletron.points import RationalFunction, Type1, Type2, eval_val, join
from skeletron.puiseux import PuiseuxElement, element_to_json, lead_diff

from helpers import (
    is_canonical,
    ref_element_to_json,
    ref_eval_val,
    ref_join,
    ref_merge,
    ref_mul_terms,
    ref_str,
    ref_sub,
    ref_truncate_below,
    ref_val_diff,
    val_diff,
)

# negative exponents and coefficients, denominators 1 to 6
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                    st.integers(1, 6))
term_lists = st.lists(st.tuples(rationals, nonzero), max_size=4)


@st.composite
def element_pairs(draw):
    """(x, y) sharing a part that y carries with either sign, so sums and
    differences cancel terms, often all of them; or two equal elements."""
    common = draw(term_lists)
    sign = draw(st.sampled_from((1, -1)))
    x = PuiseuxElement.from_terms(common + draw(term_lists))
    if draw(st.booleans()):
        return x, PuiseuxElement.from_terms(x.pairs())
    y = PuiseuxElement.from_terms(
        [(q, sign * c) for q, c in common] + draw(term_lists))
    return x, y


@settings(max_examples=300, deadline=None)
@given(element_pairs(), rationals)
@example((PuiseuxElement.from_terms([(Fraction(1, 2), 1)]),
          PuiseuxElement.from_terms([(Fraction(2, 5), 1)])), Fraction(1, 2))
@example((PuiseuxElement.from_terms([(Fraction(-1, 2), Fraction(1, 2))]),
          PuiseuxElement.from_terms([(Fraction(-1, 2), Fraction(-1, 2))])),
         Fraction(-1, 2))
def test_arithmetic_matches_fraction_kernel(pair, s):
    x, y = pair
    fx, fy = x.pairs(), y.pairs()
    results = {
        "+": (x + y, ref_merge(fx, fy, 1)),
        "-": (x - y, ref_merge(fx, fy, -1)),
        "neg": (-x, ref_merge((), fx, -1)),
        "*": (x * y, ref_mul_terms(fx, fy)),
        "truncate_below": (x.truncate_below(s), ref_truncate_below(fx, s)),
    }
    for op, (got, want) in results.items():
        assert got.pairs() == want, op
        assert is_canonical(got), op
    assert val_diff(x, y) == ref_val_diff(fx, fy)
    assert (x - y).valuation() == val_diff(x, y)


def _el(*terms):
    return PuiseuxElement.from_terms(terms)


def _ref_lead(x, y):
    """The leading term of x - y through the Fraction route, as
    (exponent, sign of its coefficient), or None when x == y."""
    pairs = ref_sub(x, y).pairs()
    if not pairs:
        return None
    q, c = pairs[0]
    return q, 1 if c > 0 else -1


@settings(max_examples=300, deadline=None)
@given(element_pairs())
# a term of x alone, of either sign, below y's first term
@example((_el((Fraction(1, 2), 2), (1, 1)), _el((1, 1))))
@example((_el((Fraction(-1, 3), -1)), _el((0, 5))))
# a term of y alone, of either sign, below x's first term
@example((_el((2, 1)), _el((1, 3))))
@example((_el((2, 1)), _el((1, -3))))
# one side runs out: the first unmatched term is the other side's tail
@example((_el((0, 1)), _el((0, 1), (Fraction(2, 5), 1))))
@example((_el((0, 1), (1, -1)), _el((0, 1))))
# equal exponents, different coefficients
@example((_el((Fraction(1, 2), Fraction(1, 2))),
          _el((Fraction(1, 2), Fraction(1, 3)))))
@example((_el((Fraction(1, 2), Fraction(-1, 2))),
          _el((Fraction(1, 2), Fraction(1, 3)))))
# x == y
@example((_el((Fraction(2, 5), 1), (3, -7)),
          _el((Fraction(2, 5), 1), (3, -7))))
@example((_el(), _el()))
def test_lead_diff_is_the_leading_term_of_the_difference(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        got = lead_diff(a.terms, b.terms)
        want = _ref_lead(a, b)
        if want is None:
            assert got is None
            continue
        q, sign = want
        p, d, c = got
        assert (p, d) == (q.numerator, q.denominator)
        assert type(c) is int and c != 0 and (c > 0) == (sign > 0)


@st.composite
def points_and_functions(draw):
    """A type-2 point, its center sometimes wholly above its radius, and a
    rational function whose roots share leading terms with the center."""
    center_terms = draw(term_lists)
    s = draw(rationals)
    if center_terms and draw(st.booleans()):
        # every term of the center lies at or above s: a zero center
        s = min(q for q, _ in center_terms) - draw(
            st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)))
    center = PuiseuxElement.from_terms(center_terms)
    roots = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(0, len(center_terms)))
        root = PuiseuxElement.from_terms(center_terms[:k] + draw(term_lists))
        if root not in roots:
            roots.append(root)
    mults = draw(st.lists(st.integers(-3, 3).filter(bool),
                          min_size=len(roots), max_size=len(roots)))
    f = RationalFunction.make(draw(rationals), zip(roots, mults))
    return Type2(center, s), f


ABOVE = PuiseuxElement.from_terms([(Fraction(1, 2), 3), (2, Fraction(-1, 6))])


@settings(max_examples=300, deadline=None)
@given(points_and_functions(), rationals)
@example((Type2(ABOVE, Fraction(1, 3)),
          RationalFunction.make(1, [(ABOVE, 2), (-ABOVE, -1)])),
         Fraction(-5, 4))
def test_join_and_eval_val_match_fraction_kernel(item, r):
    x, f = item
    value = eval_val(f, x)
    assert type(value) is Fraction and value == ref_eval_val(f, x)
    for root, _ in f.factors:
        for p, q in ((x, Type1(root)), (Type1(root), x),
                     (x, Type2(root, r)), (Type2(root, r), x)):
            got, want = join(p, q), ref_join(p, q)
            assert (got.s, got.center.pairs()) == (
                want.s, want.center.pairs())
        for other, _ in f.factors:
            if other != root:
                got = join(Type1(root), Type1(other))
                want = ref_join(Type1(root), Type1(other))
                assert (got.s, got.center.pairs()) == (
                    want.s, want.center.pairs())


@settings(max_examples=300, deadline=None)
@given(term_lists)
@example([(Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1))])
@example([(Fraction(-3), Fraction(1)), (Fraction(0), Fraction(-5, 2))])
def test_formatting_matches_fraction_pairs(terms):
    x = PuiseuxElement.from_terms(terms)
    assert str(x) == ref_str(x)
    assert element_to_json(x) == ref_element_to_json(x)
