"""``eval_val`` through the trie of a function's roots against the two
routes it replaces: the per-factor ``lead_diff`` loop and the full
subtractions."""

import random
from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings, strategies as st

from skeletron import points, puiseux, skeleton
from skeletron.points import (
    INFINITY,
    RationalFunction,
    Type1,
    Type2,
    eval_val,
)
from skeletron.puiseux import PuiseuxElement, lead_diff
from skeletron.skeleton import build_skeleton_tree
from skeletron.slopes import compute_F

from helpers import ref_eval_val, ref_factor_eval_val, two_term_roots

# negative exponents and coefficients, denominators 1 to 6
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                    st.integers(1, 6))
offsets = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))


@st.composite
def trie_cases(draw):
    """A type-2 point and a rational function whose roots extend prefixes
    of the center and of each other: a tail term at offset 0 changes the
    last coefficient of the prefix or cancels it.  s is often one of the
    roots' exponents, or lies just above or below one, off the grid of
    their denominators."""
    center = PuiseuxElement.from_terms(
        draw(st.lists(st.tuples(rationals, nonzero), max_size=4)))
    stems = [center.pairs()]
    roots = []
    for _ in range(draw(st.integers(0, 7))):
        stem = draw(st.sampled_from(stems))
        pairs = list(stem[:draw(st.integers(0, len(stem)))])
        e = pairs[-1][0] if pairs else draw(rationals)
        for _ in range(draw(st.integers(0, 2))):
            e += draw(offsets)
            pairs.append((e, draw(nonzero)))
        root = PuiseuxElement.from_terms(pairs)
        if root not in roots:
            roots.append(root)
            stems.append(root.pairs())
    mults = draw(st.lists(st.integers(-3, 3).filter(bool),
                          min_size=len(roots), max_size=len(roots)))
    exps = sorted({q for r in roots for q, _ in r.pairs()})
    where = draw(st.sampled_from(("any", "on", "near"))) if exps else "any"
    if where == "any":
        s = draw(rationals)
    else:
        s = draw(st.sampled_from(exps))
        if where == "near":  # inside one step of the roots' exponent grid
            D = lcm(*(q.denominator for q in exps))
            s += Fraction(draw(st.sampled_from((-1, 1))), 7 * D)
    return Type2(center, s), RationalFunction.make(draw(rationals),
                                                   zip(roots, mults))


def _el(*terms):
    return PuiseuxElement.from_terms(terms)


def _case(center, s, *factors, lead=0):
    return Type2(center, Fraction(s)), RationalFunction.make(lead, factors)


ZERO = _el()
T = _el((1, 1))
HALF = _el((Fraction(1, 2), 1))
LONG = _el((Fraction(1, 2), 1), (Fraction(5, 3), 2))
C = _el((Fraction(1, 3), Fraction(1, 2)), (2, -1))


@settings(max_examples=400, deadline=None)
@given(trie_cases())
# the zero root, which ends at the trie's root
@example(_case(T + T * T, Fraction(5, 2), (ZERO, 2), (T, -1)))
# a root equal to the center, beside one that extends it
@example(_case(C, Fraction(5, 2), (C, 3), (C + _el((Fraction(7, 3), 1)), -1),
               (ZERO, 1)))
# the center a proper prefix of a root, and a root a proper prefix of it
@example(_case(HALF, 3, (LONG, 2), (ZERO, -1)))
@example(_case(LONG, 3, (HALF, 2), (T, -1)))
# the same exponent with another coefficient
@example(_case(_el((1, 3)), 4, (_el((1, 2)), 1), (_el((1, 3), (2, 1)), 2)))
# s equal to a child exponent, on and off the center's path
@example(_case(_el((0, 1)), 2, (_el((0, 1), (2, 1)), 1),
               (_el((0, 1), (Fraction(5, 2), -1)), -2), (_el((2, 1)), 1)))
# s off the roots' exponent grid, between two child exponents
@example(_case(_el((0, 1)), Fraction(3, 2), (_el((0, 1), (1, 1)), 1),
               (_el((0, 1), (2, 1)), 1)))
# multiplicities that cancel: a subtree of total 0, on and off the path
@example(_case(ZERO, 3, (_el((1, 1), (2, 1)), 1), (_el((1, 1), (2, -1)), -1),
               (ZERO, 1)))
@example(_case(_el((1, 1), (3, 1)), 4, (_el((1, 1), (2, 1)), 1),
               (_el((1, 1), (2, -1)), -1), (T, 2), (ZERO, -2)))
def test_trie_eval_val_matches_both_references(case):
    x, f = case
    got = eval_val(f, x)
    assert type(got) is Fraction
    assert got == ref_factor_eval_val(f, x) == ref_eval_val(f, x)


def test_trie_is_built_once_per_function():
    f = RationalFunction.make(0, [(T, 1), (HALF, -1)])
    trie = f.root_trie
    eval_val(f, Type2(ZERO, Fraction(2)))
    assert f.root_trie is trie
    assert f.inverse().root_trie is not trie


# --- growth guard --------------------------------------------------------

def test_compute_F_makes_no_lead_diff_calls(monkeypatch):
    rng = random.Random(1280)
    roots = two_term_roots(rng, 1280, clustered=False)
    tree = build_skeleton_tree([Type1(r) for r in roots]
                               + [Type1(INFINITY)])
    f = RationalFunction.make(
        0, [(r, rng.choice((-2, -1, 1, 2))) for r in roots])
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return lead_diff(x, y)

    for module in (puiseux, points, skeleton):
        monkeypatch.setattr(module, "lead_diff", counted)
    F = compute_F(f, tree)
    assert calls[0] == 0
    monkeypatch.undo()
    for v in tree.graph.vertex_ids()[::40]:
        assert F.vertex_values[v] == ref_factor_eval_val(
            f, tree.placement[v])
    for mark, target in tree.ray_target.items():
        assert F.ray_slopes[mark] == f.order_at(target)
