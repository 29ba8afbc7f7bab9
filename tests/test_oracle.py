import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skeletron import oracle
from skeletron.newton import eval_trop
from skeletron.oracle import eval_val_newton, expand_from_roots, tropicalize
from skeletron.points import RationalFunction, Type2, eval_val
from skeletron.puiseux import PuiseuxElement
from skeletron.randfix import rand_rational_function, rand_type2
from skeletron.valq import INF

from helpers import (
    ref_eval_val_newton,
    ref_expand_from_roots,
)

exponents = st.builds(Fraction, st.integers(-6, 8), st.integers(1, 3))
coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                   st.integers(1, 2))
# 0-3 terms; no terms is the zero shift of a centre on a root
elements = st.lists(st.tuples(exponents, coeffs), max_size=3).map(
    PuiseuxElement.from_terms)
# 1-7 shifts drawn from a pool of at most 3, so shifts repeat
shift_lists = st.lists(elements, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=7))
radii = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def _upper_bound(shifts, s):
    """min(N*s, z*s + sum of the finite shift valuations), z the number of
    zero shifts: the exact values of the top and the lowest nonzero
    coefficient at radius s."""
    finite = [v for v in (r.valuation() for r in shifts) if v != INF]
    n = len(shifts)
    return min(n * s, (n - len(finite)) * s + sum(finite))


@settings(max_examples=400, deadline=None)
@given(shift_lists, radii)
def test_capped_expansion_is_the_full_one_below_its_cap(shifts, s):
    full = ref_expand_from_roots(shifts)
    assert expand_from_roots(shifts) == full
    bound = _upper_bound(shifts, s)
    capped = expand_from_roots(shifts, s)
    assert capped == [
        PuiseuxElement.from_terms(
            t for t in c.pairs() if t[0] <= bound - n * s)
        for n, c in enumerate(full)
    ]
    assert eval_trop(tropicalize(capped), s) == eval_trop(tropicalize(full), s)


def _crosscheck_items(rng: random.Random):
    """One round of the benchmark's oracle items: 6-8 distinct monomial
    roots on the half-integer grid with a fixed multiplicity pattern, and a
    centre of 0-2 terms; each item also evaluated centred on a root."""
    patterns = ((3, 2, 1, -1, -2, -3), (3, 2, 1, 1, -1, -2, -3),
                (3, 2, 1, 1, -1, -1, -2, -3))

    def coeff(bound):
        return Fraction(rng.choice([c for c in range(-bound, bound + 1) if c]),
                        rng.randint(1, 3))

    for mults in patterns:
        for centre_terms in (0, 1, 2):
            k = len(mults)
            roots = [PuiseuxElement.monomial(coeff(5), Fraction(e, 2))
                     for e in rng.sample(range(-8, 13), k)]
            f = RationalFunction.make(
                Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                zip(roots, rng.sample(mults, k)))
            centre = PuiseuxElement.from_terms(
                (Fraction(e, 2), coeff(6))
                for e in rng.sample(range(-8, 17), centre_terms))
            s = Fraction(rng.randint(-12, 20), rng.randint(1, 4))
            yield f, Type2(centre, s)
            yield f, Type2(rng.choice(roots), s)


def test_eval_val_newton_matches_full_expansion():
    rng = random.Random(11)
    for _ in range(300):
        f = rand_rational_function(rng)
        x = rand_type2(rng)
        assert eval_val_newton(f, x) == ref_eval_val_newton(f, x)
    for _ in range(3):
        for f, x in _crosscheck_items(rng):
            assert eval_val_newton(f, x) == ref_eval_val_newton(f, x)


def _two_term_roots(rng: random.Random, n):
    roots = set()
    while len(roots) < n:
        e = Fraction(rng.randint(-8, 12), 2)
        gap = Fraction(rng.randint(1, 8), 2)
        roots.add(PuiseuxElement.from_terms(
            (q, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)))
            for q in (e, e + gap)))
    return sorted(roots, key=PuiseuxElement.pairs)


@pytest.mark.parametrize("seed, n", [(1, 40), (2, 48)])
def test_oracle_equivalence_at_scale(seed, n):
    # the full expansion takes seconds per point; the capped one mostly ms
    rng = random.Random(seed)
    roots = _two_term_roots(rng, n)
    f = RationalFunction.make(
        Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        [(r, rng.choice([-2, -1, 1, 2])) for r in roots])
    points = [
        Type2(rng.choice(roots), Fraction(rng.randint(-12, -1), 4)),
        Type2(rng.choice(roots), Fraction(rng.randint(-12, 24), 4)),
        Type2(rand_type2(rng).center, Fraction(rng.randint(-12, -1), 4)),
        Type2(rand_type2(rng).center, Fraction(rng.randint(-12, 24), 4)),
    ]
    for x in points:
        assert eval_val(f, x) == eval_val_newton(f, x)


# the valuation-of-a-difference route that the oracle cross-checks
CHECKED_ROUTE = {"val_diff", "lead_diff", "eval_val", "join",
                 "retract", "_merge"}


def test_oracle_borrows_nothing_from_the_route_it_checks():
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.name.rpartition(".")[2])
                names.add(alias.asname)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "*" not in names
    assert not CHECKED_ROUTE & names
    assert not CHECKED_ROUTE & set(vars(oracle))
