"""Recentering Newton-polygon evaluation of val(f) at a type-2 point.

Independent route against the factored-form formula in points.eval_val:
expand numerator and denominator of f as polynomials in u = T - center with
exact Puiseux coefficients, tropicalize coefficient-wise, and read off the
sup-norm valuation at radius s from the Newton polygon.  Shares no code
path with eval_val beyond the field arithmetic itself.

At radius s only min_n(val c_n + n*s) is read, so the expansion keeps only
the monomials that can still reach that minimum (precision tracking in the
sense of Caruso-Roe-Vaccon, "Tracking p-adic precision", 2014).  The cap
comes from the oracle's own data, the valuations of the shifts:

- B = min(N*s, z*s + sum of the finite val shift_i) bounds the result from
  above: c_N = 1, and with z zero shifts among the N the lowest nonzero
  coefficient is c_z, the product of the nonzero shifts, whose valuation is
  the sum of theirs.
- Each coefficient of the product of the R factors still to come is a sum of
  products of R - m shift monomials with u^m, so everything it contributes
  at radius s has valuation at least slack = sum over those factors of
  min(val shift_i, s), which equals min over m of (m*s + the sum of the
  R - m smallest valuations).
- A monomial t^q of the partial coefficient e_j therefore ends up only at
  exponents above B - n*s of every c_n it reaches unless
  q <= B - j*s - slack; all others are dropped after each factor.

After the last factor the slack is 0, so each returned c_n equals the full
c_n restricted to exponents <= B - n*s.  The n attaining the minimum, which
is at most B, keeps its lowest monomial and so its exact valuation; every
c_n cut down to zero had val c_n + n*s > B.  The result is therefore exact.

Inside the spread of the shift valuations the cap leaves a window
B - sum of min(val shift_i, s) open, about 20 at 40 two-term roots, and
such a point takes up to seconds.  The window stays open on purpose:
closing it needs the exact valuation of the split coefficient c_n,
n = #{i : val shift_i > s}, and that valuation is the Gauss-norm formula
that ``points.eval_val`` evaluates, so the oracle would no longer be an
independent check of it.
"""

from __future__ import annotations

from fractions import Fraction

from .newton import TropicalLaurent, eval_trop
from .points import RationalFunction, Type2
from .puiseux import PuiseuxElement
from .valq import INF


def _upto(c: PuiseuxElement, cap) -> PuiseuxElement:
    """c without its monomials of exponent above cap."""
    terms = c.terms
    n, d = cap.numerator, cap.denominator
    k = len(terms)
    while k and terms[k - 1][0] * d > n * terms[k - 1][1]:
        k -= 1
    return c if k == len(terms) else PuiseuxElement(terms[:k])


def expand_from_roots(shifts, s=None) -> list[PuiseuxElement]:
    """Coefficients (low degree first) of prod_i (u + shift_i).

    Without s the expansion is complete.  With s, each c_n is cut to its
    monomials of exponent <= B - n*s (see the module docstring), which
    leaves min_n(val c_n + n*s) unchanged.
    """
    shifts = list(shifts)
    if s is not None:
        vals = [r.valuation() for r in shifts]
        zeros = vals.count(INF)
        bound = min(len(vals) * s,
                    zeros * s + sum(v for v in vals if v != INF))
        # the least valuation at radius s that the factors to come can add
        slack = sum(min(v, s) for v in vals)
    coeffs = [PuiseuxElement.constant(1)]
    for k, shift in enumerate(shifts):
        zero = PuiseuxElement.zero()
        nxt = [zero] * (len(coeffs) + 1)
        for n, c in enumerate(coeffs):
            nxt[n] = nxt[n] + c * shift   # constant part of the factor
            nxt[n + 1] = nxt[n + 1] + c   # u part
        if s is not None:
            slack -= min(vals[k], s)
            top = bound - slack
            nxt = [_upto(c, top - j * s) for j, c in enumerate(nxt)]
        coeffs = nxt
    return coeffs


def tropicalize(coeffs) -> TropicalLaurent:
    terms = [
        (n, c.valuation())
        for n, c in enumerate(coeffs)
        if not c.is_zero()
    ]
    return TropicalLaurent.from_terms(terms)


def eval_val_newton(f: RationalFunction, x: Type2) -> Fraction:
    """val f(x) via recentering and the Newton polygon."""
    num_shifts = []
    den_shifts = []
    for root, mult in f.factors:
        shift = x.center - root
        bucket = num_shifts if mult > 0 else den_shifts
        bucket.extend([shift] * abs(mult))
    s = x.s
    total = f.lead_val
    if num_shifts:
        total += eval_trop(tropicalize(expand_from_roots(num_shifts, s)), s)
    if den_shifts:
        total -= eval_trop(tropicalize(expand_from_roots(den_shifts, s)), s)
    return total
