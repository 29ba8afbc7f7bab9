"""Newton-polygon calculus on annuli.

A TropicalLaurent is the valuation shadow of a Laurent series: a finite map
exponent n -> valuation v_n.  Its evaluation at valuative radius s is
min_n (v_n + n*s), the valuation of the sup norm on the circle of radius s.
This is a concave piecewise-affine function of s with integer slopes; its
breakpoints are where the minimizing exponent changes.

Orientation convention used throughout: the skeleton coordinate s = val(T)
increases toward the center/puncture 0, and slopes are reported in the
direction of increasing s.  With this convention the slope sequence across
breakpoints is strictly decreasing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .valq import INF, NEG_INF


@dataclass(frozen=True)
class Interval:
    """Trop-interval of a (generalized) annulus; endpoints may be infinite.

    A degenerate [c, c] interval (modulus-zero annulus) is allowed for a
    finite c; [inf, inf] and [-inf, -inf] are rejected.
    """

    lo: object  # Fraction or -inf
    hi: object  # Fraction or +inf

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.lo == INF or self.hi == NEG_INF:
            raise ValueError(
                f"interval [{self.lo}, {self.hi}] has no finite point")

    def length(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class Breakpoint:
    s: Fraction
    slope_left: int
    slope_right: int


@dataclass(frozen=True)
class TropicalLaurent:
    # sorted tuple of (exponent n, valuation v_n)
    terms: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_terms(pairs) -> "TropicalLaurent":
        acc: dict[int, Fraction] = {}
        for n, v in pairs:
            if type(n) is not int:  # also rejects a JSON true or false
                raise ValueError(f"exponent {n!r} is not an integer")
            v = Fraction(v)
            # two monomials of the same exponent: the smaller valuation wins
            # generically; keep the min (tropical sum)
            acc[n] = v if n not in acc else min(acc[n], v)
        if not acc:
            raise ValueError("TropicalLaurent needs at least one term")
        return TropicalLaurent(tuple(sorted(acc.items())))


def eval_trop(f: TropicalLaurent, s) -> Fraction:
    """Valuation of the sup norm at valuative radius s: min_n (v_n + n*s)."""
    s = Fraction(s)
    return min(v + n * s for n, v in f.terms)


def _lower_hull(points):
    """Lower convex hull of (n, v) points, n strictly increasing.

    Strict turns only, so collinear middle points are dropped; the hull
    vertices are exactly the exponents that strictly minimize v + n*s on
    some open s-interval.
    """
    hull = []
    for p in points:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross > 0:  # strict counterclockwise turn: a stays on the hull
                break
            hull.pop()
        hull.append(p)
    return hull


def _envelope(f: TropicalLaurent):
    """Pieces of s -> min_n(v_n + n*s): list of (slope n, v_n) in order of
    decreasing slope, plus the crossing s between consecutive pieces.

    The piece with the largest n is active for the smallest s.  Piece i is
    the only minimizer strictly between crossings i - 1 and i, and at a
    crossing the minimizers are the exponents on the hull segment between
    its two pieces, so every question about the minimizing exponent is a
    bisection into the crossings.
    """
    hull = _lower_hull(f.terms)
    pieces = hull[::-1]  # decreasing n = order of increasing s
    # v2 + n2*s = v1 + n1*s between consecutive pieces, n2 > n1
    crossings = [(v1 - v2) / (n2 - n1)
                 for (n2, v2), (n1, v1) in zip(pieces, pieces[1:])]
    return pieces, crossings


def breakpoints(f: TropicalLaurent, interval: Interval) -> list[Breakpoint]:
    """All interior points of the interval where the minimizing exponent
    changes, with the flanking integer slopes, sorted ascending."""
    pieces, crossings = _envelope(f)
    return [Breakpoint(s=s, slope_left=pieces[i][0],
                       slope_right=pieces[i + 1][0])
            for i, s in enumerate(crossings)
            if interval.lo < s < interval.hi]


def slope_at(f: TropicalLaurent, s) -> tuple[int, int]:
    """(left, right) slopes of the evaluation function at s; at s = -inf
    or +inf both are the slope of the first or the last piece."""
    pieces, crossings = _envelope(f)
    return (pieces[bisect_left(crossings, s)][0],
            pieces[bisect_right(crossings, s)][0])


def slope_change_count(zeros_poles, s) -> int:
    """Change of slope of F = val(f) at s from factored data.

    zeros_poles is a list of (valuation, multiplicity) pairs with zeros
    carrying positive and poles negative multiplicity.  The change of slope
    at s equals (#poles - #zeros) retracting to s, with multiplicity.
    """
    s = Fraction(s)
    total = 0
    for v, m in zeros_poles:
        if m == 0:
            raise ValueError("multiplicities must be nonzero")
        if Fraction(v) == s:
            total -= m
    return total


def unit_decomposition(f: TropicalLaurent, interval: Interval):
    """Return (d, val_alpha) iff a single term strictly dominates on the
    whole closed interval: f is then a unit alpha*t^d*(1+g) on the annulus.

    Returns None when f has a zero on the closed annulus, including a tie
    at an endpoint (a zero on the boundary circle), that is when a
    crossing of the envelope lies in the closed interval.
    """
    pieces, crossings = _envelope(f)
    i = bisect_left(crossings, interval.lo)
    if i < len(crossings) and crossings[i] <= interval.hi:
        return None
    return pieces[i]


def map_skeleton(d: int, val_alpha, interval: Interval) -> Interval:
    """Image of the annulus skeleton under a degree-d unit map:
    s -> d*s + val_alpha.  Endpoints swap when d < 0; the image length is
    |d| times the input length."""
    if d == 0:
        raise ValueError("d = 0: induced morphism is not finite")
    val_alpha = Fraction(val_alpha)
    # d * inf is an infinity of d's sign, and adding val_alpha keeps it
    return Interval(*sorted((d * interval.lo + val_alpha,
                             d * interval.hi + val_alpha)))
