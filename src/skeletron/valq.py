"""Exact values in the rational value group, extended by +/- infinity.

Finite values are fractions.Fraction; the infinities are the float
infinities, which compare and min/max correctly against Fraction and never
contaminate a finite result (inf only ever absorbs).
"""

import re
from fractions import Fraction

INF = float("inf")
NEG_INF = float("-inf")
_INFINITIES = {INF: "+inf", NEG_INF: "-inf"}

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/([0-9]+))?")


def parse_rational(s: str) -> Fraction:
    """Parse 'p/q' or 'p' in decimal digits into an exact rational.  Anything
    else is rejected before ``Fraction`` reads it: a JSON number would arrive
    as a binary fraction, and '1e99999999999' would build a huge int."""
    if not isinstance(s, str):
        raise ValueError(f"rational {s!r} must be a 'p/q' string")
    m = _RATIONAL.fullmatch(s.strip())
    if not m:
        raise ValueError(f"rational {s!r} must be 'p/q' or 'p' in digits")
    if m[1] is not None and not int(m[1]):
        raise ValueError(f"zero denominator in a rational value {s!r}")
    return Fraction(m[0])


def parse_extended(s: str):
    """Parse a rational or one of '+inf'/'inf'/'-inf'."""
    t = s.strip().lower()
    if t in ("inf", "+inf", "oo", "+oo"):
        return INF
    if t in ("-inf", "-oo"):
        return NEG_INF
    return parse_rational(s)


def format_ratio(n: int, d: int) -> str:
    """A reduced fraction n/d, d > 0, as "n" or "n/d"."""
    return str(n) if d == 1 else f"{n}/{d}"


def format_rational(v) -> str:
    """As "n", "n/d", "+inf" or "-inf"; the infinities are the only floats."""
    if type(v) is float:
        return _INFINITIES[v]
    return format_ratio(v.numerator, v.denominator)
