"""Exact values in the rational value group, extended by +/- infinity.

Finite values are fractions.Fraction; the infinities are the float
infinities, which compare and min/max correctly against Fraction and never
contaminate a finite result (inf only ever absorbs).
"""

from fractions import Fraction

INF = float("inf")
NEG_INF = float("-inf")


def parse_rational(s: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact rational.  Anything but a string,
    a JSON number included, is rejected: a float would arrive as a binary
    fraction."""
    if not isinstance(s, str):
        raise ValueError(f"rational {s!r} must be a 'p/q' string")
    return Fraction(s.strip())


def parse_extended(s: str):
    """Parse a rational or one of '+inf'/'inf'/'-inf'."""
    t = s.strip().lower()
    if t in ("inf", "+inf", "oo", "+oo"):
        return INF
    if t in ("-inf", "-oo"):
        return NEG_INF
    return Fraction(t)


def format_rational(v) -> str:
    if v == INF:
        return "+inf"
    if v == NEG_INF:
        return "-inf"
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"
