"""Points of the Berkovich projective line at desk scale.

Type-1 points are field elements (finite Puiseux sums) or the point at
infinity.  Type-2 points are closed balls (center, valuative radius s) with
s in the rational value group; the ball diameter is exp(-s), so larger s
means a smaller ball.  Two type-2 points (b, s), (b', s) are the same ball
iff val(b - b') >= s; centers are kept canonical by truncating all monomials
of exponent >= s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .puiseux import PuiseuxElement, val_diff_pair
from .valq import INF


class _Infinity:
    """The point at infinity on P^1 (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


@dataclass(frozen=True)
class Type1:
    value: object  # PuiseuxElement or INFINITY

    def is_infinity(self) -> bool:
        return self.value is INFINITY

    def __repr__(self):
        return f"Type1({self.value})"


@dataclass(frozen=True)
class Type2:
    center: PuiseuxElement
    s: Fraction

    def __post_init__(self):
        if type(self.s) is not Fraction:
            object.__setattr__(self, "s", Fraction(self.s))
        object.__setattr__(self, "center", self.center.truncate_below(self.s))

    def __repr__(self):
        return f"zeta({self.center}, {self.s})"


def gauss_point() -> Type2:
    return Type2(PuiseuxElement.zero(), Fraction(0))


def _radius(x) -> object:
    """Valuative radius: s for type-2, +inf for a finite type-1 point."""
    if isinstance(x, Type2):
        return x.s
    if isinstance(x, Type1):
        if x.is_infinity():
            raise ValueError("the point at infinity has no valuative radius")
        return INF
    raise TypeError(f"not a P1 point: {x!r}")


def _center(x) -> PuiseuxElement:
    return x.center if isinstance(x, Type2) else x.value


def join(x, y):
    """Gauss point of the smallest closed ball containing both points.

    Type-1 inputs count as balls of radius s = +inf; the point at infinity
    is rejected (paths through infinity are handled by retraction).
    """
    sx, sy = _radius(x), _radius(y)
    if x == y:
        return x
    s = min(sx, sy)
    v = val_diff_pair(_center(x).terms, _center(y).terms)
    if v is not None and (s is INF or v[0] * s.denominator
                          < s.numerator * v[1]):
        s = Fraction(*v)
    return Type2(_center(x), s)


def path_distance(x, y):
    """Path distance s_x + s_y - 2*s_join; +inf when a type-1 point is
    involved (points of the hyperbolic part are at infinite distance from
    field points), and 0 exactly on equal points."""
    if x == y:
        return Fraction(0)
    sx, sy = _radius(x), _radius(y)
    if sx == INF or sy == INF:
        return INF
    sj = join(x, y).s
    return sx + sy - 2 * sj


@dataclass(frozen=True)
class RationalFunction:
    """A rational function in factored form: a leading valuation plus
    (root, multiplicity) factors.  Zeros have positive, poles negative
    multiplicity.  The order at infinity is implied by degree zero of the
    divisor unless infinity is listed explicitly, in which case it must
    match."""

    lead_val: Fraction
    factors: tuple[tuple[object, int], ...]  # root: PuiseuxElement|INFINITY

    @staticmethod
    def make(lead_val, factors) -> "RationalFunction":
        lead_val = Fraction(lead_val)
        norm = []
        seen = []
        inf_mult = None
        for root, mult in factors:
            if type(mult) is not int:  # also rejects a JSON true or false
                raise ValueError(f"multiplicity {mult!r} is not an integer")
            if mult == 0:
                raise ValueError("zero multiplicity in factor list")
            if root is INFINITY:
                if inf_mult is not None:
                    raise ValueError("infinity listed twice")
                inf_mult = mult
                continue
            if any(root == r for r in seen):
                raise ValueError(f"repeated root {root}")
            seen.append(root)
            norm.append((root, mult))
        finite_sum = sum(m for _, m in norm)
        if inf_mult is not None and inf_mult != -finite_sum:
            raise ValueError(
                f"order at infinity {inf_mult} != {-finite_sum} forced by "
                "degree zero"
            )
        return RationalFunction(lead_val, tuple(norm))

    def order_at_infinity(self) -> int:
        return -sum(m for _, m in self.factors)

    def order_at(self, puncture) -> int:
        """Multiplicity of a point in div(f); 0 if not a zero or pole."""
        if isinstance(puncture, Type1):
            puncture = puncture.value
        if puncture is INFINITY:
            return self.order_at_infinity()
        for root, mult in self.factors:
            if root == puncture:
                return mult
        return 0

    def inverse(self) -> "RationalFunction":
        return RationalFunction(
            -self.lead_val, tuple((r, -m) for r, m in self.factors)
        )


def eval_val(f: RationalFunction, x: Type2) -> Fraction:
    """val f at a type-2 point (b, s):
    lead_val + sum_i mult_i * min(val(b - a_i), s).

    The sum runs in ints: the multiplicities of the factors with
    val(b - a_i) >= s add up to one count of s, and the other terms to one
    numerator per denominator of val(b - a_i)."""
    if not isinstance(x, Type2):
        raise TypeError("eval_val needs a type-2 point")
    sn, sd = x.s.numerator, x.s.denominator
    center = x.center.terms
    at_s = 0
    below: dict[int, int] = {}  # denominator q -> sum of mult_i * p_i
    for root, mult in f.factors:
        v = val_diff_pair(center, root.terms)
        if v is None or v[0] * sd >= sn * v[1]:
            at_s += mult
        else:
            p, q = v
            below[q] = below.get(q, 0) + mult * p
    lead = f.lead_val
    num = lead.numerator * sd + at_s * sn * lead.denominator
    den = lead.denominator * sd
    for q, p in below.items():
        num, den = num * q + p * den, den * q
    return Fraction(num, den)
