"""Points of the Berkovich projective line at desk scale.

Type-1 points are field elements (finite Puiseux sums) or the point at
infinity.  Type-2 points are closed balls (center, valuative radius s) with
s in the rational value group; the ball diameter is exp(-s), so larger s
means a smaller ball.  Two type-2 points (b, s), (b', s) are the same ball
iff val(b - b') >= s; centers are kept canonical by truncating all monomials
of exponent >= s.

val f at (b, s) is the Gauss-norm formula lead_val + sum_i m_i *
min(val(b - a_i), s) over the roots a_i of f.  val(b - a_i) depends only on
the first term where b and a_i differ, so the roots' term tuples go into a
digital search tree (``RootTrie``, built once per function and cached on
it).  A query walks b's terms down the trie and settles, at each node, every
root that leaves b's path there; with D the lcm of the roots' exponent
denominators, each child exponent e is kept as the int e*D, so every
comparison and partial sum is an int operation.  The build costs
O(n * terms), a query O(terms * log n).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .puiseux import PuiseuxElement, lead_diff
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
    v = lead_diff(_center(x).terms, _center(y).terms)
    if v is not None and (s is INF or v[0] * s.denominator
                          < s.numerator * v[1]):
        s = Fraction(v[0], v[1])
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
        seen = set()
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
            if root in seen:
                raise ValueError(f"repeated root {root}")
            seen.add(root)
            norm.append((root, mult))
        finite_sum = sum(m for _, m in norm)
        if inf_mult is not None and inf_mult != -finite_sum:
            raise ValueError(
                f"order at infinity {inf_mult} != {-finite_sum} forced by "
                "degree zero"
            )
        return RationalFunction(lead_val, tuple(norm))

    @cached_property
    def root_trie(self) -> "RootTrie":
        """The roots' term tuples as a trie, for ``eval_val``."""
        return RootTrie(self.factors)

    @cached_property
    def root_mults(self) -> dict:
        """Each finite root's multiplicity, for ``order_at``; kept apart
        from the trie, so the order a ray check expects does not come from
        the code that computes the ray's slope."""
        return dict(self.factors)

    def order_at_infinity(self) -> int:
        return -sum(m for _, m in self.factors)

    def order_at(self, puncture) -> int:
        """Multiplicity of a point in div(f); 0 if not a zero or pole."""
        if isinstance(puncture, Type1):
            puncture = puncture.value
        if puncture is INFINITY:
            return self.order_at_infinity()
        return self.root_mults.get(puncture, 0)

    def inverse(self) -> "RationalFunction":
        return RationalFunction(
            -self.lead_val, tuple((r, -m) for r, m in self.factors)
        )


class _TrieNode:
    """The roots whose term tuples start with one prefix.  ``tot`` sums
    their multiplicities, those of the roots that end here included.  Over
    the children's distinct exponents e, ``ks`` lists e*D in increasing
    order, and ``cm[i]`` and ``cmk[i]`` sum m and m*e*D over the children
    whose exponent comes before ``ks[i]``."""

    __slots__ = ("kids", "tot", "ks", "cm", "cmk")

    def __init__(self):
        self.kids = {}  # canonical term tuple -> _TrieNode
        self.tot = 0
        self.ks = ()
        self.cm = self.cmk = (0,)


class RootTrie:
    """Digital search tree of a rational function's finite roots, keyed by
    their canonical term tuples; ``D`` is the lcm of all their exponent
    denominators."""

    def __init__(self, factors):
        self.root = _TrieNode()
        D = 1
        for a, m in factors:
            node = self.root
            node.tot += m
            for term in a.terms:
                D = lcm(D, term[1])
                kid = node.kids.get(term)
                if kid is None:
                    kid = node.kids[term] = _TrieNode()
                node = kid
                node.tot += m
        self.D = D
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.kids:
                continue
            by_key: dict[int, int] = {}
            for (p, q, _, _), kid in node.kids.items():
                k = p * (D // q)
                by_key[k] = by_key.get(k, 0) + kid.tot
                stack.append(kid)
            node.ks = sorted(by_key)
            cm, cmk = [0], [0]
            for k in node.ks:
                m = by_key[k]
                cm.append(cm[-1] + m)
                cmk.append(cmk[-1] + m * k)
            node.cm, node.cmk = cm, cmk

    def val_sum(self, terms, s: Fraction) -> tuple:
        """sum_i m_i * min(val(b - a_i), s) as (num, den) ints, for b with
        canonical term tuples ``terms``, each of exponent below s.

        At each node on b's path the cap is the exponent of b's next term,
        or s once b is exhausted (a term (s, 0) that matches no root).  A
        root leaving the path at a child of exponent e < cap has val(b - a)
        = e; every other root below the node but off the matching child,
        including one that ends here, has min(val(b - a), s) = cap."""
        D = self.D
        node = self.root
        below = 0          # D * sum of m*e over the children below the caps
        num, den = 0, 1    # sum of cap * the multiplicity it settles
        for term in (*terms, (s.numerator, s.denominator, 0, 1)):
            p, q = term[0], term[1]
            i = bisect_left(node.ks, -(-p * D // q))  # first e >= p/q
            below += node.cmk[i]
            kid = node.kids.get(term)
            k = node.tot - node.cm[i] - (kid.tot if kid else 0)
            if k:
                if den % q:
                    num, den = num * q + k * p * den, den * q
                else:
                    num += k * p * (den // q)
            if kid is None:
                break
            node = kid
        return below * den + num * D, D * den


def eval_val(f: RationalFunction, x: Type2) -> Fraction:
    """val f at a type-2 point (b, s):
    lead_val + sum_i mult_i * min(val(b - a_i), s).

    The sum is one query of f's ``root_trie`` (see the module docstring):
    a walk down b's terms in O(terms * log n) int operations, child
    exponents e kept as e*D.  The trie is built on the first call for f,
    in O(n * terms).  The result is the one ``Fraction`` built."""
    if not isinstance(x, Type2):
        raise TypeError("eval_val needs a type-2 point")
    num, den = f.root_trie.val_sum(x.center.terms, x.s)
    lead = f.lead_val
    return Fraction(lead.numerator * den + num * lead.denominator,
                    lead.denominator * den)
