"""Finite Puiseux sums over the rationals.

An element is a finite sum  c_1 t^{q_1} + ... + c_k t^{q_k}  with nonzero
rational coefficients and strictly increasing rational exponents.  The
valuation of an element is its least exponent; val(0) = +inf.  This ring is
closed under +, -, * and is the concrete stand-in for the valued field:
everything downstream consumes only valuations of sums and products of
explicitly given elements.

Each term is stored as one tuple of ints ``(exp_num, exp_den, coeff_num,
coeff_den)``, both fractions reduced with a positive denominator.  That
form is canonical: two terms are equal iff their tuples are, so element
equality, hashing and the ``u != v`` test of ``lead_diff`` are tuple
compares done in C.  Only an order between exponents needs a
cross-multiplication.  The raw tuples do not sort by value (1/2 comes
before 2/5), so terms are kept in exponent order by value.  ``Fraction``
stays at the boundary: ``from_terms`` and ``monomial`` take any rationals,
and ``valuation`` and ``pairs`` give ``Fraction`` values back;
``__str__`` and ``element_to_json`` format the int tuples directly.

``lead_diff(x, y)`` is the one valuation-of-a-difference primitive and the
only walk over two term tuples side by side.  Without building x - y, it
returns its leading term as ``(exp_num, exp_den, sign)``: the exponent is
val(x - y) and ``sign`` an int with the sign of the coefficient; None
means x == y.  Joins read the exponent, the skeleton's ball order the sign
too; ``eval_val`` walks a trie of the roots' term tuples instead (see
``points``).  The arithmetic operators merge canonical terms;
``PuiseuxElement.from_terms`` canonicalises parsed and generated input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .valq import INF, parse_rational


def _term(q: Fraction, c: Fraction) -> tuple:
    return (q.numerator, q.denominator, c.numerator, c.denominator)


def _rat(n: int, d: int) -> str:
    """A reduced fraction n/d, d > 0, as "n" or "n/d"."""
    return str(n) if d == 1 else f"{n}/{d}"


@dataclass(frozen=True)
class PuiseuxElement:
    # (exp_num, exp_den, coeff_num, coeff_den) per term, in increasing
    # exponent order, both fractions reduced, coefficient != 0
    terms: tuple[tuple[int, int, int, int], ...]

    @staticmethod
    def from_terms(pairs) -> "PuiseuxElement":
        """Build in canonical form: merge like exponents, drop zeros."""
        acc: dict[Fraction, Fraction] = {}
        for q, c in pairs:
            q = Fraction(q)
            c = Fraction(c)
            acc[q] = acc.get(q, Fraction(0)) + c
        return PuiseuxElement(
            tuple(_term(q, c) for q, c in sorted(acc.items()) if c))

    @staticmethod
    def zero() -> "PuiseuxElement":
        return PuiseuxElement(())

    @staticmethod
    def constant(c) -> "PuiseuxElement":
        return PuiseuxElement.monomial(c, 0)

    @staticmethod
    def monomial(coeff, exp) -> "PuiseuxElement":
        coeff = Fraction(coeff)
        return PuiseuxElement(
            (_term(Fraction(exp), coeff),) if coeff else ())

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self):
        """Least exponent present; +inf for the zero element."""
        if not self.terms:
            return INF
        return Fraction(self.terms[0][0], self.terms[0][1])

    def pairs(self) -> tuple:
        """The terms as (exponent, coefficient) pairs of Fractions."""
        return tuple((Fraction(p, q), Fraction(a, b))
                     for p, q, a, b in self.terms)

    def __add__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        return PuiseuxElement(_merge(self.terms, other.terms, 1))

    def __neg__(self) -> "PuiseuxElement":
        return PuiseuxElement(
            tuple((p, q, -a, b) for p, q, a, b in self.terms))

    def __sub__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        return PuiseuxElement(_merge(self.terms, other.terms, -1))

    def __mul__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        x, y = self.terms, other.terms
        if len(x) < len(y):
            x, y = y, x
        # x times one term of y keeps x's exponent order: merge the rows
        out = ()
        for p2, q2, a2, b2 in y:
            row = []
            for p1, q1, a1, b1 in x:
                p, q = p1 * q2 + p2 * q1, q1 * q2
                g = gcd(p, q)
                a, b = a1 * a2, b1 * b2
                h = gcd(a, b)
                row.append((p // g, q // g, a // h, b // h))
            out = _merge(out, row, 1)
        return PuiseuxElement(out)

    def truncate_below(self, s: Fraction) -> "PuiseuxElement":
        """Drop every monomial t^q with q >= s (center reduction mod radius)."""
        terms = self.terms
        n, d = s.numerator, s.denominator
        k = len(terms)
        while k and terms[k - 1][0] * d >= n * terms[k - 1][1]:
            k -= 1
        return self if k == len(terms) else PuiseuxElement(terms[:k])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p, q, a, b in self.terms:
            if p == 0:
                parts.append(_rat(a, b))
            else:
                coeff = ("" if a == b else "-" if a == -b
                         else f"{_rat(a, b)}*")
                if p == q:
                    parts.append(f"{coeff}t")
                elif q == 1 and p >= 0:
                    parts.append(f"{coeff}t^{p}")
                else:
                    parts.append(f"{coeff}t^({_rat(p, q)})")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def _merge(x, y, sign):
    """Terms of x + sign*y for canonical term tuples x, y (sign is +-1):
    one pass in exponent order, dropping coefficients that cancel."""
    out = []
    i = j = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        u, v = x[i], y[j]
        p, q, r, w = v
        if u[0] == p and u[1] == q:
            a, b = u[2], u[3]
            if sign < 0:
                r = -r
            c, d = (a + r, b) if b == w else (a * w + r * b, b * w)
            if c:
                g = gcd(c, d)
                out.append((p, q, c // g, d // g))
            i += 1
            j += 1
        elif u[0] * q < p * u[1]:
            out.append(u)
            i += 1
        else:
            out.append(v if sign > 0 else (p, q, -r, w))
            j += 1
    out.extend(x[i:])
    out.extend(y[j:] if sign > 0 else ((p, q, -r, w) for p, q, r, w in y[j:]))
    return tuple(out)


def lead_diff(x, y):
    """The leading term of x - y for canonical term tuples x, y, as
    (exp_num, exp_den, sign) with sign an int of the sign of its
    coefficient, or None when x == y."""
    for u, v in zip(x, y):
        if u != v:
            d = u[0] * v[1] - v[0] * u[1]
            if d < 0:    # the term u is x's alone
                return u[:3]
            if d > 0:    # the term v is y's alone
                return v[0], v[1], -v[2]
            return u[0], u[1], u[2] * v[3] - v[2] * u[3]
    n, m = len(x), len(y)
    if n > m:
        return x[m][:3]
    if n < m:
        return y[n][0], y[n][1], -y[n][2]
    return None


_TERM_RE = re.compile(
    r"""^(?P<coeff>\d+(?:/\d+)?)?                # optional rational coefficient
        \*?                                      # optional * before t
        (?P<t>t(?:\^(?P<exp>\(?-?\d+(?:/\d+)?\)?))?)?$""",
    re.VERBOSE,
)


def _split_terms(s: str) -> list[str]:
    """Split at top-level +/- (sign kept with the term that follows)."""
    chunks: list[str] = []
    cur = ""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur and cur[-1] not in "^(*/+-":
            chunks.append(cur)
            cur = "" if ch == "+" else "-"
        else:
            cur += ch
    chunks.append(cur)
    return chunks


def parse_element(text: str) -> PuiseuxElement:
    """Parse 'c1*t^(p1/q1) + c2*t^(p2/q2) + ...'.

    Accepts '0', bare constants, bare 't', negative and fractional
    exponents with or without parentheses.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element")
    pairs = []
    for chunk in _split_terms(s):
        sign = 1
        while chunk[:1] in ("+", "-"):
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or not chunk:
            raise ValueError(f"malformed term {chunk!r} in {text!r}")
        coeff = (parse_rational(m.group("coeff")) if m.group("coeff")
                 else Fraction(1))
        if m.group("coeff") is None and m.group("t") is None:
            raise ValueError(f"malformed term {chunk!r} in {text!r}")
        if m.group("t"):
            exp_s = m.group("exp")
            exp = parse_rational(exp_s.strip("()")) if exp_s else Fraction(1)
        else:
            exp = Fraction(0)
        pairs.append((exp, sign * coeff))
    return PuiseuxElement.from_terms(pairs)


def element_to_json(x: PuiseuxElement) -> list[dict]:
    return [{"exp": _rat(p, q), "coeff": _rat(a, b)}
            for p, q, a, b in x.terms]


def element_from_json(data) -> PuiseuxElement:
    return PuiseuxElement.from_terms(
        (parse_rational(d["exp"]), parse_rational(d["coeff"])) for d in data
    )
