"""Finite Puiseux sums over the rationals.

An element is a finite sum  c_1 t^{q_1} + ... + c_k t^{q_k}  with nonzero
rational coefficients and strictly increasing rational exponents.  The
valuation of an element is its least exponent; val(0) = +inf.  This ring is
closed under +, -, * and is the concrete stand-in for the valued field:
everything downstream consumes only valuations of sums and products of
explicitly given elements.

``val_diff(a, b)`` is the single valuation-of-a-difference primitive: it
answers val(a - b) by walking the two term sequences side by side, without
building a - b.  Ball containment, joins and ``eval_val`` go through it;
edge and ray slopes reach it only through ``eval_val``.  The arithmetic
operators merge terms that are already canonical;
``PuiseuxElement.from_terms`` canonicalises parsed and generated input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .valq import INF, format_rational, parse_rational


@dataclass(frozen=True)
class PuiseuxElement:
    # sorted tuple of (exponent, coefficient), both exact, coefficient != 0
    terms: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def from_terms(pairs) -> "PuiseuxElement":
        """Build in canonical form: merge like exponents, drop zeros."""
        acc: dict[Fraction, Fraction] = {}
        for q, c in pairs:
            q = Fraction(q)
            c = Fraction(c)
            acc[q] = acc.get(q, Fraction(0)) + c
        terms = tuple(sorted((q, c) for q, c in acc.items() if c != 0))
        return PuiseuxElement(terms)

    @staticmethod
    def zero() -> "PuiseuxElement":
        return PuiseuxElement(())

    @staticmethod
    def constant(c) -> "PuiseuxElement":
        return PuiseuxElement.monomial(c, 0)

    @staticmethod
    def monomial(coeff, exp) -> "PuiseuxElement":
        coeff = Fraction(coeff)
        return PuiseuxElement(((Fraction(exp), coeff),) if coeff else ())

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self):
        """Least exponent present; +inf for the zero element."""
        if not self.terms:
            return INF
        return self.terms[0][0]

    def __add__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        return PuiseuxElement(_merge(self.terms, other.terms, 1))

    def __neg__(self) -> "PuiseuxElement":
        return PuiseuxElement(tuple((q, -c) for q, c in self.terms))

    def __sub__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        return PuiseuxElement(_merge(self.terms, other.terms, -1))

    def __mul__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        acc: dict[Fraction, Fraction] = {}
        for q1, c1 in self.terms:
            for q2, c2 in other.terms:
                q = q1 + q2
                c = acc.get(q)
                acc[q] = c1 * c2 if c is None else c + c1 * c2
        return PuiseuxElement(tuple(sorted(
            (q, c) for q, c in acc.items() if c)))

    def truncate_below(self, s: Fraction) -> "PuiseuxElement":
        """Drop every monomial t^q with q >= s (center reduction mod radius)."""
        return PuiseuxElement(tuple((q, c) for q, c in self.terms if q < s))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for q, c in self.terms:
            if q == 0:
                parts.append(str(c))
            else:
                coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                if q == 1:
                    parts.append(f"{coeff}t")
                elif q.denominator == 1 and q >= 0:
                    parts.append(f"{coeff}t^{q}")
                else:
                    parts.append(f"{coeff}t^({q})")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def _merge(x, y, sign):
    """Terms of x + sign*y for canonical term tuples x, y (sign is +-1):
    one pass in exponent order, dropping coefficients that cancel."""
    out = []
    i = j = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        p, c = x[i]
        q, d = y[j]
        if p < q:
            out.append(x[i])
            i += 1
        elif q < p:
            out.append(y[j] if sign > 0 else (q, -d))
            j += 1
        else:
            e = c + d if sign > 0 else c - d
            if e:
                out.append((p, e))
            i += 1
            j += 1
    out.extend(x[i:])
    out.extend(y[j:] if sign > 0 else ((q, -d) for q, d in y[j:]))
    return tuple(out)


def val_diff(a: PuiseuxElement, b: PuiseuxElement):
    """val(a - b) without building a - b: the least exponent at which the
    two sorted term sequences differ, or +inf when a == b."""
    x, y = a.terms, b.terms
    for u, v in zip(x, y):
        if u != v:
            # same exponent and different coefficients, or the smaller
            # exponent is a term of one side only
            return min(u[0], v[0])
    n = min(len(x), len(y))
    if len(x) > n:
        return x[n][0]
    if len(y) > n:
        return y[n][0]
    return INF


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
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("coeff") is None and m.group("t") is None:
            raise ValueError(f"malformed term {chunk!r} in {text!r}")
        if m.group("t"):
            exp_s = m.group("exp")
            exp = Fraction(exp_s.strip("()")) if exp_s else Fraction(1)
        else:
            exp = Fraction(0)
        pairs.append((exp, sign * coeff))
    return PuiseuxElement.from_terms(pairs)


def element_to_json(x: PuiseuxElement) -> list[dict]:
    return [
        {"exp": format_rational(q), "coeff": format_rational(c)}
        for q, c in x.terms
    ]


def element_from_json(data) -> PuiseuxElement:
    return PuiseuxElement.from_terms(
        (parse_rational(d["exp"]), parse_rational(d["coeff"])) for d in data
    )
