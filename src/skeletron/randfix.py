"""Seeded pseudo-random fixtures for property suites and acceptance runs."""

from __future__ import annotations

import random
from fractions import Fraction

from .metric_graph import MetricGraph, euler_char
from .points import INFINITY, RationalFunction, Type1, Type2
from .puiseux import PuiseuxElement, canonical_terms


DEN_MAX = 4  # largest denominator of a drawn rational or exponent


def rand_rational(rng: random.Random, lo=-8, hi=8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, DEN_MAX))


def rand_monomial(rng: random.Random) -> PuiseuxElement:
    """Nonzero monomial c * t^(p/q) with exponent denominator <= DEN_MAX:
    the coefficient's numerator and denominator, then the exponent's."""
    a = rng.choice([x for x in range(-5, 6) if x != 0])
    b = rng.randint(1, 3)
    p = rng.randint(-4, 6)
    q = rng.randint(1, DEN_MAX)
    return PuiseuxElement(canonical_terms(((p, q, a, b),)))


def rand_puiseux(rng: random.Random, max_terms=3) -> PuiseuxElement:
    """Up to max_terms draws of a coefficient (numerator, then a nonzero
    one's denominator) and an exponent; a zero numerator adds no term."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        a = rng.randint(-6, 6)
        if a:
            b = rng.randint(1, 4)
            p = rng.randint(-4, 8)
            q = rng.randint(1, 4)
            terms.append((p, q, a, b))
    return PuiseuxElement(canonical_terms(terms))


def rand_type2(rng: random.Random) -> Type2:
    return Type2(rand_puiseux(rng, max_terms=2),
                 Fraction(rng.randint(-12, 20), rng.randint(1, 4)))


def rand_roots(rng: random.Random, max_roots=6):
    """Pairwise distinct monomial roots; 0 is one with probability 0.4."""
    k = rng.randint(1, max_roots)
    roots = []
    if rng.random() < 0.4:
        roots.append(PuiseuxElement.zero())
    while len(roots) < k:
        cand = rand_monomial(rng)
        if all(cand != r for r in roots):
            roots.append(cand)
    return roots


def rand_rational_function(rng: random.Random,
                           max_roots=6) -> RationalFunction:
    roots = rand_roots(rng, max_roots)
    factors = [
        (r, rng.choice([-3, -2, -1, 1, 2, 3])) for r in roots
    ]
    return RationalFunction.make(rand_rational(rng), factors)


def punctures_of(f: RationalFunction):
    """Zeros/poles of f as type-1 points, together with infinity."""
    pts = [Type1(root) for root, _ in f.factors]
    pts.append(Type1(INFINITY))
    return pts


def rand_metric_graph(rng: random.Random, max_vertices=6) -> MetricGraph:
    """Random connected weighted multigraph with rays."""
    n = rng.randint(1, max_vertices)
    vertices = [(f"v{i}", rng.choice([0, 0, 1, 2])) for i in range(n)]
    edges = []
    for i in range(1, n):  # random spanning tree
        j = rng.randint(0, i - 1)
        edges.append((f"v{i}", f"v{j}",
                      Fraction(rng.randint(1, 12), rng.randint(1, 4))))
    for _ in range(rng.randint(0, 3)):  # extra edges, loops allowed
        a, b = rng.randint(0, n - 1), rng.randint(0, n - 1)
        edges.append((f"v{a}", f"v{b}",
                      Fraction(rng.randint(1, 12), rng.randint(1, 4))))
    rays = [
        (f"v{rng.randint(0, n - 1)}", f"m{k}")
        for k in range(rng.randint(0, 3))
    ]
    return MetricGraph.make(vertices, edges, rays)


def confluence_family(rng: random.Random, count=120):
    """Marked weighted graphs with at most 5 edges and chi < 0, mixing
    canonical shapes with seeded random ones."""
    fixtures = []
    theta = MetricGraph.make(
        [("a", 0), ("b", 0)],
        [("a", "b", 1), ("a", "b", 2), ("a", "b", 3)],
    )
    fixtures.append(theta)
    # theta with a pendant vertex
    fixtures.append(MetricGraph.make(
        [("a", 0), ("b", 0), ("p", 0)],
        [("a", "b", 1), ("a", "b", 2), ("a", "b", 3), ("b", "p", 5)],
    ))
    # theta with one subdivided edge and a pendant
    fixtures.append(MetricGraph.make(
        [("a", 0), ("b", 0), ("m", 0), ("p", 0)],
        [("a", "b", 1), ("a", "b", 2), ("a", "m", Fraction(3, 2)),
         ("m", "b", Fraction(3, 2)), ("b", "p", 5)],
    ))
    # ray - v1(w0) - v2(w2) chain
    fixtures.append(MetricGraph.make(
        [("v1", 0), ("v2", 2)], [("v1", "v2", 1)], [("v1", "m0")],
    ))
    # loop with a tail and a marking
    fixtures.append(MetricGraph.make(
        [("a", 0), ("b", 0)], [("a", "a", 2), ("a", "b", 1)], [("b", "m0")],
    ))
    while len(fixtures) < count:
        g = rand_metric_graph(rng, max_vertices=4)
        if len(g.edges) <= 5 and euler_char(g) < 0 and len(g.vertices) <= 6:
            fixtures.append(g)
    return fixtures
