"""Shared test oracles: brute-force tree membership and nearest-point
search, the canonicalising Puiseux arithmetic that the merge-based
operators and ``lead_diff`` replace, the Fraction kernel and
formatting that the int term tuples of ``puiseux`` replace, the all-pairs
skeleton builders and anchor-scan retractions that the ball order in
``skeleton`` replaces, the
retraction sampler that ``randfix.rand_type2`` replaces, and the
rescan-and-rebuild stabilization that the incidence index in ``stable``
replaces, the full recentering expansion that the precision cap in
``oracle`` replaces, the ray slope probed beyond every Newton
breakpoint that the one probe from the base value in ``slopes``
replaces, and the term-by-term minimizer sets that the lower hull in
``newton`` answers."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from skeletron.metric_graph import MetricGraph, euler_char
from skeletron.newton import Breakpoint, eval_trop
from skeletron.oracle import tropicalize
from skeletron.points import Type1, Type2, eval_val, join, path_distance
from skeletron.puiseux import PuiseuxElement, lead_diff
from skeletron.skeleton import SkeletonTree, puncture_label
from skeletron.slopes import _as_int
from skeletron.stable import CHI_ZERO_DIAGNOSTIC, StabilizationReport
from skeletron.valq import INF, NEG_INF, format_rational


def val_diff(x: PuiseuxElement, y: PuiseuxElement):
    """val(x - y) as a Fraction, or INF when x == y."""
    v = lead_diff(x.terms, y.terms)
    return INF if v is None else Fraction(v[0], v[1])


# The Fraction kernel that the int term tuples replace, as it stood in
# ``puiseux``: ``val_diff``, ``_merge``, ``__mul__`` and ``truncate_below``
# over terms given as sorted (exponent, coefficient) Fraction pairs.

def ref_val_diff(x, y):
    for u, v in zip(x, y):
        if u != v:
            return min(u[0], v[0])
    n = min(len(x), len(y))
    if len(x) > n:
        return x[n][0]
    if len(y) > n:
        return y[n][0]
    return INF


def ref_merge(x, y, sign):
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


def ref_mul_terms(x, y):
    acc = {}
    for q1, c1 in x:
        for q2, c2 in y:
            q = q1 + q2
            c = acc.get(q)
            acc[q] = c1 * c2 if c is None else c + c1 * c2
    return tuple(sorted((q, c) for q, c in acc.items() if c))


def ref_truncate_below(x, s):
    return tuple((q, c) for q, c in x if q < s)


def ref_str(x: PuiseuxElement) -> str:
    """``PuiseuxElement.__str__`` as it stood, over the Fraction pairs."""
    if not x.terms:
        return "0"
    parts = []
    for q, c in x.pairs():
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
    return " + ".join(parts).replace("+ -", "- ")


def ref_element_to_json(x: PuiseuxElement) -> list:
    return [{"exp": format_rational(q), "coeff": format_rational(c)}
            for q, c in x.pairs()]


def is_canonical(x: PuiseuxElement) -> bool:
    """Reduced fractions with positive denominators, nonzero coefficients
    and strictly increasing exponents."""
    pairs = x.pairs()
    return all(
        q > 0 and b > 0 and a != 0 and gcd(p, q) == 1 == gcd(a, b)
        for p, q, a, b in x.terms
    ) and all(u[0] < v[0] for u, v in zip(pairs, pairs[1:]))


def ref_add(x: PuiseuxElement, y: PuiseuxElement) -> PuiseuxElement:
    return PuiseuxElement.from_terms(x.pairs() + y.pairs())


def ref_sub(x: PuiseuxElement, y: PuiseuxElement) -> PuiseuxElement:
    return ref_add(x, PuiseuxElement.from_terms(
        (q, -c) for q, c in y.pairs()))


def ref_mul(x: PuiseuxElement, y: PuiseuxElement) -> PuiseuxElement:
    return PuiseuxElement.from_terms(
        (q1 + q2, c1 * c2)
        for q1, c1 in x.pairs() for q2, c2 in y.pairs()
    )


def ref_join(x, y):
    """Join of two finite points by the formula
    min(s_x, s_y, val(center_x - center_y)), with a full subtraction."""
    if x == y:
        return x
    sx = x.s if isinstance(x, Type2) else INF
    sy = y.s if isinstance(y, Type2) else INF
    cx = x.center if isinstance(x, Type2) else x.value
    cy = y.center if isinstance(y, Type2) else y.value
    return Type2(cx, Fraction(min(sx, sy, ref_sub(cx, cy).valuation())))


def ref_eval_val(f, x: Type2):
    """lead_val + sum_i mult_i * min(val(b - a_i), s), with full
    subtractions."""
    return f.lead_val + sum(
        mult * min(ref_sub(x.center, root).valuation(), x.s)
        for root, mult in f.factors
    )


def ref_factor_eval_val(f, x: Type2) -> Fraction:
    """The per-factor loop that ``RootTrie`` replaces in ``eval_val``:
    one ``lead_diff`` per root, summed in ints."""
    sn, sd = x.s.numerator, x.s.denominator
    center = x.center.terms
    at_s = 0
    below: dict[int, int] = {}  # denominator q -> sum of mult_i * p_i
    for root, mult in f.factors:
        v = lead_diff(center, root.terms)
        if v is None or v[0] * sd >= sn * v[1]:
            at_s += mult
        else:
            p, q, _ = v
            below[q] = below.get(q, 0) + mult * p
    lead = f.lead_val
    num = lead.numerator * sd + at_s * sn * lead.denominator
    den = lead.denominator * sd
    for q, p in below.items():
        num, den = num * q + p * den, den * q
    return Fraction(num, den)


def ref_expand_from_roots(shifts) -> list[PuiseuxElement]:
    """Coefficients (low degree first) of prod_i (u + shift_i), every
    monomial of every coefficient."""
    coeffs = [PuiseuxElement.constant(1)]
    for shift in shifts:
        zero = PuiseuxElement.zero()
        nxt = [zero] * (len(coeffs) + 1)
        for n, c in enumerate(coeffs):
            nxt[n] = nxt[n] + c * shift   # constant part of the factor
            nxt[n + 1] = nxt[n + 1] + c   # u part
        coeffs = nxt
    return coeffs


def ref_eval_val_newton(f, x: Type2) -> Fraction:
    """val f(x) via recentering and the Newton polygon of the full
    expansions of numerator and denominator."""
    num_shifts = []
    den_shifts = []
    for root, mult in f.factors:
        shift = x.center - root
        bucket = num_shifts if mult > 0 else den_shifts
        bucket.extend([shift] * abs(mult))
    total = f.lead_val
    if num_shifts:
        total += eval_trop(tropicalize(ref_expand_from_roots(num_shifts)), x.s)
    if den_shifts:
        total -= eval_trop(tropicalize(ref_expand_from_roots(den_shifts)), x.s)
    return total


def ref_point_key(x: Type2):
    """Vertex order by value: radius, then the center's Fraction terms."""
    return (x.s, x.center.pairs())


# The all-pairs builder and the anchor-scan retraction that the ball order
# in ``skeleton`` replaces, as they stood there (with ``ref_point_key`` for
# the library's equal ``_point_key``): every pairwise join of the anchors,
# a backward scan for each parent and ray base, and one join per anchor.

def _contains(outer: Type2, inner: Type2) -> bool:
    """Ball containment: outer >= inner."""
    return outer.s <= inner.s and _contains_type1(outer, inner.center)


def _contains_type1(outer: Type2, value: PuiseuxElement) -> bool:
    """val(outer.center - value) >= outer.s, compared in ints."""
    v = lead_diff(outer.center.terms, value.terms)
    return v is None or (v[0] * outer.s.denominator
                         >= outer.s.numerator * v[1])


def ref_pairwise_build_skeleton_tree(punctures,
                                     extra_vertices=()) -> SkeletonTree:
    """Metric tree spanned by all pairwise joins of the punctures and the
    extra vertices, with one ray per puncture."""
    punctures = list(punctures)
    if len(punctures) < 2:
        raise ValueError("need at least two punctures to span a skeleton")
    if len(set(punctures)) != len(punctures):
        raise ValueError("punctures must be pairwise distinct")
    finite = [p for p in punctures if not p.is_infinity()]
    has_inf = len(finite) < len(punctures)

    anchors = list(finite) + [Type2(v.center, v.s) for v in extra_vertices]
    points = {join(a, b) for i, a in enumerate(anchors)
              for b in anchors[i + 1:]}
    points.update(extra_vertices)
    if len(finite) == 1:
        # the two-puncture line {a, inf}: canonical vertex at radius 0
        points.add(Type2(finite[0].value, Fraction(0)))

    placed = sorted(points, key=ref_point_key)
    placement = {f"v{i}": p for i, p in enumerate(placed)}
    ids = list(placement)

    # the balls containing a vertex form a chain of smaller radii, so the
    # nearest earlier one that contains it is its parent
    edges = []
    for k in range(1, len(placed)):
        p = placed[k]
        j = next(j for j in range(k - 1, -1, -1) if _contains(placed[j], p))
        edges.append((ids[j], ids[k], p.s - placed[j].s))

    rays = []
    ray_target = {}
    for p in punctures:
        label = puncture_label(p)
        if p.is_infinity():
            base = 0
        else:  # the deepest ball containing the puncture
            base = next(j for j in range(len(placed) - 1, -1, -1)
                        if _contains_type1(placed[j], p.value))
        rays.append((ids[base], label))
        ray_target[label] = p

    graph = MetricGraph.make(
        [(vid, 0) for vid in ids], edges, rays
    )
    return SkeletonTree(
        graph=graph,
        placement=placement,
        ray_target=ray_target,
        anchors=tuple(anchors),
        has_infinity=has_inf,
    )


def ref_anchor_retract(x, tree: SkeletonTree):
    """Closest point of the tree's realization to x (the entry point of
    x's complement component into the skeleton).  Idempotent on tree
    points; punctures retract to the base vertex of their ray."""
    if isinstance(x, Type1):
        if x.is_infinity():
            return tree.root_point()
        for label, target in tree.ray_target.items():
            if x == target:
                base = next(b for b, m in tree.graph.rays if m == label)
                return tree.placement[base]

    best = max((join(x, a) for a in tree.anchors), key=lambda j: j.s)
    if not tree.has_infinity:
        rp = tree.root_point()
        if best.s < rp.s:
            return rp
    return best


def ref_build_skeleton_tree(punctures, extra_vertices=()) -> SkeletonTree:
    """Skeleton tree with each parent found by scanning every vertex and
    each ray base by a second full scan."""
    punctures = list(punctures)
    if len(punctures) < 2:
        raise ValueError("need at least two punctures to span a skeleton")
    if len(set(map(puncture_label, punctures))) != len(punctures):
        raise ValueError("punctures must be pairwise distinct")
    finite = [p for p in punctures if not p.is_infinity()]
    has_inf = len(finite) < len(punctures)

    anchors = list(finite) + [Type2(v.center, v.s) for v in extra_vertices]
    points: dict[tuple, Type2] = {}

    def add(pt: Type2):
        points.setdefault(ref_point_key(pt), pt)

    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            add(join(anchors[i], anchors[j]))
    for v in extra_vertices:
        add(v)
    if len(finite) == 1:
        add(Type2(finite[0].value, Fraction(0)))

    placed = sorted(points.values(), key=ref_point_key)
    placement = {f"v{i}": p for i, p in enumerate(placed)}
    ids = list(placement)

    # parent = deepest strictly-containing ball
    edges = []
    for vid in ids:
        p = placement[vid]
        best = None
        for uid in ids:
            if uid == vid:
                continue
            q = placement[uid]
            if q != p and _contains(q, p):
                if best is None or placement[best].s < q.s:
                    best = uid
        if best is not None:
            edges.append((best, vid, p.s - placement[best].s))

    rays = []
    ray_target = {}
    root = min(ids, key=lambda v: ref_point_key(placement[v]))
    for p in punctures:
        label = puncture_label(p)
        if p.is_infinity():
            base = root
        else:
            containing = [
                v for v in ids if _contains_type1(placement[v], p.value)
            ]
            base = max(containing, key=lambda v: placement[v].s)
        rays.append((base, label))
        ray_target[label] = p

    graph = MetricGraph.make([(vid, 0) for vid in ids], edges, rays)
    return SkeletonTree(
        graph=graph,
        placement=placement,
        ray_target=ray_target,
        anchors=tuple(anchors),
        has_infinity=has_inf,
    )


def ref_retract(x, tree: SkeletonTree):
    """Deepest join of x with every anchor and every tree vertex other
    than x itself, clipped to the root when infinity is no puncture.  It
    differs from ``skeleton.retract`` only at an extra vertex with no other
    anchor below it, which this sends to its parent."""
    if isinstance(x, Type1):
        if x.is_infinity():
            return tree.root_point()
        for label, target in tree.ray_target.items():
            if x == target:
                base = next(b for b, m in tree.graph.rays if m == label)
                return tree.placement[base]

    candidates = list(tree.anchors) + list(tree.placement.values())
    best = None
    for c in candidates:
        if c == x:
            continue
        j = join(x, c)
        if isinstance(j, Type1):
            continue
        if best is None or j.s > best.s:
            best = j
    if best is None:
        return tree.root_point()
    if not tree.has_infinity:
        rp = tree.root_point()
        if best.s < rp.s:
            return rp
    return best


def ref_ray_slope(f, tree: SkeletonTree, base: str, target: Type1) -> int:
    """Outgoing slope along the ray from base toward the puncture,
    probed beyond every Newton breakpoint of f relative to the ray."""
    base_pt = tree.placement[base]
    if target.is_infinity():
        # ray parametrized by decreasing s below the root
        breaks = [val_diff(base_pt.center, root) for root, _ in f.factors]
        s0 = min([base_pt.s] + [b for b in breaks if b != float("inf")],
                 default=base_pt.s) - 1
        g0 = eval_val(f, Type2(base_pt.center, s0))
        g1 = eval_val(f, Type2(base_pt.center, s0 - 1))
        return _as_int(g1 - g0, "ray slope")
    a = target.value
    breaks = [val_diff(a, root) for root, _ in f.factors if root != a]
    s0 = max([base_pt.s] + breaks) + 1
    g0 = eval_val(f, Type2(a, s0))
    g1 = eval_val(f, Type2(a, s0 + 1))
    return _as_int(g1 - g0, "ray slope")


def ref_random_type2(rng: random.Random) -> Type2:
    """Retraction sample in the draw order ``slopes`` used before it
    called ``randfix.rand_type2``."""
    n_terms = rng.randint(0, 2)
    terms = []
    for _ in range(n_terms):
        num = rng.randint(-6, 6)
        if num == 0:
            continue
        den = rng.randint(1, 4)
        exp = Fraction(rng.randint(-4, 8), rng.randint(1, 4))
        terms.append((exp, Fraction(num, den)))
    center = PuiseuxElement.from_terms(terms)
    s = Fraction(rng.randint(-12, 20), rng.randint(1, 4))
    return Type2(center, s)


def two_term_roots(rng: random.Random, n: int, clustered: bool):
    """n distinct roots c1*t^q1 + c2*t^q2 in the manner of the
    certify-wide benchmark: clustered roots share one of three leading
    terms (deep chains), spread ones one of eight leading exponents
    (bushy)."""
    groups = 3 if clustered else 8
    exps = [Fraction(e, 4) for e in rng.sample(range(-24, 25), groups)]
    coeffs = [Fraction(p, q) for p in range(-9, 10) if p for q in (1, 2, 3)]
    leads = [rng.choice(coeffs) for _ in exps]
    roots = set()
    while len(roots) < n:
        i = len(roots)
        q1 = exps[i % groups]
        c1 = leads[i % groups] if clustered else rng.choice(coeffs)
        gap = Fraction(rng.randint(1, 400), rng.randint(1, 6))
        roots.add(PuiseuxElement.from_terms(
            [(q1, c1), (q1 + gap, rng.choice(coeffs))]))
    return sorted(roots, key=PuiseuxElement.pairs)


# Newton calculus without a hull: the exponents attaining min_n(v_n + n*s)
# at each point, over terms given as sorted (n, v_n) pairs.

def ref_minimizers(terms, s) -> set:
    """Exponents attaining min_n(v_n + n*s); at s = -inf and +inf those of
    the limit, the largest and the smallest exponent."""
    if s == NEG_INF:
        return {max(n for n, _ in terms)}
    if s == INF:
        return {min(n for n, _ in terms)}
    vals = {n: v + n * s for n, v in terms}
    best = min(vals.values())
    return {n for n, x in vals.items() if x == best}


def ref_ties(terms) -> list:
    """Every s at which some two terms take the same value, ascending."""
    return sorted({(v1 - v2) / (n2 - n1)
                   for (n1, v1), (n2, v2) in combinations(terms, 2)})


def ref_slope_at(terms, s) -> tuple:
    """(left, right) slopes at s: the largest and the smallest minimizer."""
    m = ref_minimizers(terms, s)
    return max(m), min(m)


def ref_breakpoints(terms, lo, hi) -> list:
    """The ties strictly inside (lo, hi) that more than one exponent
    attains, with the flanking slopes."""
    out = []
    for s in ref_ties(terms):
        left, right = ref_slope_at(terms, s)
        if lo < s < hi and left != right:
            out.append(Breakpoint(s, left, right))
    return out


def ref_unit_decomposition(terms, lo, hi):
    """(d, v_d) when d is the only minimizer at both endpoints and at
    every tie between them, so at every point of [lo, hi]; else None."""
    points = [lo, hi] + [s for s in ref_ties(terms) if lo <= s <= hi]
    sets = [ref_minimizers(terms, s) for s in points]
    if len(sets[0]) == 1 and all(m == sets[0] for m in sets):
        (d,) = sets[0]
        return d, dict(terms)[d]
    return None


def lone_extra(x, tree: SkeletonTree) -> bool:
    """x is an extra vertex with no other anchor below it."""
    return x in tree.anchors and all(
        a == x or join(x, a) != x for a in tree.anchors
    )


def on_tree(p: Type2, tree: SkeletonTree) -> bool:
    """Membership of a type-2 point in the tree's realization."""
    placement = tree.placement
    for u, v, _ in tree.graph.edges:
        pu, pv = placement[u], placement[v]
        lo, hi = (pu, pv) if pu.s <= pv.s else (pv, pu)
        if lo.s <= p.s <= hi.s and Type2(hi.center, p.s) == p:
            return True
    for base, mark in tree.graph.rays:
        bp = placement[base]
        target = tree.ray_target[mark]
        if target.is_infinity():
            if p.s <= bp.s and Type2(tree.root_point().center, p.s) == p:
                return True
        else:
            if p.s >= bp.s and Type2(target.value, p.s) == p:
                return True
    return any(p == q for q in placement.values())


def grid_points(tree: SkeletonTree, step=Fraction(1, 4), ray_extent=8):
    """Dense grid of type-2 points on edges and (truncated) rays."""
    pts = list(tree.placement.values())
    for u, v, _ in tree.graph.edges:
        pu, pv = tree.placement[u], tree.placement[v]
        lo, hi = (pu, pv) if pu.s <= pv.s else (pv, pu)
        s = lo.s
        while s <= hi.s:
            pts.append(Type2(hi.center, s))
            s += step
    for base, mark in tree.graph.rays:
        bp = tree.placement[base]
        target = tree.ray_target[mark]
        for k in range(1, int(ray_extent / step) + 1):
            if target.is_infinity():
                pts.append(Type2(tree.root_point().center, bp.s - k * step))
            else:
                pts.append(Type2(target.value, bp.s + k * step))
    return pts


def brute_nearest(x: Type2, tree: SkeletonTree, step=Fraction(1, 4)):
    """Grid minimizer of the path distance from x to the tree."""
    return min(grid_points(tree, step), key=lambda p: path_distance(x, p))


def _valence1_candidates(g: MetricGraph):
    """Weight-0 vertices whose single incidence is one non-loop edge.

    A vertex whose only incidence is a ray is excluded: its unique
    neighbor is a marking.
    """
    out = []
    for v, w in g.vertices:
        if w != 0 or g.valence(v) != 1:
            continue
        if any(b == v for b, _ in g.rays):
            continue
        out.append(v)
    return out


def _valence2_candidates(g: MetricGraph):
    """Weight-0 vertices with exactly two distinct non-loop incident
    segments (edges or rays), not both of them rays."""
    out = []
    for v, w in g.vertices:
        if w != 0 or g.valence(v) != 2:
            continue
        if any(u == v == x for u, x, _ in g.edges):
            continue  # the two directions come from a loop
        n_rays = sum(1 for b, _ in g.rays if b == v)
        if n_rays == 2:
            continue  # both far endpoints are markings
        out.append(v)
    return out


def _apply_valence1(g: MetricGraph, v: str) -> MetricGraph:
    edges = [e for e in g.edges if v not in e[:2]]
    vertices = tuple(x for x in g.vertices if x[0] != v)
    return MetricGraph.make(vertices, edges, g.rays)


def _apply_valence2(g: MetricGraph, v: str) -> MetricGraph:
    inc = [i for i, (a, b, _) in enumerate(g.edges) if v in (a, b)]
    vertices = tuple(x for x in g.vertices if x[0] != v)
    edges = [e for i, e in enumerate(g.edges) if i not in inc]
    rays = list(g.rays)
    if len(inc) == 2:
        # merge two edges through v into one of summed length
        (a1, b1, l1) = g.edges[inc[0]]
        (a2, b2, l2) = g.edges[inc[1]]
        y1 = b1 if a1 == v else a1
        y2 = b2 if a2 == v else a2
        edges.append((y1, y2, l1 + l2))
    else:
        # one edge and one ray: the ray absorbs the edge
        (a, b, _) = g.edges[inc[0]]
        y = b if a == v else a
        k = next(i for i, (base, _) in enumerate(rays) if base == v)
        rays[k] = (y, rays[k][1])
    return MetricGraph.make(vertices, edges, rays)


def _ref_prune_step(g: MetricGraph):
    apply = {"valence1": _apply_valence1, "valence2": _apply_valence2}
    for rule, pick in (
        ("valence1", _valence1_candidates(g)),
        ("valence2", _valence2_candidates(g)),
    ):
        if pick:
            v = min(pick)
            return apply[rule](g, v), rule, v
    return None


def ref_stabilize(g: MetricGraph) -> StabilizationReport:
    """Stabilization by a full candidate rescan and a rebuilt, re-validated
    graph after every prune: cubic, kept as the reference for the
    worklist in ``stable.stabilize``."""
    chi = euler_char(g)
    if chi >= 0:
        raise ValueError(CHI_ZERO_DIAGNOSTIC if chi == 0 else
                         f"Euler characteristic {chi} > 0: no skeleton")
    steps = []
    cur = g
    while True:
        step = _ref_prune_step(cur)
        if step is None:
            break
        cur, rule, v = step
        steps.append((rule, v))
    return StabilizationReport(input=g, output=cur, steps=tuple(steps), chi=chi)
