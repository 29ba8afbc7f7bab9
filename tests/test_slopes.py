import dataclasses
import random
from fractions import Fraction

import pytest

from skeletron.metric_graph import MetricGraph
from skeletron.points import (
    INFINITY,
    RationalFunction,
    Type1,
    Type2,
)
from skeletron.puiseux import PuiseuxElement
from skeletron.randfix import (
    punctures_of,
    rand_rational,
    rand_rational_function,
    rand_roots,
    rand_type2,
)
from skeletron.skeleton import build_skeleton_tree
from skeletron.slopes import compute_F, verify_slope_formula

from helpers import ref_random_type2, ref_ray_slope, two_term_roots

ZERO = PuiseuxElement.zero()
ONE = PuiseuxElement.constant(1)
t = PuiseuxElement.monomial(1, 1)
INF_PT = Type1(INFINITY)


def zeta(center, s):
    return Type2(center, Fraction(s))


def worked_fixture():
    """f = T(T - t)/(T - 1)^2 on the four-puncture skeleton."""
    f = RationalFunction.make(0, [(ZERO, 1), (t, 1), (ONE, -2)])
    tree = build_skeleton_tree([Type1(ZERO), Type1(t), Type1(ONE), INF_PT])
    return f, tree


def test_compute_F_identity_on_gm():
    f = RationalFunction.make(0, [(ZERO, 1)])
    tree = build_skeleton_tree([Type1(ZERO), INF_PT])
    F = compute_F(f, tree)
    (vid,) = tree.placement
    assert F.vertex_values[vid] == 0
    assert F.ray_slopes == {"0": 1, "inf": -1}


def test_compute_F_constant():
    f = RationalFunction.make(7, [])
    _, tree = worked_fixture()
    F = compute_F(f, tree)
    assert set(F.vertex_values.values()) == {7}
    assert all(s == 0 for s in F.edge_slopes.values())
    assert all(s == 0 for s in F.ray_slopes.values())


def test_compute_F_worked_fixture():
    f, tree = worked_fixture()
    F = compute_F(f, tree)
    values = {tree.placement[v]: x for v, x in F.vertex_values.items()}
    assert values[zeta(ZERO, 0)] == 0
    assert values[zeta(ZERO, 1)] == 2
    assert list(F.edge_slopes.values()) in ([2], [-2])  # orientation-dependent
    (i,) = F.edge_slopes
    u, v, _ = tree.graph.edges[i]
    assert F.slope_from(i, tree.vertex_at(zeta(ZERO, 0))) == 2
    assert F.ray_slopes == {"0": 1, "t": 1, "1": -2, "inf": 0}


def test_compute_F_rejects_off_puncture_divisor():
    f = RationalFunction.make(0, [(t, 1), (ZERO, -1)])
    tree = build_skeleton_tree([Type1(ZERO), Type1(ONE), INF_PT])
    with pytest.raises(ValueError):
        compute_F(f, tree)


def test_direction_count_examples():
    _, tree = worked_fixture()
    root = tree.root_id()
    assert tree.graph.valence(root) == 3  # edge + rays to 1, inf
    gm = build_skeleton_tree([Type1(ZERO), INF_PT])
    (vid,) = gm.placement
    assert gm.graph.valence(vid) == 2


def test_verify_worked_fixture():
    f, tree = worked_fixture()
    report = verify_slope_formula(f, tree, samples=30, seed=1)
    assert report.verdict
    assert set(report.harmonicity.values()) == {0}
    assert report.degree_sum == 0
    assert all(ok for *_, ok in report.ray_checks)
    assert all(ok for *_, ok in report.retraction_samples)


def test_verify_rejects_negative_sample_count():
    f, tree = worked_fixture()
    with pytest.raises(ValueError, match="samples must be zero or more"):
        verify_slope_formula(f, tree, samples=-1)


def test_negative_control_ray_mismatch():
    # f = T has order 0 at the puncture 1; a report for f' = T(T-1)/...
    # claiming ord_1 = 1 must fail.  We fake the claim by checking T's
    # report against the divisor of T*(T-1)/T^2... simplest: compare the
    # computed ray slope at "1" with a wrong expectation directly.
    f = RationalFunction.make(0, [(ZERO, 1)])
    tree = build_skeleton_tree([Type1(ZERO), Type1(ONE), INF_PT])
    report = verify_slope_formula(f, tree, samples=5, seed=0)
    assert report.verdict  # T itself is fine on {0, 1, inf}
    row = next(r for r in report.ray_checks if r[0] == "1")
    mark, slope, expected, ok = row
    assert slope == 0 and expected == 0 and ok
    assert slope != 1  # the wrong claimed order would be flagged


def test_negative_control_misplaced_ray_base():
    # f = T(T - t^2)/(T - t)^2 on {0, t, t^2, inf}: the ray toward 0 starts
    # at v1 = zeta(0, 2).  Moved to v0 = zeta(0, 1), it would have to carry
    # the slope 2 of the edge v0-v1, not ord_0 f = 1.
    t2 = PuiseuxElement.monomial(1, 2)
    f = RationalFunction.make(0, [(ZERO, 1), (t2, 1), (t, -2)])
    tree = build_skeleton_tree([Type1(ZERO), Type1(t), Type1(t2), INF_PT])
    assert ("v1", "0") in tree.graph.rays
    assert verify_slope_formula(f, tree).verdict
    g = tree.graph
    rays = [("v0" if mark == "0" else base, mark) for base, mark in g.rays]
    moved = dataclasses.replace(
        tree, graph=MetricGraph.make(g.vertices, g.edges, rays))
    report = verify_slope_formula(f, moved)
    assert not report.verdict
    assert next(r for r in report.ray_checks if r[0] == "0") == (
        "0", 2, 1, False)


def _ray_slope_cases():
    """(f, tree) pairs: random functions under 0-3 extra vertices,
    two-term roots, two-puncture lines, an extra vertex as the root, and
    trees without infinity under degree-zero functions."""
    rng = random.Random(23)
    for k in range(60):
        f = rand_rational_function(rng)
        extras = [rand_type2(rng) for _ in range(k % 4)]
        yield f, build_skeleton_tree(punctures_of(f), extras)
    for n, clustered in ((16, True), (16, False), (24, True), (32, False)):
        roots = two_term_roots(rng, n, clustered)
        f = RationalFunction.make(rand_rational(rng), [
            (r, rng.choice((-2, -1, 1, 2))) for r in roots])
        yield f, build_skeleton_tree(punctures_of(f))
    for a in (ZERO, t, PuiseuxElement.from_terms([(-1, 3), (2, 1)])):
        for mult in (-2, 1):
            yield (RationalFunction.make(1, [(a, mult)]),
                   build_skeleton_tree([Type1(a), INF_PT]))
    for center in (ZERO, PuiseuxElement.constant(7)):
        root = zeta(center, -5)  # contains every root of exponent >= -4
        f = rand_rational_function(rng)
        tree = build_skeleton_tree(punctures_of(f), [root, zeta(t, 2)])
        assert tree.root_point() == root
        yield f, tree
    for _ in range(40):
        roots = rand_roots(rng)
        mults = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in roots[1:]]
        if sum(mults) == 0:  # also skips a lone root
            continue
        f = RationalFunction.make(rand_rational(rng),
                                  list(zip(roots, [-sum(mults)] + mults)))
        extras = [rand_type2(rng) for _ in range(rng.randint(0, 3))]
        yield f, build_skeleton_tree([Type1(r) for r in roots], extras)


def test_ray_slopes_match_breakpoint_probe_reference():
    without_inf = 0
    for f, tree in _ray_slope_cases():
        want = {mark: ref_ray_slope(f, tree, base, tree.ray_target[mark])
                for base, mark in tree.graph.rays}
        assert compute_F(f, tree).ray_slopes == want
        without_inf += not tree.has_infinity
    assert without_inf > 0


def test_verdict_stable_under_refinement():
    f, tree = worked_fixture()
    base = verify_slope_formula(f, tree, samples=10, seed=3)
    fine = build_skeleton_tree(
        [Type1(ZERO), Type1(t), Type1(ONE), INF_PT],
        extra_vertices=[zeta(ZERO, Fraction(1, 2)), zeta(ZERO, 3)],
    )
    refined = verify_slope_formula(f, fine, samples=10, seed=3)
    assert base.verdict and refined.verdict
    # F restricts: shared vertices carry identical values
    for v, p in tree.placement.items():
        w = fine.vertex_at(p)
        assert w is not None
        assert refined.F.vertex_values[w] == base.F.vertex_values[v]
    assert refined.F.ray_slopes == base.F.ray_slopes


def test_determined_up_to_constant():
    # reconstruct F from slope data alone by walking the tree from the
    # root with value 0; it must differ from compute_F by a constant
    f, tree = worked_fixture()
    F = compute_F(f, tree)
    g = tree.graph
    values = {tree.root_id(): Fraction(0)}
    pending = [tree.root_id()]
    while pending:
        v = pending.pop()
        for i in g.incident_edges(v):
            a, b, length = g.edges[i]
            w = b if a == v else a
            if w in values:
                continue
            values[w] = values[v] + F.slope_from(i, v) * length
            pending.append(w)
    diffs = {F.vertex_values[v] - values[v] for v in values}
    assert len(diffs) == 1


def test_random_functions_all_certify():
    rng = random.Random(99)
    for _ in range(25):
        f = rand_rational_function(rng)
        tree = build_skeleton_tree(punctures_of(f))
        report = verify_slope_formula(f, tree, samples=10, seed=rng.random())
        assert report.verdict, report.ray_checks


def test_rand_type2_reproduces_retraction_sampler():
    # certificates draw their retraction samples from rand_type2; the
    # sampler it replaced must give the same points from the same seed
    for seed in range(500):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert rand_type2(a) == ref_random_type2(b)
        assert a.getstate() == b.getstate()
