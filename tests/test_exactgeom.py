"""Exact polytope kernel: hulls, halfspace descriptions and dilates.

The double-description hull is checked against the references in
`geomref` (an LP vertex filter and an r-subset facet scan) and against
structural properties every facet must have; containment, Minkowski sums
and support minima are tested on those references.
"""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from geomref import (
    contains,
    contains_point,
    extreme_points,
    minkowski_sum,
    point_in_hull,
    rank_keyed_facets,
    subset_scan,
    support_min,
)
from stabpair.exactgeom import _rref, as_point, convex_hull, dilate
from stabpair.pairstab import weight_polytope
from stabpair.polyrep import OnePSG, act, random_unimodular
from stabpair.varieties import rnc_hyperdiscriminant, rnc_resultant

F = Fraction


def vset(p):
    return set(p.vertices)


def random_points(rng, dim, count, lo=-4, hi=4):
    return [tuple(int(x) for x in rng.integers(lo, hi + 1, size=dim))
            for _ in range(count)]


# -- convex_hull -------------------------------------------------------------

def test_hull_singleton():
    p = convex_hull([(0, 0)])
    assert vset(p) == {as_point((0, 0))}


def test_hull_drops_interior_point():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 3), F(1, 3))])
    assert vset(p) == {as_point((0, 0)), as_point((1, 0)), as_point((0, 1))}


def test_hull_of_quadratic_discriminant_support():
    # support of a1^2 - 4 a0 a2 as column degrees: both points are extreme
    p = convex_hull([(0, 2, 0), (1, 0, 1)])
    assert vset(p) == {as_point((0, 2, 0)), as_point((1, 0, 1))}


def test_hull_collinear_points_keeps_endpoints():
    p = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert vset(p) == {as_point((0, 0)), as_point((3, 3))}


def test_hull_of_hexagon_has_one_facet_per_edge():
    # the point (2, 4) sees an edge that shares no vertex with the edge
    # through (-1, 2) and (0, 0): only adjacent facet pairs make new facets
    hexagon = convex_hull([(0, 0), (2, 0), (3, 2), (2, 4), (0, 4), (-1, 2), (1, 2)])
    equalities, facets = hexagon.halfspaces()
    assert len(hexagon.vertices) == 6 and equalities == () and len(facets) == 6
    assert set(facets) == {((2, 1), 0), ((0, 1), 0), ((-2, 1), -4),
                           ((-2, -1), -8), ((0, -1), -4), ((2, -1), -4)}


def test_hull_rejects_empty_and_mixed_dims():
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1, 2, 3)])


def test_hull_contains_all_inputs_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        pts = random_points(rng, dim, int(rng.integers(1, 12)))
        hull = convex_hull(pts)
        assert all(contains_point(hull, p) for p in pts)


# -- contains ----------------------------------------------------------------

def test_contains_reflexive():
    p = convex_hull([(0, 0), (2, 1), (1, 3)])
    assert contains(p, p)


def test_contains_midpoint_of_segment():
    seg = convex_hull([(-1, 1), (1, -1)])
    origin = convex_hull([(0, 0)])
    assert contains(seg, origin)
    assert not contains(origin, seg)


def test_contains_degenerate_needs_affine_hull():
    # the segment lives on the line x + y = 0; a point off that line is outside
    seg = convex_hull([(-1, 1), (1, -1)])
    assert not contains(seg, convex_hull([(1, 1)]))
    # and a sub-segment inside is detected
    inner = convex_hull([(F(-1, 2), F(1, 2)), (F(1, 2), F(-1, 2))])
    assert contains(seg, inner)


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(convex_hull([(0, 0)]), convex_hull([(0, 0, 0)]))


def test_mutual_containment_means_equal_vertex_sets():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        pts = random_points(rng, dim, int(rng.integers(2, 9)))
        a = convex_hull(pts)
        b = convex_hull(list(pts) + random_points(rng, dim, 3, lo=-1, hi=1))
        both = contains(a, b) and contains(b, a)
        assert both == (vset(a) == vset(b))


# -- minkowski_sum / dilate ----------------------------------------------------

def test_minkowski_identity_element():
    p = convex_hull([(0, 0), (1, 0), (0, 1)])
    origin = convex_hull([(0, 0)])
    assert minkowski_sum(p, origin) == p


def test_minkowski_orthogonal_segments_make_square():
    a = convex_hull([(0, 0), (1, 0)])
    b = convex_hull([(0, 0), (0, 1)])
    sq = minkowski_sum(a, b)
    assert vset(sq) == {as_point(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)]}


def test_minkowski_square_is_double_dilate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        p = convex_hull(random_points(rng, dim, int(rng.integers(1, 8))))
        assert minkowski_sum(p, p) == dilate(p, 2)
        assert dilate(minkowski_sum(p, p), F(1, 2)) == p


def test_minkowski_commutes_and_associates():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        p, q, r = (convex_hull(random_points(rng, dim, int(rng.integers(1, 6))))
                   for _ in range(3))
        assert minkowski_sum(p, q) == minkowski_sum(q, p)
        assert minkowski_sum(minkowski_sum(p, q), r) == minkowski_sum(p, minkowski_sum(q, r))


def test_dilate_cases():
    p = convex_hull([(1, -1), (-2, 2)])
    assert dilate(p, 1) == p
    assert vset(dilate(p, 0)) == {as_point((0, 0))}
    with pytest.raises(ValueError):
        dilate(p, -1)


def test_dilate_simplex_vertices():
    # projected 2-simplex: e_i - (1/3, 1/3, 1/3)
    verts = []
    for i in range(3):
        v = [F(-1, 3)] * 3
        v[i] += 1
        verts.append(tuple(v))
    q = convex_hull(verts)
    doubled = dilate(q, 2)
    assert vset(doubled) == {tuple(2 * c for c in v) for v in q.vertices}


# -- support_min ---------------------------------------------------------------

def test_support_min_examples():
    origin = convex_hull([(0, 0)])
    assert support_min(origin, (1, -1)) == 0
    seg = convex_hull([(1, -1), (-1, 1)])
    assert support_min(seg, (1, -1)) == -2
    disc_support = convex_hull([(0, 2, 0), (1, 0, 1)])
    assert support_min(disc_support, OnePSG((1, 0, -1)).exponents) == 0
    with pytest.raises(ValueError):
        support_min(seg, (1, 0, -1))


def test_support_min_matches_raw_minimum_random():
    rng = np.random.default_rng(19)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        pts = random_points(rng, dim, int(rng.integers(1, 10)))
        lam = [int(x) for x in rng.integers(-3, 4, size=dim)]
        lam[-1] -= sum(lam)
        hull = convex_hull(pts)
        assert support_min(hull, lam) == min(sum(x * c for x, c in zip(p, lam)) for p in pts)


def test_linear_functional_validation():
    # the sum-zero integer functionals are the one-parameter subgroups
    with pytest.raises(ValueError):
        OnePSG((1, 1))
    with pytest.raises(ValueError):
        OnePSG((F(1, 2), F(-1, 2)))
    with pytest.raises(ValueError):
        OnePSG((1.9, -1.9))
    assert OnePSG((F(2), 0, -2.0)).exponents == (2, 0, -2)


# -- halfspaces --------------------------------------------------------------------

def _degenerate_supports(rng):
    """Sum-zero characters, collinear sets and planar sets in dimension 4."""
    for _ in range(8):
        heads = [rng.integers(-3, 4, size=3) for _ in range(int(rng.integers(1, 8)))]
        yield [tuple(int(x) for x in h) + (-int(sum(h)),) for h in heads]
        base, step = rng.integers(-3, 4, size=3), rng.integers(-2, 3, size=3)
        yield [tuple(int(x) for x in base + t * step) for t in rng.integers(-3, 4, size=5)]
        base, d1, d2 = (rng.integers(-2, 3, size=4) for _ in range(3))
        yield [tuple(int(x) for x in base + a * d1 + b * d2)
               for a, b in rng.integers(-2, 3, size=(7, 2))]


def test_halfspaces_describe_same_set():
    rng = np.random.default_rng(23)
    supports = [random_points(rng, int(dim), int(rng.integers(1, 9)))
                for dim in rng.integers(1, 5, size=25)]
    for pts in supports + list(_degenerate_supports(rng)):
        hull = convex_hull(pts)
        dim = len(pts[0])
        probes = random_points(rng, dim, 12, lo=-5, hi=5) + [hull.vertices[0]]
        for probe in probes:
            by_halfspace = contains_point(hull, probe)
            by_lp = point_in_hull(probe, list(hull.vertices))
            assert by_halfspace == by_lp


# -- the hull against its references ---------------------------------------------

def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _rank(rows, dim):
    return len(_rref(rows, dim)[1]) if rows else 0


def assert_facets_sound(hull):
    """Each facet is primitive, orthogonal to the equality normals, has every
    vertex on or inside it, and carries r affinely independent vertices."""
    equalities, facets = hull.halfspaces()
    verts, dim = hull.vertices, hull.dim
    r = dim - len(equalities)
    assert _rank([_sub(v, verts[0]) for v in verts], dim) == r
    assert all(sum(a * b for a, b in zip(n, v)) == c for n, c in equalities for v in verts)
    assert len(set(facets)) == len(facets) and (r == 0) == (facets == ())
    for u, c in facets:
        assert all(isinstance(a, int) for a in u) and math.gcd(*u) == 1
        assert all(sum(a * b for a, b in zip(u, n)) == 0 for n, _c in equalities)
        sides = [sum(a * b for a, b in zip(u, v)) - c for v in verts]
        assert min(sides) == 0
        on = [v for v, s in zip(verts, sides) if s == 0]
        assert _rank([_sub(v, on[0]) for v in on], dim) == r - 1


def _differential_supports(rng, count):
    """Random supports of dimension <= 4 and at most 16 points, degenerate ones included."""
    for k in range(count):
        dim = int(rng.integers(1, 5))
        npts = int(rng.integers(1, 17 if k % 4 == 0 else 9))
        kind = k % 5
        if kind == 0:    # integer points, duplicates likely
            pts = random_points(rng, dim, npts, lo=-2, hi=2)
        elif kind == 1:  # rational coordinates
            pts = [tuple(F(int(a), int(b)) for a, b in zip(rng.integers(-6, 7, size=dim),
                                                           rng.integers(1, 4, size=dim)))
                   for _ in range(npts)]
        elif kind == 2:  # sum-zero, so lower-dimensional in dim + 1 coordinates
            heads = random_points(rng, min(dim, 3), npts, lo=-3, hi=3)
            pts = [h + (-sum(h),) for h in heads]
        elif kind == 3:  # collinear, endpoints possibly repeated
            base, step = rng.integers(-3, 4, size=dim), rng.integers(-2, 3, size=dim)
            pts = [tuple(int(x) for x in base + t * step) for t in rng.integers(-3, 4, size=npts)]
        else:            # a singleton, repeated
            pts = random_points(rng, dim, 1) * int(rng.integers(1, 4))
        yield pts


def _high_dimensional_supports(rng):
    """Full-dimensional, sum-zero and planar point sets in dimensions 5 and 6."""
    for dim in (5, 6):
        yield random_points(rng, dim, 10, lo=-2, hi=2)
        heads = random_points(rng, dim - 1, 9, lo=-2, hi=2)
        yield [h + (-sum(h),) for h in heads]
        base, d1, d2 = (rng.integers(-2, 3, size=dim) for _ in range(3))
        yield [tuple(int(x) for x in base + a * d1 + b * d2)
               for a, b in rng.integers(-2, 3, size=(8, 2))]


def test_extreme_points_match_reference_filter():
    # the subset scan grows as C(vertices, dim), so below dimension 5 it runs
    # where it is cheap; the structural check runs on every support
    rng = np.random.default_rng(2024)
    supports = list(_differential_supports(rng, 1000)) + list(_high_dimensional_supports(rng))
    for raw in supports:
        want = tuple(extreme_points(sorted(set(as_point(p) for p in raw))))
        hull = convex_hull(raw)
        assert hull.vertices == want, raw
        if len(want) <= 5 or hull.dim >= 5:
            assert hull.halfspaces() == subset_scan(want, hull.dim), raw
        assert_facets_sound(hull)


def _acted_rnc_supports():
    """Weight polytopes of res:d and disc:d, d <= 4, on conjugate tori."""
    for d in (2, 3, 4):
        for form in (rnc_resultant(d), rnc_hyperdiscriminant(d)):
            for seed in range(3):
                g = random_unimodular(d + 1, np.random.default_rng(seed))
                yield weight_polytope(act(g, form)).vertices


def test_facet_order_matches_rank_key():
    # facets sorted by their vertex-index lists come in the order of their
    # lexicographically first affinely independent vertices
    rng = np.random.default_rng(2025)
    supports = (list(_differential_supports(rng, 1000)) + list(_high_dimensional_supports(rng))
                + list(_acted_rnc_supports()))
    for raw in supports:
        hull = convex_hull(raw)
        assert hull.halfspaces()[1] == rank_keyed_facets(hull), raw


# -- lazy hulls -------------------------------------------------------------------

def test_lazy_operations_match_hulled(hull_inputs):
    rng = np.random.default_rng(29)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        pts_p, pts_q = (random_points(rng, dim, int(rng.integers(1, 7))) for _ in range(2))
        lazy_p, lazy_q = convex_hull(pts_p), convex_hull(pts_q)
        hull_p, hull_q = convex_hull(pts_p), convex_hull(pts_q)
        assert hull_p.vertices and hull_q.vertices
        del hull_inputs[:]
        lam = [int(x) for x in rng.integers(-3, 4, size=dim)]
        k = F(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
        assert support_min(lazy_p, lam) == support_min(hull_p, lam)
        assert contains(hull_q, lazy_p) == contains(hull_q, hull_p)
        assert contains(hull_p, lazy_q) == contains(hull_p, hull_q)
        lazy_sum, lazy_dilate = minkowski_sum(lazy_p, lazy_q), dilate(lazy_p, k)
        assert hull_inputs == []  # nothing above hulls a lazy polytope
        assert lazy_sum == minkowski_sum(hull_p, hull_q)
        assert lazy_dilate == dilate(hull_p, k)
        assert lazy_p == hull_p and lazy_q == hull_q


def test_dilate_of_hulled_polytope_stays_hull_free(hull_inputs):
    p = convex_hull([(0, 0), (2, 0), (0, 2), (1, 1), (F(1, 2), F(1, 2))])
    assert hull_inputs == []
    assert len(p.vertices) == 3 and len(hull_inputs) == 1
    big = dilate(p, 3)
    big.halfspaces()
    assert vset(big) == {tuple(3 * c for c in v) for v in p.vertices}
    assert len(hull_inputs) == 1
    assert len(dilate(convex_hull([(0, 0), (1, 1), (2, 2)]), 2).vertices) == 2
    assert len(hull_inputs) == 2
    # a dilate carries the facets, scaled, exactly as a fresh hull finds them
    rng = np.random.default_rng(37)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        q = convex_hull(random_points(rng, dim, int(rng.integers(1, 10))))
        q.halfspaces()
        k = F(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        del hull_inputs[:]
        scaled = dilate(q, k)
        assert (scaled.vertices, scaled.halfspaces()) == (
            tuple(tuple(k * c for c in v) for v in q.vertices),
            subset_scan(scaled.vertices, dim))
        assert hull_inputs == []
        fresh = convex_hull([tuple(k * c for c in v) for v in q.vertices])
        assert fresh.halfspaces() == scaled.halfspaces()


def test_lazy_hull_shared_across_threads():
    # the vertex and halfspace caches fill without a lock: racing readers
    # may each compute them, but every reader must see a valid state
    rng = np.random.default_rng(31)
    pts = random_points(rng, 3, 16)
    want = convex_hull(pts)
    probe = convex_hull(random_points(rng, 3, 6, lo=-2, hi=2))
    expected = (want.vertices, want.halfspaces(), contains(want, probe), support_min(want, (1, 2, -3)))
    shared = convex_hull(pts)
    results, interval, start = [], sys.getswitchinterval(), threading.Barrier(4)

    def read():
        start.wait(timeout=60)
        results.append((shared.vertices, shared.halfspaces(), contains(shared, probe),
                        support_min(shared, (1, 2, -3))))

    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    assert results == [expected] * 4
