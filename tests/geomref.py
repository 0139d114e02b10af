"""Exact references for the polytope kernel, kept apart from it, and the
plain constructions the pair and curve tests check against.

`exactgeom` finds vertices and facets in one double-description pass; the
tests check it against the computations it replaced.  Vertices come from an
LP filter (fixed-direction minimizers, then exact phase-1 simplex solves),
facets from a scan of every r-subset of the vertices, their order from the
rank tests of a greedy affine basis, and containment, Minkowski sums and
support minima are the plain definitions.  The identity's simplex, tensor
supports and binary-form products are written out the same way.
"""

import functools
import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

from stabpair.exactgeom import (
    LatticePolytope,
    _affine_basis,
    _dot,
    _nullspace,
    _pivot,
    _primitive,
    _sub,
    as_point,
    convex_hull,
)
from stabpair.polyrep import support


def lp_feasible(A: list, b: list) -> bool:
    """Exact feasibility of {x >= 0 : A x = b} over the rationals.

    The tableau holds the m constraint rows (structural columns, one
    artificial column per row, right-hand side) and, as its last row, the
    phase-1 objective, so one pivot step updates both.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    tab = []
    for i in range(m):
        sign = 1 if b[i] >= 0 else -1
        row = [sign * Fraction(a) for a in A[i]] + [Fraction(0)] * m + [sign * Fraction(b[i])]
        row[n + i] = Fraction(1)
        tab.append(row)
    tab.append([sum(col, Fraction(0)) for col in zip(*tab)])
    basis = list(range(n, n + m))
    while (enter := next((j for j in range(n) if tab[m][j] > 0), None)) is not None:
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:  # pragma: no cover - phase-1 objective is bounded
            raise ArithmeticError("unbounded phase-1 simplex")
        _pivot(tab, leave, enter)
        basis[leave] = enter
    return tab[m][-1] == 0


def point_in_hull(point, points: list) -> bool:
    """Exact test for `point` in conv(points)."""
    if not points:
        return False
    A = [[p[i] for p in points] for i in range(len(point))] + [[1] * len(points)]
    return lp_feasible(A, list(point) + [1])


def extreme_points(points: Sequence) -> list:
    """The extreme points of a sorted, deduplicated point list, in its order.

    The lexicographically first minimizer of a linear functional is a
    vertex, so the fixed directions 0, ±2e_i and ±e_i ± e_j find vertices
    without an LP.  Every other point gets one small LP against the vertices
    known so far; only a point outside their hull gets the LP against all
    remaining candidates, and a vertex that LP confirms becomes known.
    Coordinates are scaled to integers by their common denominator.
    """
    n, dim = len(points), len(points[0])
    scale = lcm(*(c.denominator for p in points for c in p))
    ints = [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]
    signed = [tuple(s * (k == i) for k in range(dim)) for i in range(dim) for s in (1, -1)]
    directions = {tuple(a + b for a, b in zip(u, w)) for u in signed for w in signed}
    keep = [False] * n
    for u in directions:
        keep[min(range(n), key=lambda i: sum(a * b for a, b in zip(u, ints[i])))] = True
    verts = [p for p, k in zip(ints, keep) if k]
    for i in range(n):
        if not (keep[i] or point_in_hull(ints[i], verts) or point_in_hull(
                ints[i], verts + [ints[j] for j in range(i + 1, n) if not keep[j]])):
            keep[i] = True
            verts.append(ints[i])
    return [p for p, k in zip(points, keep) if k]


def _canonical_sign(vec: tuple) -> tuple:
    """Flip sign so the first nonzero entry is positive (for dedup keys)."""
    for a in vec:
        if a != 0:
            return vec if a > 0 else tuple(-x for x in vec)
    return vec


def subset_scan(vertices: tuple, dim: int):
    """(equalities, facets) of conv(vertices) by scanning r-subsets.

    Every facet of an r-dimensional polytope contains r affinely
    independent vertices, so scanning r-subsets finds each one; a facet is
    kept at the first subset that spans it.
    """
    p0 = vertices[0]
    normals = [_canonical_sign(_primitive(n)) for n in
               _nullspace([_sub(v, p0) for v in vertices[1:]], dim)]
    equalities = tuple((n, _dot(n, p0)) for n in normals)
    r = dim - len(normals)
    facets = {}
    for subset in itertools.combinations(vertices, r) if r else ():
        base = subset[0]
        null = _nullspace([_sub(v, base) for v in subset[1:]] + normals, dim)
        if len(null) != 1:
            continue
        u = _primitive(null[0])
        c = _dot(u, base)
        sides = [_dot(u, v) - c for v in vertices]
        if min(sides) < 0 < max(sides):
            continue
        if min(sides) < 0:
            u, c = tuple(-x for x in u), -c
        facets[(u, c)] = True
    return equalities, tuple(facets)


def rank_keyed_facets(p: LatticePolytope) -> tuple:
    """p's facets ordered by the lexicographically first affinely independent
    vertices on each, found by rank tests in vertex order."""
    equalities, facets = p.halfspaces()
    verts = p.vertices
    r = p.dim - len(equalities)
    return tuple(sorted(facets, key=lambda facet: _affine_basis(
        verts, [i for i, v in enumerate(verts) if _dot(facet[0], v) == facet[1]], r)))


def contains_point(p: LatticePolytope, point) -> bool:
    point = as_point(point)
    if len(point) != p.dim:
        raise ValueError("dimension mismatch")
    equalities, inequalities = p.halfspaces()
    for n, c in equalities:
        if _dot(n, point) != c:
            return False
    for u, c in inequalities:
        if _dot(u, point) < c:
            return False
    return True


def contains(outer: LatticePolytope, inner: LatticePolytope) -> bool:
    """Closed containment inner <= outer, exact (boundary counts as inside)."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch between polytopes")
    return all(contains_point(outer, v) for v in inner._points)


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Hull of pairwise sums of generators."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch between polytopes")
    sums = [tuple(a + b for a, b in zip(u, v))
            for u in p._points for v in q._points]
    return LatticePolytope(sums)


def support_min(p: LatticePolytope, coeffs) -> Fraction:
    """Exact minimum of the linear functional with these coefficients over the
    polytope (attained at a vertex)."""
    if len(coeffs) != p.dim:
        raise ValueError("dimension mismatch between functional and polytope")
    return min(_dot(coeffs, v) for v in p._points)


@functools.cache
def simplex_qn(ambient: int) -> LatticePolytope:
    """Weight polytope of the identity operator, in sum-zero coordinates.

    Vertices are e_i - (1, ..., 1)/(N+1); the origin is its barycenter and
    lies in the strict interior.  Under any basis change the left regular
    factor keeps every row character, so this polytope is the same for all
    maximal tori.
    """
    return convex_hull([tuple(Fraction(int(i == j)) - Fraction(1, ambient)
                              for j in range(ambient)) for i in range(ambient)])


def tensor_support(v, w) -> set:
    """Support of the tensor product v (x) w: all pairwise character sums."""
    return {tuple(x + y for x, y in zip(a, b)) for a in support(v) for b in support(w)}


def binary_form_mul(a: Sequence, b: Sequence) -> list:
    """Coefficient convolution: the product of two binary forms."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
