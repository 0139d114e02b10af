"""Exact rational polytope kernel for weight-polytope computations.

Everything in this module runs on `fractions.Fraction` and Python ints:
hulls, halfspace descriptions, containment, Minkowski sums and support
minima are all exact.  Containment verdicts feed stability certificates, so
there is no floating point and no epsilon anywhere in this module.

Points are plain tuples of Fractions.  A polytope keeps its generating
points and finds its vertices only when its vertices or facets are read;
vertices come from an exact prefilter (lexicographically first minimizers of
fixed directions) with LPs for the rest.  Polytopes may be degenerate
(lower-dimensional); the halfspace description then carries equality
constraints cutting out the affine hull alongside the facet inequalities.
Dimensions stay small (<= ~8), which keeps direct facet enumeration and a
tiny exact simplex entirely adequate.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

LatticePoint = tuple  # tuple[Fraction, ...]; fixed length within one context

__all__ = [
    "LatticePoint",
    "LatticePolytope",
    "convex_hull",
    "contains",
    "minkowski_sum",
    "dilate",
    "support_min",
    "polytope_to_json",
    "polytope_from_json",
]


def as_point(coords: Iterable) -> LatticePoint:
    """Coerce a sequence of numbers to an exact rational point."""
    return tuple(Fraction(c) for c in coords)


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def _dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def _sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def _pivot(rows: list, r: int, col: int) -> None:
    """Scale row r to a unit entry in `col` and clear `col` from every other row."""
    lead = rows[r][col]
    rows[r] = [a / lead for a in rows[r]]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and f != 0:
            rows[i] = [a - f * b if b else a for a, b in zip(row, rows[r])]


def _rref(rows: Sequence, ncols: int):
    """Exact Gauss-Jordan elimination over the first `ncols` columns.

    Returns (reduced rows, pivot columns, det).  Entries are coerced to
    Fraction first, since int / int would silently leave the rationals.
    `det` is the determinant when the matrix is square (zero if singular).
    """
    mat = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            det = -det
        det *= mat[r][col]
        _pivot(mat, r, col)
        pivots.append(col)
    return mat, pivots, det


def _nullspace(rows: list, dim: int) -> list:
    """Basis of {x : <row, x> = 0 for all rows} in ambient dimension `dim`."""
    mat, pivots, _det = _rref(rows, dim)
    basis = []
    for j in range(dim):
        if j in pivots:
            continue
        vec = [Fraction(0)] * dim
        vec[j] = Fraction(1)
        for i, piv in enumerate(pivots):
            vec[piv] = -mat[i][j]
        basis.append(tuple(vec))
    return basis


def _primitive(vec: Sequence) -> tuple:
    """Scale a rational vector by a positive rational to a primitive integer one."""
    fracs = [Fraction(v) for v in vec]
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in ints)


def _canonical_sign(vec: tuple) -> tuple:
    """Flip sign so the first nonzero entry is positive (for dedup keys)."""
    for a in vec:
        if a != 0:
            return vec if a > 0 else tuple(-x for x in vec)
    return vec


# ---------------------------------------------------------------------------
# exact feasibility LP (phase-1 simplex, Bland's rule)
# ---------------------------------------------------------------------------

def _lp_feasible(A: list, b: list) -> bool:
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


def _point_in_hull(point: Sequence, points: list) -> bool:
    """Exact test for `point` in conv(points)."""
    if not points:
        return False
    A = [[p[i] for p in points] for i in range(len(point))] + [[1] * len(points)]
    return _lp_feasible(A, list(point) + [1])


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

class LatticePolytope:
    """Convex hull of finitely many rational points.

    Holds its deduplicated, sorted generators until `vertices` is first
    read; the vertices then replace them, so memory does not grow.
    `contains` (on its inner argument), `support_min`, `minkowski_sum` and
    `dilate` are exact over any generating set and never hull; `vertices`,
    `halfspaces()` (equalities of the affine hull plus facet inequalities,
    in ambient coordinates), `==`, hashing and JSON do.  Both caches are
    idempotent and either generating set is valid while one fills, so
    instances are safe to share across threads.
    """

    __slots__ = ("dim", "_points", "_hulled", "_halfspaces")

    def __init__(self, points: Sequence[LatticePoint], *, _known_extreme: bool = False):
        pts = [as_point(p) for p in points]
        if not pts:
            raise ValueError("a polytope needs at least one point")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("mixed dimensions in point set")
        self.dim = dim
        self._points = tuple(sorted(set(pts)))
        self._hulled = _known_extreme
        self._halfspaces = None

    @property
    def vertices(self) -> tuple:
        """The extreme points, in sorted order; computed on first access."""
        if not self._hulled:
            self._points = tuple(_extreme_points(self._points))
            self._hulled = True
        return self._points

    # -- structure ---------------------------------------------------------

    def halfspaces(self):
        """Return (equalities, inequalities) in ambient coordinates.

        Equalities are pairs (n, c) with <n, x> = c on the polytope and cut
        out its affine hull; inequalities are pairs (u, c) with <u, x> >= c,
        one per facet relative to the affine hull.  Every facet of an
        r-dimensional polytope contains r affinely independent vertices, so
        scanning r-subsets finds each one.  A facet normal is orthogonal to
        the equality normals, which makes it unique up to positive scale;
        it is stored primitive.
        """
        if self._halfspaces is None:
            p0 = self.vertices[0]
            normals = [_canonical_sign(_primitive(n)) for n in
                       _nullspace([_sub(v, p0) for v in self.vertices[1:]], self.dim)]
            equalities = tuple((n, _dot(n, p0)) for n in normals)
            r = self.dim - len(normals)
            facets = {}
            for subset in itertools.combinations(self.vertices, r) if r else ():
                base = subset[0]
                null = _nullspace([_sub(v, base) for v in subset[1:]] + normals, self.dim)
                if len(null) != 1:
                    continue
                u = _primitive(null[0])
                c = _dot(u, base)
                sides = [_dot(u, v) - c for v in self.vertices]
                if min(sides) < 0 < max(sides):
                    continue
                if min(sides) < 0:
                    u, c = tuple(-x for x in u), -c
                facets[(u, c)] = True
            self._halfspaces = (equalities, tuple(facets))
        return self._halfspaces

    # -- predicates ----------------------------------------------------------

    def contains_point(self, point: Sequence) -> bool:
        point = as_point(point)
        if len(point) != self.dim:
            raise ValueError("dimension mismatch")
        equalities, inequalities = self.halfspaces()
        for n, c in equalities:
            if _dot(n, point) != c:
                return False
        for u, c in inequalities:
            if _dot(u, point) < c:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)})"


def _extreme_points(points: Sequence) -> list:
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
        if not (keep[i] or _point_in_hull(ints[i], verts) or _point_in_hull(
                ints[i], verts + [ints[j] for j in range(i + 1, n) if not keep[j]])):
            keep[i] = True
            verts.append(ints[i])
    return [p for p, k in zip(points, keep) if k]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def convex_hull(points: Sequence) -> LatticePolytope:
    """Irredundant convex hull of a nonempty list of same-dimension points."""
    if points is None or len(points) == 0:
        raise ValueError("convex_hull of empty point set")
    return LatticePolytope(points)


def contains(outer: LatticePolytope, inner: LatticePolytope) -> bool:
    """Closed containment inner <= outer, exact (boundary counts as inside)."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch between polytopes")
    return all(outer.contains_point(v) for v in inner._points)


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Hull of pairwise sums of generators."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch between polytopes")
    sums = [tuple(a + b for a, b in zip(u, v))
            for u in p._points for v in q._points]
    return LatticePolytope(sums)


def dilate(p: LatticePolytope, k) -> LatticePolytope:
    """Scale a polytope about the origin by a nonnegative rational factor."""
    k = Fraction(k)
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    # k > 0 keeps vertices extreme and sorted; k = 0 collapses every point
    # to the origin, which the constructor dedups
    return LatticePolytope([tuple(k * c for c in v) for v in p._points],
                           _known_extreme=p._hulled)


def support_min(p: LatticePolytope, coeffs: Sequence) -> Fraction:
    """Exact minimum of the linear functional with these coefficients over the
    polytope (attained at a vertex)."""
    if len(coeffs) != p.dim:
        raise ValueError("dimension mismatch between functional and polytope")
    return min(_dot(coeffs, v) for v in p._points)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def polytope_to_json(p: LatticePolytope) -> str:
    payload = {
        "dim": p.dim,
        "vertices": [[str(c) for c in v] for v in p.vertices],
    }
    return json.dumps(payload)


def polytope_from_json(text: str) -> LatticePolytope:
    payload = json.loads(text)
    verts = [tuple(Fraction(c) for c in v) for v in payload["vertices"]]
    if any(len(v) != payload["dim"] for v in verts):
        raise ValueError("vertex dimension disagrees with declared dim")
    return LatticePolytope(verts)
