"""Exact rational polytope kernel for weight-polytope computations.

Everything here runs on `fractions.Fraction` and Python ints.  Containment
verdicts read these facets and feed stability certificates, so there is no
floating point and no epsilon anywhere in this module.

Points are plain tuples of Fractions.  A polytope keeps its generating
points until its vertices or facets are read; one incremental
double-description pass then finds both.  Polytopes may be degenerate
(lower-dimensional); the halfspace description then carries equalities
cutting out the affine hull alongside the facet inequalities.  `_rref` is
the one exact linear-algebra kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = ["LatticePolytope", "convex_hull", "dilate"]


def as_point(coords: Iterable) -> tuple:
    """Coerce a sequence of numbers to an exact rational point."""
    return tuple(Fraction(c) for c in coords)


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def _dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def _sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


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


# ---------------------------------------------------------------------------
# the hull: double description on integer points
# ---------------------------------------------------------------------------

def _affine_basis(points: list, indices: Iterable, size: int) -> list:
    """The lexicographically first affinely independent indices, at most `size`.

    Greedy in index order, which the affine matroid makes lex-first.
    """
    basis, rows = [], []
    for i in indices:
        if len(basis) == size:
            break
        if basis:
            row = _sub(points[i], points[basis[0]])
            if len(_rref(rows + [row], len(row))[1]) == len(rows):
                continue
            rows.append(row)
        basis.append(i)
    return basis


def _hull(points: Sequence) -> tuple:
    """(vertices, (equalities, facets)) of a sorted, deduplicated point list.

    Double description on the points scaled to integers.  The r-dimensional
    hull is seeded with the first r + 1 affinely independent points; each
    further point joins the incidence set of every facet it lies on and
    replaces the facets it lies beyond, each adjacent pair f (the point
    outside, a < 0) and g (inside, b > 0) making the facet b*f - a*g through
    their ridge and the point.  Incidence sets are bitmasks; f and g are
    adjacent when they share r - 1 points that no third facet holds.  A
    vertex is a point the facets through it meet in alone.  Facets come in
    the order of their ascending vertex-index lists, which is the order of
    their lex-first r independent vertices: a vertex of one facet in the
    span of a prefix shared with another lies on that one too.
    """
    dim, n = len(points[0]), len(points)
    scale = lcm(*(c.denominator for p in points for c in p))
    ints = [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]
    seed = _affine_basis(ints, range(n), dim + 1)
    # primitive, first nonzero entry positive
    normals = [_primitive(v) for v in
               _nullspace([_sub(ints[i], ints[seed[0]]) for i in seed[1:]], dim)]
    normals = [v if next(filter(None, v)) > 0 else tuple(-a for a in v) for v in normals]
    equalities = tuple((v, _dot(v, points[0])) for v in normals)
    r = len(seed) - 1
    if r == 0:
        return tuple(points), (equalities, ())
    facets = []  # (normal, offset, incidence mask) over the integer points
    for i in seed:
        on = [j for j in seed if j != i]
        u = _primitive(_nullspace([_sub(ints[j], ints[on[0]]) for j in on[1:]] + normals, dim)[0])
        sign = 1 if _dot(u, ints[i]) > _dot(u, ints[on[0]]) else -1
        facets.append((tuple(sign * a for a in u), sign * _dot(u, ints[on[0]]),
                       sum(1 << j for j in on)))
    for j in sorted(set(range(n)) - set(seed)):
        sides = [_dot(u, ints[j]) - c for u, c, _z in facets]
        cone = []
        for f, a in zip(facets, sides):
            for g, b in zip(facets, sides):
                common = f[2] & g[2]
                if a < 0 < b and common.bit_count() >= r - 1 and not any(
                        h is not f and h is not g and common & ~h[2] == 0 for h in facets):
                    u = tuple(b * p - a * q for p, q in zip(f[0], g[0]))
                    k = gcd(*u)
                    cone.append((tuple(v // k for v in u), (b * f[1] - a * g[1]) // k,
                                 common | 1 << j))
        facets = [(u, c, z | 1 << j if s == 0 else z)
                  for (u, c, z), s in zip(facets, sides) if s >= 0] + cone
    meet = [(1 << n) - 1] * n
    for _u, _c, z in facets:
        for j in _bits(z):
            meet[j] &= z
    vertices = sum(1 << j for j in range(n) if meet[j] == 1 << j)
    keyed = sorted((_bits(z & vertices), u, Fraction(c, scale)) for u, c, z in facets)
    return (tuple(points[j] for j in _bits(vertices)),
            (equalities, tuple((u, c) for _key, u, c in keyed)))


def _bits(mask: int) -> list:
    """The indices of the set bits of `mask`, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

class LatticePolytope:
    """Convex hull of finitely many rational points.

    Holds its deduplicated, sorted generators until `vertices` or
    `halfspaces()` is first read; one `_hull` pass then fills both, and the
    vertices replace the generators, so memory does not grow.  `dilate`
    never hulls; `==` and hashing do.  Both caches fill together and either
    generating set is valid while they do, so instances are safe to share
    across threads.
    """

    __slots__ = ("dim", "_points", "_halfspaces")

    def __init__(self, points: Sequence, *, _halfspaces=None):
        pts = [as_point(p) for p in points]
        if not pts:
            raise ValueError("a polytope needs at least one point")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("mixed dimensions in point set")
        self.dim = dim
        self._points = tuple(sorted(set(pts)))
        # given, the points are known to be the vertices
        self._halfspaces = _halfspaces

    @property
    def vertices(self) -> tuple:
        """The extreme points, in sorted order; computed on first access."""
        if self._halfspaces is None:
            vertices, halfspaces = _hull(self._points)
            self._points = vertices
            self._halfspaces = halfspaces
        return self._points

    def halfspaces(self):
        """Return (equalities, inequalities) in ambient coordinates.

        Equalities are pairs (n, c) with <n, x> = c on the polytope and cut
        out its affine hull; inequalities are pairs (u, c) with <u, x> >= c,
        one per facet relative to the affine hull, ordered by the
        lexicographically first affinely independent vertices on each.  A
        facet normal is orthogonal to the equality normals, which makes it
        unique up to positive scale; it is stored primitive.
        """
        self.vertices
        return self._halfspaces

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)})"


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def convex_hull(points: Sequence) -> LatticePolytope:
    """Irredundant convex hull of a nonempty list of same-dimension points."""
    if points is None or len(points) == 0:
        raise ValueError("convex_hull of empty point set")
    return LatticePolytope(points)


def dilate(p: LatticePolytope, k) -> LatticePolytope:
    """Scale a polytope about the origin by a nonnegative rational factor.

    k > 0 keeps vertices extreme and sorted and facet normals fixed, so a
    hulled polytope's dilate carries its description scaled and never
    hulls; k = 0 collapses every point to the origin.
    """
    k = Fraction(k)
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    scaled = None
    if k and p._halfspaces is not None:
        scaled = tuple(tuple((n, k * c) for n, c in part) for part in p._halfspaces)
    return LatticePolytope([tuple(k * c for c in v) for v in p._points], _halfspaces=scaled)
