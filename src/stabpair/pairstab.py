"""Semistability and stability of pairs of vectors via weight polytopes.

A pair (v, w) is numerically semistable at a maximal torus when the weight
polytope of v is contained in the weight polytope of w; equivalently, when
min <a, lam> over the support of v is >= the same minimum for w, for every
integer sum-zero functional lam.  (Containment in a smaller set can only
raise a minimum, and a separating facet normal certifies failure.)  Every
verdict here is read from one table per torus: the weights over N(w)'s
certificate functionals (its facet normals and affine-hull normals), which
are a finite set of lam that suffices.

Full semistability quantifies over all maximal tori, which is out of reach
exactly; this module certifies the diagonal torus exactly and probes random
integer conjugates, labeling verdicts accordingly.  Destabilizations are
always exact: conjugating group elements are unimodular integer matrices,
so supports, hulls and separating functionals never touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from . import exactgeom
from .exactgeom import LatticePolytope, contains, convex_hull, dilate
from .polyrep import (
    AnyPolynomial,
    FormalPower,
    GroupElement,
    OnePSG,
    act,
    random_unimodular,
    support,
)

__all__ = [
    "PairSpec",
    "StabilityVerdict",
    "simplex_qn",
    "weight_polytope",
    "ops_weight",
    "semistable_diagonal",
    "semistable_probe",
    "module_degree",
    "stable_search",
    "separating_functionals",
    "verify_witness",
]

CERTIFIED = "semistable-certified-on-diagonal-torus"
DESTABILIZED = "destabilized"
STABLE = "stable-with-exponent"


@dataclass(frozen=True)
class PairSpec:
    """A pair (v, w) with its ambient column dimension and module degrees."""

    v: AnyPolynomial
    w: AnyPolynomial
    ambient: int
    degree_v: int
    degree_w: int

    @staticmethod
    def of(v: AnyPolynomial, w: AnyPolynomial) -> "PairSpec":
        if v.is_zero or w.is_zero:
            raise ValueError("pair components must be nonzero")
        if v.shape.cols != w.shape.cols:
            raise ValueError("pair components must share the ambient dimension")
        return PairSpec(v=v, w=w, ambient=v.shape.cols,
                        degree_v=module_degree(v), degree_w=module_degree(w))


@dataclass
class StabilityVerdict:
    status: str
    trials: int
    witness: Optional[tuple] = None  # (GroupElement, OnePSG)
    exponent: Optional[int] = None

    @property
    def destabilized(self) -> bool:
        return self.status == DESTABILIZED


@lru_cache(maxsize=None)
def simplex_qn(ambient: int) -> LatticePolytope:
    """Weight polytope of the identity operator, in sum-zero coordinates.

    Vertices are e_i - (1, ..., 1)/(N+1); the origin is its barycenter and
    lies in the strict interior.  Under any basis change the left regular
    factor keeps every row character, so this polytope is the same for all
    maximal tori.
    """
    verts = []
    for i in range(ambient):
        v = [Fraction(-1, ambient)] * ambient
        v[i] += 1
        verts.append(tuple(v))
    return convex_hull(verts)


def weight_polytope(p: AnyPolynomial) -> LatticePolytope:
    """Hull of the projected (sum-zero) torus characters of p."""
    if isinstance(p, FormalPower):
        return dilate(weight_polytope(p.base), p.exponent)
    pts = [c.projected() for c in support(p)]
    return convex_hull(pts)


def _weights(p: AnyPolynomial, lams: list) -> list:
    """min over the support of p of <a, lam>, for each lam in turn; exact.

    Raw and projected characters give the same value because lam sums to
    zero.  Formal powers scale the weights by their exponent.
    """
    if isinstance(p, FormalPower):
        return [p.exponent * x for x in _weights(p.base, lams)]
    chars = support(p)
    return [min(c.pair(lam) for c in chars) for lam in lams]


def ops_weight(p: AnyPolynomial, lam: OnePSG):
    """min over the support of p of <a, lam>; exact."""
    if not isinstance(lam, OnePSG):
        lam = OnePSG(tuple(lam))
    return _weights(p, [lam])[0]


def semistable_diagonal(pair: PairSpec) -> bool:
    """Exact weight-polytope containment N(v) <= N(w) at the diagonal torus."""
    return all(wv >= ww for _lam, wv, ww in _weight_table(pair.v, pair.w))


def _project_primitive(vec, ambient: int) -> tuple:
    """Project a rational vector to the sum-zero lattice, primitively scaled."""
    fr = [Fraction(x) for x in vec]
    total = sum(fr)
    shifted = [x * ambient - total for x in fr]
    if all(x == 0 for x in shifted):
        raise ValueError("functional is trivial on the sum-zero hyperplane")
    return exactgeom._primitive(shifted)


def separating_functionals(polytope: LatticePolytope) -> list:
    """Finite certificate set for containment in `polytope`.

    Facet normals plus both signs of each affine-hull equality normal,
    projected to primitive sum-zero integer vectors.  A polytope Q lies in
    `polytope` iff min over Q >= min over `polytope` for every one of these.
    """
    equalities, inequalities = polytope.halfspaces()
    normals = [[sign * x for x in n] for n, _c in equalities for sign in (1, -1)]
    lams, seen = [], set()
    for vec in normals + [u for u, _c in inequalities]:
        try:
            lam = _project_primitive(vec, polytope.dim)
        except ValueError:
            continue
        if lam not in seen:
            seen.add(lam)
            lams.append(OnePSG(lam))
    return lams


def _weight_table(v: AnyPolynomial, w: AnyPolynomial) -> list:
    """(lam, weight of v, weight of w) for each lam certifying containment in N(w).

    N(v) <= N(w) exactly when no row has weight of v below weight of w; the
    rows follow `separating_functionals`, so the first failing one is a
    deterministic witness.  Only N(w) is hulled.
    """
    lams = separating_functionals(weight_polytope(w))
    return list(zip(lams, _weights(v, lams), _weights(w, lams)))


def _acted_pair(pair: PairSpec, g: GroupElement):
    return act(g, pair.v), act(g, pair.w)


def _probe_trial(pair: PairSpec, g: GroupElement) -> Optional[OnePSG]:
    """The first functional destabilizing the pair conjugated by g, or None."""
    table = _weight_table(*_acted_pair(pair, g))
    return next((lam for lam, wv, ww in table if wv < ww), None)


def semistable_probe(pair: PairSpec, trials: int = 20, rng_seed=0) -> StabilityVerdict:
    """Exact diagonal certification plus randomized conjugate-torus probing.

    Trial 0 is the identity (the diagonal torus itself); the remaining
    trials act by random integer unimodular matrices, so every verdict is
    an exact weight computation.  Trials run in index order and the
    first destabilizer stops the probe; all trial seeds are spawned up
    front, so trial i acts by the same element however many trials run.
    A returned witness (g, lam) satisfies
    ops_weight(act(g, v), lam) < ops_weight(act(g, w), lam).
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    seeds = np.random.SeedSequence(rng_seed).spawn(trials)
    for idx in range(trials):
        g = (GroupElement.identity(pair.ambient) if idx == 0 else
             random_unimodular(pair.ambient, np.random.default_rng(seeds[idx])))
        lam = _probe_trial(pair, g)
        if lam is None:
            continue
        if not verify_witness(pair, g, lam)["valid"]:  # pragma: no cover - exact arithmetic
            raise ArithmeticError("destabilizing witness failed re-verification")
        return StabilityVerdict(status=DESTABILIZED, trials=idx + 1, witness=(g, lam))
    return StabilityVerdict(status=CERTIFIED, trials=trials)


def verify_witness(pair: PairSpec, g: GroupElement, lam: OnePSG) -> dict:
    """Independent recomputation of a destabilizing witness."""
    v_g, w_g = _acted_pair(pair, g)
    weight_v = ops_weight(v_g, lam)
    weight_w = ops_weight(w_g, lam)
    return {"weight_v": weight_v, "weight_w": weight_w,
            "valid": weight_v < weight_w}


def module_degree(p: AnyPolynomial, generic: bool = False) -> int:
    """Degree of the ambient module of homogeneous polynomials containing p.

    For the module of all homogeneous polynomials of total degree D on a
    matrix space, the smallest positive k with every weight polytope inside
    k times the standard simplex is max(D, 1): a single-column monomial
    attains the bound.  With generic=True the value is recomputed from the
    full module polytope by exact containment sweep and must agree.
    """
    if p.is_zero:
        raise ValueError("zero polynomial spans no module")
    total = p.degree
    cols = p.shape.cols
    closed = max(total, 1)
    if generic:
        qn = simplex_qn(cols)
        pts = []
        for comb in combinations_with_replacement(range(cols), total):
            degs = [0] * cols
            for c in comb:
                degs[c] += 1
            shift = Fraction(total, cols)
            pts.append(tuple(Fraction(d) - shift for d in degs))
        module_polytope = convex_hull(pts)
        k = 1
        while not contains(dilate(qn, k), module_polytope):
            k += 1
            if k > total + 1:  # pragma: no cover
                raise ArithmeticError("module degree sweep exceeded bound")
        if k != closed:
            raise ArithmeticError(
                f"generic module degree {k} disagrees with closed form {closed}")
    return closed


def stable_search(pair: PairSpec, q: int, m_max: int = 50,
                  scheme: str = "m:m+1", probe_trials: int = 0,
                  rng_seed=0) -> Optional[int]:
    """Smallest twist exponent m making the identity-padded pair semistable.

    scheme "m:m+1" tests q*Q + m*N(v) <= (m+1)*N(w); scheme "m-1:m" tests
    the shifted variant q*Q + (m-1)*N(v) <= m*N(w).  Both exponent layouts
    appear in the source definitions and are kept behind this flag rather
    than reconciled.  A dilate of N(w) keeps its facet normals, so each test
    reads the weights over N(w)'s certificate functionals: with k = m (resp.
    m - 1), q*min(lam) + k*weight(v) >= (k+1)*weight(w) on every row, where
    min(lam) is the minimum of lam over Q on any torus.  The sweep is linear
    in m because the criterion is not monotone in m a priori.  Each diagonal
    success is cross-checked on conjugate tori (probe_trials random integer
    ones) and rejected on any failure.
    """
    if q < 1:
        raise ValueError("identity padding exponent q must be >= 1")
    if scheme not in ("m:m+1", "m-1:m"):
        raise ValueError(f"unknown exponent scheme {scheme!r}")

    seeds = np.random.SeedSequence(rng_seed).spawn(probe_trials)
    conjugators = [random_unimodular(pair.ambient, np.random.default_rng(s)) for s in seeds]

    def criterion(table: list, m: int) -> bool:
        k = m if scheme == "m:m+1" else m - 1
        return all(q * min(lam.exponents) + k * wv >= (k + 1) * ww
                   for lam, wv, ww in table)

    table = _weight_table(pair.v, pair.w)
    acted = None
    for m in range(1, m_max + 1):
        if not criterion(table, m):
            continue
        if acted is None:
            acted = [_weight_table(*_acted_pair(pair, g)) for g in conjugators]
        if all(criterion(t, m) for t in acted):
            return m
    return None
