"""Semistability and stability of pairs of vectors via weight polytopes.

A pair (v, w) is numerically semistable at a maximal torus when the weight
polytope of v is contained in the weight polytope of w; equivalently, when
min <a, lam> over the support of v is >= the same minimum for w, for every
integer sum-zero functional lam.  (Containment in a smaller set can only
raise a minimum, and a separating facet normal certifies failure.)  The
support is the set of column-degree tuples a of the terms, <a, lam> is
`OnePSG.pair`, and the weight polytope is the hull of the support
projected to the sum-zero hyperplane, where lam pairs the same.  Every
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
from typing import Optional

import numpy as np

from . import exactgeom
from .exactgeom import LatticePolytope, convex_hull, dilate
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


@dataclass(frozen=True)
class PairSpec:
    """A pair (v, w) with its ambient column dimension and v's module degree."""

    v: AnyPolynomial
    w: AnyPolynomial
    ambient: int
    degree_v: int

    @staticmethod
    def of(v: AnyPolynomial, w: AnyPolynomial) -> "PairSpec":
        if v.is_zero or w.is_zero:
            raise ValueError("pair components must be nonzero")
        if v.shape.cols != w.shape.cols:
            raise ValueError("pair components must share the ambient dimension")
        return PairSpec(v=v, w=w, ambient=v.shape.cols, degree_v=module_degree(v))


@dataclass
class StabilityVerdict:
    status: str
    trials: int
    witness: Optional[tuple] = None  # (GroupElement, OnePSG)

    @property
    def destabilized(self) -> bool:
        return self.status == DESTABILIZED


def weight_polytope(p: AnyPolynomial) -> LatticePolytope:
    """Hull of the torus characters of p projected to the sum-zero hyperplane,
    where characters of different total degrees become comparable."""
    if isinstance(p, FormalPower):
        return dilate(weight_polytope(p.base), p.exponent)
    chars = support(p)
    shift = Fraction(p.degree, p.shape.cols)
    return convex_hull([tuple(d - shift for d in c) for c in chars])


def _weights(p: AnyPolynomial, lams: list) -> list:
    """min over the support of p of <a, lam>, for each lam in turn; exact.

    Raw and projected characters give the same value because lam sums to
    zero.  Formal powers scale the weights by their exponent.
    """
    if isinstance(p, FormalPower):
        return [p.exponent * x for x in _weights(p.base, lams)]
    chars = support(p)
    return [min(map(lam.pair, chars)) for lam in lams]


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
    deterministic witness.  Only N(w) is hulled, and the weights of w are
    read off its vertices, so each side's support is formed once.  The
    vertices are shifted back onto the lattice first, so the weights are
    integer sums; lam sums to zero, so the shift leaves them unchanged.
    """
    polytope = weight_polytope(w)
    lams = separating_functionals(polytope)
    shift = Fraction(w.degree, w.shape.cols)
    vertices = [tuple(int(x + shift) for x in vertex) for vertex in polytope.vertices]
    weights_w = [min(map(lam.pair, vertices)) for lam in lams]
    return list(zip(lams, _weights(v, lams), weights_w))


def _acted_pair(pair: PairSpec, g: GroupElement):
    return act(g, pair.v), act(g, pair.w)


def _probe_trial(pair: PairSpec, g: Optional[GroupElement]) -> Optional[OnePSG]:
    """The first functional destabilizing the pair conjugated by g, or None;
    for g None, the pair itself on the diagonal torus, with no act."""
    table = _weight_table(*(_acted_pair(pair, g) if g is not None else (pair.v, pair.w)))
    return next((lam for lam, wv, ww in table if wv < ww), None)


def semistable_probe(pair: PairSpec, trials: int = 20, rng_seed=0) -> StabilityVerdict:
    """Exact diagonal certification plus randomized conjugate-torus probing.

    Trial 0 is the identity (the diagonal torus itself, read without an
    act); the remaining trials act by random integer unimodular matrices,
    so every verdict is an exact weight computation.  Trials run in index
    order and the first destabilizer stops the probe; all trial seeds are
    spawned up front, so trial i acts by the same element however many
    trials run.
    A returned witness (g, lam) satisfies
    ops_weight(act(g, v), lam) < ops_weight(act(g, w), lam).
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    seeds = np.random.SeedSequence(rng_seed).spawn(trials)
    for idx in range(trials):
        g = (random_unimodular(pair.ambient, np.random.default_rng(seeds[idx])) if idx else
             GroupElement.identity(pair.ambient))
        lam = _probe_trial(pair, g if idx else None)
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


def module_degree(p: AnyPolynomial) -> int:
    """Degree of the ambient module of homogeneous polynomials containing p.

    For the module of all homogeneous polynomials of total degree D on a
    matrix space, the smallest positive k with every weight polytope inside
    k times the standard simplex is max(D, 1): a single-column monomial
    attains the bound.
    """
    if p.is_zero:
        raise ValueError("zero polynomial spans no module")
    return max(p.degree, 1)


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
    if m_max < 1:
        raise ValueError("twist exponent bound m_max must be >= 1")
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
