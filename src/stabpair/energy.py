"""Finite-dimensional energy functionals of pairs under the group action.

For a pair (v, w) with Hermitian norms and a group element sigma,

    nu(sigma) = log ||sigma.w||^2/||w||^2 - log ||sigma.v||^2/||v||^2
    J_v(sigma) = deg(V) log(||sigma||^2/(N+1)) - log ||sigma.v||^2/||v||^2

with ||sigma||^2 = Trace(sigma sigma*).  The norm everywhere is the
Gaussian L2 norm E|P(Z)|^2 (monomials orthogonal, squared norms given by
factorials): it is unitarily invariant, exact on sparse polynomials, and
is the same normalization the zeta-function module integrates against, so
energies and heights share one metric.  The textbook L2 norm on projective
space differs by a degree-dependent constant that cancels in every ratio
used here.

nu is bounded below exactly when the pair is semistable, and the infimum
equals log tan^2 of the Fubini-Study distance between the orbit closures
of [(v, w)] and [(v, 0)] once v and w are scaled to unit length.  Both
sides of that identity are estimated here, independently, by optimization
over group parameters; the results are estimates, never certificates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import igusa
from .pairstab import PairSpec, module_degree
from .polyrep import (
    AnyPolynomial,
    FormalPower,
    GroupElement,
    OnePSG,
    SparsePolynomial,
    _column_degrees,
    _complex,
    _group_element,
    _monomial_weight,
    act,
    exact_gaussian_norm_sq,
)

__all__ = [
    "EnergyReport",
    "PropernessEstimate",
    "OrbitDistanceEstimate",
    "gaussian_norm_sq",
    "log_gaussian_norm_sq",
    "gaussian_inner",
    "nu_pair",
    "energy_report",
    "j_aubin",
    "nu_along_ray",
    "j_along_ray",
    "properness_probe",
    "nu_infimum",
    "orbit_distance",
]


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def gaussian_norm_sq(p: AnyPolynomial, samples: int = 200_000, seed=0) -> float:
    """Squared Gaussian L2 norm E|P(Z)|^2.

    Exact factorial sum for sparse polynomials; Monte Carlo mean for black
    boxes (use igusa.mc_moment directly when the standard error matters).
    Formal powers are rejected here: their norms only exist in log space.
    """
    if isinstance(p, FormalPower):
        raise ValueError("formal powers have log-norms only; "
                         "use log_gaussian_norm_sq")
    if isinstance(p, SparsePolynomial):
        return float(exact_gaussian_norm_sq(p))
    return igusa.mc_moment(p, 1.0, samples=samples, seed=seed).mean


def log_gaussian_norm_sq(p: AnyPolynomial, samples: int = 200_000, seed=0) -> float:
    """log E|P(Z)|^2, scaling linearly through formal tensor powers."""
    if isinstance(p, FormalPower):
        return p.exponent * log_gaussian_norm_sq(p.base, samples=samples, seed=seed)
    return math.log(gaussian_norm_sq(p, samples=samples, seed=seed))


def gaussian_inner(p: SparsePolynomial, q: SparsePolynomial) -> complex:
    """Hermitian Gaussian inner product <P, Q> = sum c_P conj(c_Q) alpha!."""
    if not isinstance(p, SparsePolynomial) or not isinstance(q, SparsePolynomial):
        raise TypeError("inner products need sparse polynomials")
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    total = 0j
    for exps, c in p.terms.items():
        other = q.terms.get(exps)
        if other is not None:
            total += complex(c) * complex(other).conjugate() * _monomial_weight(exps)
    return total


# ---------------------------------------------------------------------------
# energies: the (w log-ratio, v log-ratio, trace term) triple, at a group
# element or along a diagonal ray, and nu and J formed from it
# ---------------------------------------------------------------------------

def _log_norm_ratio(p: AnyPolynomial, sigma: GroupElement, samples: int = 200_000,
                    seed=0, base_log_norm: Optional[float] = None) -> float:
    """log(||sigma.P||^2 / ||P||^2), linear through formal powers; a caller
    acting on P many times passes log ||B||^2 of its base B once computed."""
    if isinstance(p, FormalPower):
        return p.exponent * _log_norm_ratio(p.base, sigma, samples, seed, base_log_norm)
    if base_log_norm is None:
        base_log_norm = log_gaussian_norm_sq(p, samples=samples, seed=seed)
    return log_gaussian_norm_sq(act(sigma, p), samples=samples, seed=seed) - base_log_norm


def _base_log_norm(p: AnyPolynomial) -> float:
    """log ||B||^2 of the base B of P (P itself unless a formal power)."""
    while isinstance(p, FormalPower):
        p = p.base
    return log_gaussian_norm_sq(p)


def _logsumexp(arr: np.ndarray) -> float:
    m = float(np.max(arr))
    return m + math.log(float(np.sum(np.exp(arr - m))))


def _ray_log_norm_ratio(p: AnyPolynomial, lam: OnePSG, log_ts: list) -> np.ndarray:
    """log(||lam(t).P||^2/||P||^2) at each log|t| in log_ts, by logsumexp over
    the terms (overflow-free); linear through formal powers."""
    if isinstance(p, FormalPower):
        return p.exponent * _ray_log_norm_ratio(p.base, lam, log_ts)
    if not isinstance(p, SparsePolynomial):
        raise ValueError("ray profiles need sparse polynomials (or powers of them)")
    masses = np.array([2 * math.log(abs(complex(c))) + math.log(_monomial_weight(exps))
                       for exps, c in p.terms.items()])
    pairings = np.array([lam.pair(_column_degrees(exps))
                         for exps in p.terms], dtype=float)
    base = _logsumexp(masses)
    return np.array([_logsumexp(masses + 2.0 * pairings * lt) - base for lt in log_ts])


def _components(sigma: GroupElement, v: AnyPolynomial, w: Optional[AnyPolynomial] = None,
                ambient: Optional[int] = None, samples: int = 200_000, seed=0,
                base_log_norms: tuple = (None, None)) -> tuple:
    """(w log-ratio, v log-ratio, trace term) at sigma, the trace term being
    log(Trace(sigma sigma*)/ambient).  A part whose input (w or ambient) is
    None is left out as None; `base_log_norms` are those of (w, v), if known."""
    w_norm, v_norm = base_log_norms
    w_ratio = None if w is None else _log_norm_ratio(w, sigma, samples, seed, w_norm)
    trace_term = None
    if ambient is not None:
        m = _complex(sigma)
        trace_term = math.log(float(np.real(np.trace(m @ m.conj().T))) / ambient)
    return w_ratio, _log_norm_ratio(v, sigma, samples, seed, v_norm), trace_term


def _ray_components(lam: OnePSG, ts: Sequence[float], v: AnyPolynomial,
                    w: Optional[AnyPolynomial] = None,
                    ambient: Optional[int] = None) -> tuple:
    """The same triple as arrays over |t| in ts along lam(t), in log space
    (the trace is summed exactly), with the same None convention."""
    log_ts = [math.log(abs(t)) for t in ts]
    w_ratio = None if w is None else _ray_log_norm_ratio(w, lam, log_ts)
    trace_term = None
    if ambient is not None:
        trace_term = np.array([_logsumexp(np.array([2.0 * e * lt for e in lam.exponents]))
                               - math.log(ambient) for lt in log_ts])
    return w_ratio, _ray_log_norm_ratio(v, lam, log_ts), trace_term


def _energies(components: tuple, degree: Optional[int] = None) -> tuple:
    """(nu, J) from the triple: nu = w-ratio - v-ratio, J = deg * trace - v-ratio.

    Either is None when the part it needs was left out."""
    w_ratio, v_ratio, trace_term = components
    nu = None if w_ratio is None else w_ratio - v_ratio
    j = None if trace_term is None else degree * trace_term - v_ratio
    return nu, j


@dataclass
class EnergyReport:
    sigma: GroupElement
    nu: float
    j: float
    components: tuple  # (w log-ratio, v log-ratio, trace term)


def nu_pair(pair: PairSpec, sigma: Union[GroupElement, np.ndarray],
            samples: int = 200_000, seed=0, base_log_norms: tuple = (None, None)) -> float:
    """nu(sigma) for the pair; exact for sparse data, sampled for black boxes.
    `base_log_norms` are log ||w||^2 and log ||v||^2 (of the bases of formal
    powers), when already known."""
    parts = _components(_group_element(sigma), pair.v, pair.w, samples=samples, seed=seed,
                        base_log_norms=base_log_norms)
    return _energies(parts)[0]


def j_aubin(v: AnyPolynomial, sigma: Union[GroupElement, np.ndarray],
            degree: Optional[int] = None, ambient: Optional[int] = None,
            samples: int = 200_000, seed=0) -> float:
    """J_v(sigma) = deg log(Trace(sigma sigma*)/(N+1)) - log ||sigma.v||^2/||v||^2."""
    if degree is None:
        degree = module_degree(v)
    if ambient is None:
        ambient = v.shape.cols
    parts = _components(_group_element(sigma), v, ambient=ambient, samples=samples, seed=seed)
    return _energies(parts, degree)[1]


def energy_report(pair: PairSpec, sigma: Union[GroupElement, np.ndarray],
                  samples: int = 200_000, seed=0) -> EnergyReport:
    sigma = _group_element(sigma)
    parts = _components(sigma, pair.v, pair.w, pair.ambient, samples, seed)
    nu, j = _energies(parts, pair.degree_v)
    return EnergyReport(sigma=sigma, nu=nu, j=j, components=parts)


def nu_along_ray(pair: PairSpec, lam: OnePSG, ts: Sequence[float]) -> np.ndarray:
    """nu(lam(t)) for each |t|, computed stably in log space."""
    return _energies(_ray_components(lam, ts, pair.v, pair.w))[0]


def j_along_ray(v: AnyPolynomial, lam: OnePSG, ts: Sequence[float],
                degree: Optional[int] = None) -> np.ndarray:
    """J_v(lam(t)) for each |t| (trace term summed exactly in log space)."""
    if degree is None:
        degree = module_degree(v)
    return _energies(_ray_components(lam, ts, v, ambient=len(lam.exponents)), degree)[1]


def _pair_along_ray(pair: PairSpec, lam: OnePSG, ts: Sequence[float]) -> tuple:
    """(nu, J) arrays along lam(t), sharing one ray profile of v."""
    return _energies(_ray_components(lam, ts, pair.v, pair.w, pair.ambient), pair.degree_v)


# ---------------------------------------------------------------------------
# properness probing
# ---------------------------------------------------------------------------

@dataclass
class PropernessEstimate:
    epsilon: float
    b: float
    samples: int
    violated_at: Optional[GroupElement] = None
    min_margin: float = math.inf
    violation_value: Optional[tuple] = None  # (nu, j) at the violation


def _random_sum_zero(rng, n: int) -> OnePSG:
    lam = [int(x) for x in rng.integers(-3, 4, size=n)]
    lam[-1] -= sum(lam)
    if all(x == 0 for x in lam):
        lam[0] += 1
        lam[-1] -= 1
    return OnePSG(tuple(lam))


def properness_probe(pair: PairSpec, epsilon: float, b: float,
                     samples: int = 200, rng_seed=0,
                     decades: int = 6) -> PropernessEstimate:
    """Search for violations of nu >= epsilon * J + b.

    Samples diagonal one-parameter rays with |t| sweeping the requested
    decades, plus random conjugated rays at moderate |t|.  Stops at the
    first violation (which re-verifies by direct recomputation) or reports
    the minimal margin seen.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(rng_seed)
    n = pair.ambient
    count = 0
    min_margin = math.inf
    for k in range(samples):
        lam = _random_sum_zero(rng, n)
        conjugated = bool(k % 2)
        if conjugated:
            t = 10.0 ** rng.uniform(-3, -0.3)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q = np.linalg.qr(g)[0]
            sigma_mat = q @ lam.matrix(t) @ q.conj().T
            sigma = GroupElement(sigma_mat)
            nu, j = _energies(_components(sigma, pair.v, pair.w, n), pair.degree_v)
        else:
            t = 10.0 ** rng.uniform(-decades, -0.3)
            sigma = GroupElement(lam.matrix(t))
            nu, j = (float(x[0]) for x in _pair_along_ray(pair, lam, [t]))
        count += 1
        margin = nu - epsilon * j - b
        min_margin = min(min_margin, margin)
        if margin < 0:
            return PropernessEstimate(epsilon=epsilon, b=b, samples=count,
                                      violated_at=sigma, min_margin=margin,
                                      violation_value=(nu, j))
    return PropernessEstimate(epsilon=epsilon, b=b, samples=count,
                              min_margin=min_margin)


# ---------------------------------------------------------------------------
# optimization over the group: nu infimum and orbit distance
# ---------------------------------------------------------------------------

def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use so that commands which
    never optimize do not pay for loading scipy.optimize."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _sl2_upper(params) -> np.ndarray:
    """diag(e^r, e^-r) . [[1, x+iy], [0, 1]]: every nu value on SL(2) is
    attained here because the left unitary factor drops out of all norms."""
    r, x, y = params
    er = math.exp(r)
    return np.array([[er, er * complex(x, y)], [0.0, 1.0 / er]], dtype=complex)


def _su2(params) -> np.ndarray:
    th, ph, ps = params
    a = math.cos(th) * cmath.exp(1j * ph)
    bb = math.sin(th) * cmath.exp(1j * ps)
    return np.array([[a, bb], [-bb.conjugate(), a.conjugate()]], dtype=complex)


def _sl_exp(params, n: int) -> np.ndarray:
    """exp of a traceless complex matrix; its closure fills SL(n, C)."""
    import scipy.linalg as sla

    half = n * n - 1
    entries = np.asarray(params[:half]) + 1j * np.asarray(params[half:])
    mat = np.append(entries, 0).reshape(n, n)
    mat[n - 1, n - 1] = -np.trace(mat)
    return sla.expm(mat)


def _nu_param_builder(n: int):
    if n == 2:
        return 3, lambda params: _sl2_upper(params)
    return 2 * (n * n - 1), lambda params: _sl_exp(params, n)


def _restart_points(dim: int, restarts: int, seed) -> list:
    """Deterministic per-restart starting points (independent seed streams,
    so any execution order reproduces the same set)."""
    seqs = np.random.SeedSequence(seed).spawn(restarts)
    points = []
    for sq in seqs:
        rng = np.random.default_rng(sq)
        points.append(rng.standard_normal(dim) * rng.uniform(0.2, 1.5))
    return points


def nu_infimum(pair: PairSpec, restarts: int = 20, seed=0,
               maxiter: int = 300) -> tuple:
    """Sampled/descended estimate of inf nu over the group (never a certificate).

    Returns (value, group element at the minimum); ties keep the earliest
    restart.
    """
    dim, build = _nu_param_builder(pair.ambient)
    norms = (_base_log_norm(pair.w), _base_log_norm(pair.v))

    def objective(params):
        try:
            return nu_pair(pair, build(params), base_log_norms=norms)
        except (ValueError, OverflowError):
            return math.inf

    best_val = nu_pair(pair, GroupElement.identity(pair.ambient))
    best_params = np.zeros(dim)
    for start in _restart_points(dim, restarts, seed):
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-7, "fatol": 1e-10})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_params = res.x
    return best_val, GroupElement(build(best_params))


@dataclass
class OrbitDistanceEstimate:
    distance: float
    log_tan_sq: float
    restarts: int
    best_overlap: float  # squared cosine of the distance
    stabilized: bool = True  # False: still improving when the budget ran out


def _unit_scaled(p: SparsePolynomial) -> SparsePolynomial:
    norm = math.sqrt(gaussian_norm_sq(p))
    return p * (1.0 / norm)


def orbit_distance(pair: PairSpec, restarts: int = 30, seed=0,
                   maxiter: int = 400) -> OrbitDistanceEstimate:
    """Estimated Fubini-Study distance between the orbit closures of
    [(v, w)] and [(v, 0)], with v and w scaled to unit length.

    Minimizes the pairwise point distance over two independent group
    elements (one moving the pair point, one moving the v-only point) by
    random restarts and local descent; an estimate from above, never a
    certificate.  The companion value log tan^2(distance) is the quantity
    the nu infimum is compared against.
    """
    if not isinstance(pair.v, SparsePolynomial) or not isinstance(pair.w, SparsePolynomial):
        raise ValueError("orbit distance estimation needs expanded sparse pairs")
    if pair.ambient > 4:
        raise ValueError("orbit distance optimization is supported for N+1 <= 4")
    v = _unit_scaled(pair.v)
    w = _unit_scaled(pair.w)
    n = pair.ambient

    # the v-only point moves as in nu_infimum; at n = 2 the pair point also
    # needs the unitary factor that nu drops
    dim1, build1 = dim2, build2 = _nu_param_builder(n)
    if n == 2:
        dim1 = 6

        def build1(params):
            return _su2(params[:3]) @ _sl2_upper(params[3:6])

    def overlap(params):
        s1 = GroupElement(build1(params[:dim1]))
        s2 = GroupElement(build2(params[dim1:]))
        v1 = act(s1, v)
        w1 = act(s1, w)
        v2 = act(s2, v)
        num = abs(gaussian_inner(v1, v2)) ** 2
        den = ((gaussian_norm_sq(v1) + gaussian_norm_sq(w1))
               * gaussian_norm_sq(v2))
        return num / den

    def objective(params):
        try:
            return -overlap(params)
        except (ValueError, OverflowError):
            return 0.0

    best = overlap(np.zeros(dim1 + dim2))
    last_improvement = 0
    for idx, start in enumerate(_restart_points(dim1 + dim2, restarts, seed)):
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-7, "fatol": 1e-12})
        if -res.fun > best + 1e-9:
            best = -float(res.fun)
            last_improvement = idx + 1
    best = min(max(best, 0.0), 1.0)
    distance = math.acos(math.sqrt(best))
    if distance == 0.0:
        log_tan_sq = -math.inf
    else:
        log_tan_sq = 2.0 * math.log(math.tan(distance))
    # an estimate still moving in the final quarter of the budget has not
    # stabilized; report it rather than fail
    stabilized = last_improvement <= max(1, (3 * restarts) // 4)
    return OrbitDistanceEstimate(distance=distance, log_tan_sq=log_tan_sq,
                                 restarts=restarts, best_overlap=best,
                                 stabilized=stabilized)
