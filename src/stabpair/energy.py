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
sides are estimated apart by L-BFGS on the moment-map gradient with seeded
restarts, never certified, over the entries of sigma in GL(n) divided by
det(sigma)^(1/n), so no exponential is taken; the moment map of sigma.P is
planned once per polynomial on polyrep's dense tensor-action basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import igusa
from .pairstab import PairSpec, module_degree
from .polyrep import (
    AnyPolynomial,
    FormalPower,
    GroupElement,
    OnePSG,
    SparsePolynomial,
    _coefficients,
    _column_degree_array,
    _complex,
    _group_element,
    _moment_plan,
    _monomial_weight,
    act,
    exact_gaussian_norm_sq,
    log_exact_gaussian_norm_sq,
)

__all__ = [
    "EnergyReport",
    "PropernessEstimate",
    "OrbitDistanceEstimate",
    "NuInfimumEstimate",
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
    if isinstance(p, SparsePolynomial):
        return log_exact_gaussian_norm_sq(p)
    return math.log(gaussian_norm_sq(p, samples=samples, seed=seed))


def gaussian_inner(p: SparsePolynomial, q: SparsePolynomial) -> complex:
    """Hermitian Gaussian inner product <P, Q> = sum c_P conj(c_Q) alpha!."""
    if not isinstance(p, SparsePolynomial) or not isinstance(q, SparsePolynomial):
        raise TypeError("inner products need sparse polynomials")
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    total = 0j
    for exps, c in p.terms.items():
        if exps in q.terms:
            total += complex(c) * complex(q.terms[exps]).conjugate() * _monomial_weight(exps)
    return total


# ---------------------------------------------------------------------------
# energies: the (w log-ratio, v log-ratio, trace term) triple, at a group
# element or along a diagonal ray, and nu and J formed from it
# ---------------------------------------------------------------------------

def _log_norm_ratio(p: AnyPolynomial, sigma: GroupElement, samples: int = 200_000,
                    seed=0) -> float:
    """log(||sigma.P||^2 / ||P||^2), linear through formal powers."""
    if isinstance(p, FormalPower):
        return p.exponent * _log_norm_ratio(p.base, sigma, samples, seed)
    return (log_gaussian_norm_sq(act(sigma, p), samples=samples, seed=seed)
            - log_gaussian_norm_sq(p, samples=samples, seed=seed))


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
    pairings = _column_degree_array(p) @ np.array(lam.exponents, dtype=np.int64)
    base = _logsumexp(masses)
    return np.array([_logsumexp(masses + 2.0 * pairings * lt) - base for lt in log_ts])


def _components(sigma: GroupElement, v: AnyPolynomial, w: Optional[AnyPolynomial] = None,
                ambient: Optional[int] = None, samples: int = 200_000, seed=0) -> tuple:
    """(w log-ratio, v log-ratio, trace term) at sigma, the trace term being
    log(Trace(sigma sigma*)/ambient).  A part whose input (w or ambient) is
    None is left out as None."""
    w_ratio = None if w is None else _log_norm_ratio(w, sigma, samples, seed)
    trace_term = None
    if ambient is not None:
        m = _complex(sigma)
        trace_term = math.log(float(np.real(np.trace(m @ m.conj().T))) / ambient)
    return w_ratio, _log_norm_ratio(v, sigma, samples, seed), trace_term


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
            samples: int = 200_000, seed=0) -> float:
    """nu(sigma) for the pair; exact for sparse data, sampled for black boxes."""
    parts = _components(_group_element(sigma), pair.v, pair.w, samples=samples, seed=seed)
    return _energies(parts)[0]


def j_aubin(v: AnyPolynomial, sigma: Union[GroupElement, np.ndarray],
            samples: int = 200_000, seed=0) -> float:
    """J_v(sigma) = deg log(Trace(sigma sigma*)/(N+1)) - log ||sigma.v||^2/||v||^2,
    with deg the module degree of v and N+1 its column count."""
    parts = _components(_group_element(sigma), v, ambient=v.shape.cols,
                        samples=samples, seed=seed)
    return _energies(parts, module_degree(v))[1]


def energy_report(pair: PairSpec, sigma: Union[GroupElement, np.ndarray],
                  samples: int = 200_000, seed=0) -> EnergyReport:
    sigma = _group_element(sigma)
    parts = _components(sigma, pair.v, pair.w, pair.ambient, samples, seed)
    nu, j = _energies(parts, pair.degree_v)
    return EnergyReport(sigma=sigma, nu=nu, j=j, components=parts)


def nu_along_ray(pair: PairSpec, lam: OnePSG, ts: Sequence[float]) -> np.ndarray:
    """nu(lam(t)) for each |t|, computed stably in log space."""
    return _energies(_ray_components(lam, ts, pair.v, pair.w))[0]


def j_along_ray(v: AnyPolynomial, lam: OnePSG, ts: Sequence[float]) -> np.ndarray:
    """J_v(lam(t)) for each |t| (trace term summed exactly in log space)."""
    parts = _ray_components(lam, ts, v, ambient=len(lam.exponents))
    return _energies(parts, module_degree(v))[1]


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
    violated_at: Optional[GroupElement] = None  # None past the float range, see `ray`
    min_margin: float = math.inf
    violation_value: Optional[tuple] = None  # (nu, j) at the violation
    ray: Optional[tuple] = None  # (lam, t) at a violation on a diagonal ray


def _random_sum_zero(rng, n: int) -> OnePSG:
    lam = [int(x) for x in rng.integers(-3, 4, size=n)]
    lam[-1] -= sum(lam)
    if all(x == 0 for x in lam):
        lam[0] += 1
        lam[-1] -= 1
    return OnePSG(tuple(lam))


def _is_normal_power(log10_x: float) -> bool:
    """Whether 10^log10_x is a positive normal float."""
    return math.log10(np.finfo(float).tiny) <= log10_x <= math.log10(np.finfo(float).max)


def _check_decades(decades) -> None:
    """Raise a ValueError naming decades unless 10^-decades is a positive normal float."""
    if not _is_normal_power(-decades):
        raise ValueError(f"decades must keep 10^-decades a positive normal float, not {decades}")


def properness_probe(pair: PairSpec, epsilon: float, b: float,
                     samples: int = 200, rng_seed=0,
                     decades: int = 6) -> PropernessEstimate:
    """Search for violations of nu >= epsilon * J + b.

    Samples diagonal one-parameter rays with |t| sweeping the requested
    decades in log space, plus random conjugated rays at moderate |t|.
    Stops at the first violation (which re-verifies by direct recomputation)
    or reports the minimal margin seen.  A diagonal violation also reports
    its ray (lam, t); its group element lam(t) is None when some t^e is not
    a positive normal float."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_decades(decades)
    rng = np.random.default_rng(rng_seed)
    n = pair.ambient
    min_margin = math.inf
    for k in range(samples):
        lam = _random_sum_zero(rng, n)
        if k % 2:  # conjugated
            t = 10.0 ** rng.uniform(-3, -0.3)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q = np.linalg.qr(g)[0]
            sigma = GroupElement(q @ lam.matrix(t) @ q.conj().T)
            nu, j = _energies(_components(sigma, pair.v, pair.w, n), pair.degree_v)
        else:
            t = 10.0 ** rng.uniform(-decades, -0.3)
            nu, j = (float(x[0]) for x in _pair_along_ray(pair, lam, [t]))
            sigma = None  # lam(t), formed only at a violation
        margin = nu - epsilon * j - b
        min_margin = min(min_margin, margin)
        if margin < 0:
            if sigma is None and all(_is_normal_power(e * math.log10(t)) for e in lam.exponents):
                sigma = GroupElement(lam.matrix(t))
            return PropernessEstimate(epsilon=epsilon, b=b, samples=k + 1, violated_at=sigma,
                                      min_margin=margin, violation_value=(nu, j),
                                      ray=None if k % 2 else (lam, t))
    return PropernessEstimate(epsilon=epsilon, b=b, samples=samples, min_margin=min_margin)


# ---------------------------------------------------------------------------
# optimization over the group: L-BFGS on the moment-map gradient
# ---------------------------------------------------------------------------

def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use so that commands which
    never optimize do not pay for loading scipy.optimize."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _gl(params, n: int) -> tuple:
    """(sigma, complex log det sigma) for the n x n matrix sigma with entries, row by
    row, params[:n^2] + i params[n^2:].  A singular sigma is a float failure."""
    sigma = (params[:n * n] + 1j * params[n * n:]).reshape(n, n)
    sign, log_abs = np.linalg.slogdet(sigma)
    if sign == 0:
        raise FloatingPointError("sigma is singular")
    return sigma, log_abs + np.log(sign)


def _pairing(plan: tuple, q: np.ndarray, r: np.ndarray) -> tuple:
    """(<Q, R>, M), M[k, l] = <D_kl Q, R>, from Q and R on one plan's basis
    by one gather and one einsum.  D_kl = sum over rows of x_{row,k}
    d/dx_{row,l}, how E_kl acts, maps x^a to a_{row,l} x^(a + e_{row,k} -
    e_{row,l}); d||(1 + tE).Q||^2/dt = 2 Re sum E_kl M_kl at t = 0 if R = Q."""
    _, weights, targets, factors = plan
    dual = np.conj(r) * weights
    return q @ dual, np.einsum("trl,trkl->kl", q[:, None, None] * factors, dual[targets])


def _gradient(sigma: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Gradient in params, for sigma = _gl(params, n)[0], of a function whose derivative
    along (1 + tE) sigma is 2 Re sum E_kl m_kl: as E = d sigma sigma^-1, it is G = 2 m
    sigma^-T, returned as (Re G, -Im G)."""
    g = 2.0 * np.linalg.solve(sigma, m.T).T
    if not np.isfinite(g).all():
        raise FloatingPointError("sigma^-1 overflows")
    return np.concatenate([g.real.ravel(), -g.imag.ravel()])


def _nu_objective(pair: PairSpec):
    """params -> (nu, its gradient) at sigma / det(sigma)^(1/n), sigma = _gl(params, n)[0].
    A side B^(x)e (e = 1 unless a formal power) adds +-e times log(||sigma.B||^2/||B||^2)
    - (deg B/n) log|det sigma|^2 and the moment map M/||sigma.B||^2 - (deg B/n) I of
    sigma.B; constants are fixed by the group and add nothing; plans are built here."""
    n = pair.ambient
    sides = [(sign * p.exponent, p.base) if isinstance(p, FormalPower) else (sign, p)
             for sign, p in ((1, pair.w), (-1, pair.v))]
    if not all(isinstance(b, SparsePolynomial) for _, b in sides):
        raise ValueError("nu infimum estimation needs sparse pairs or formal powers of them")
    shift = sum(e * b.degree for e, b in sides) / n
    sides = [(e, _moment_plan(b, n), log_gaussian_norm_sq(b)) for e, b in sides if b.degree > 0]

    def objective(params):
        sigma, log_det = _gl(params, n)
        value, m = -2 * shift * log_det.real, -shift * np.eye(n, dtype=complex)
        for e, plan, log_norm in sides:
            q = _coefficients(plan, sigma)
            norm, moment = _pairing(plan, q, q)
            value += e * (np.log(norm.real) - log_norm)
            m += e * moment / norm.real
        return value, _gradient(sigma, m)

    return objective


def _overlap_objective(v: SparsePolynomial, w: SparsePolynomial):
    """params -> (-log overlap, its gradient).  The halves of params give s1 and s2 by
    _gl (v and w are planned here, once); the overlap |<s1.v, s2.v>|^2 / ((||s1.v||^2 +
    ||s1.w||^2) ||s2.v||^2), s1 and s2 divided by det^(1/n), is the squared cosine of
    the distance from [(s1.v, s1.w)] to [(s2.v, 0)].  Scaling s2 leaves it as it is."""
    n = v.shape.cols
    pv, pw = _moment_plan(v, n), _moment_plan(w, n)
    shift = (w.degree - v.degree) / n

    def objective(params):
        (s1, log_det), (s2, _) = (_gl(half, n) for half in np.split(params, 2))
        v1, v2 = _coefficients(pv, s1), _coefficients(pv, s2)
        # scaling s1 by c weights s1.w against s1.v by |c|^(2 deg w - 2 deg v)
        w1 = _coefficients(pw, s1) * np.exp(-shift * log_det.real)
        inner, mixed = _pairing(pv, v1, v2)
        (a_v, m_v), (a_w, m_w), (b, m_b) = (_pairing(plan, q, q) for plan, q in
                                            ((pv, v1), (pw, w1), (pv, v2)))
        a, b = (a_v + a_w).real, b.real
        value = np.log(a) + np.log(b) - np.log(abs(inner) ** 2)
        # <D_kl s2.v, s1.v> = conj(mixed[l, k]): D_kl and D_lk are adjoint
        g1 = (m_v + m_w) / a - mixed / inner - shift * a_w.real / a * np.eye(n)
        g2 = m_b / b - mixed.conj().T / np.conj(inner)
        return value, np.concatenate([_gradient(s1, g1), _gradient(s2, g2)])

    return objective


def _restart_points(n: int, copies: int, restarts: int, seed) -> np.ndarray:
    """Starting params of `copies` matrices, one row each: the identity, then I + z per
    restart, z traceless with first n^2 - 1 entries x[:n^2-1] + i x[n^2-1:], row by row,
    for each block x of the restart's own seeded draw, so any order gives the same set."""
    dim = 2 * (n * n - 1) * copies
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(restarts))
    draws = [np.zeros(dim)] + [rng.standard_normal(dim) * rng.uniform(0.2, 1.5) for rng in rngs]
    re, im = np.reshape(draws, (-1, 2, n * n - 1)).transpose(1, 0, 2)
    z = np.pad(re + 1j * im, ((0, 0), (0, 1))).reshape(-1, n, n)
    z[:, -1, -1] = -np.trace(z, axis1=1, axis2=2)
    z += np.eye(n)
    return np.stack([z.real, z.imag], axis=1).reshape(restarts + 1, -1)


def _descend(objective, n: int, copies: int, restarts: int, seed, maxiter: int) -> tuple:
    """(best value, its params, stabilized): L-BFGS on objective(params) ->
    (value, gradient) over the entries of `copies` matrices in GL(n), as _gl
    reads them, from the identity and each seeded restart point.

    A trial point where a float overflows, sigma is singular or sigma.P
    underflows to zero is rejected as +inf.  A run reports the best point it
    evaluated, as L-BFGS-B can end on a failed line search's last trial; it
    must beat the best by 1e-9, so ties keep the earliest.  Still improving
    in the last quarter of the restarts is not stabilized."""
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, not {restarts}")
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, not {maxiter}")
    best_params, *starts = _restart_points(n, copies, restarts, seed)
    run = [math.inf, best_params]  # the best (value, params) of the current run

    def guarded(params):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                value, grad = objective(params)
        except FloatingPointError:
            return math.inf, np.zeros_like(params)
        if value < run[0]:
            run[:] = float(value), params.copy()
        return value, grad

    best, last_improvement = float(guarded(best_params)[0]), 0
    for idx, start in enumerate(starts, 1):
        run[0] = math.inf
        minimize(guarded, start, jac=True, method="L-BFGS-B", options={"maxiter": maxiter})
        if run[0] < best - 1e-9:
            best, best_params, last_improvement = run[0], run[1], idx
    return best, best_params, last_improvement <= max(1, (3 * restarts) // 4)


class NuInfimumEstimate(NamedTuple):
    value: float
    sigma: GroupElement
    stabilized: bool  # False: still improving when the restarts ran out


def nu_infimum(pair: PairSpec, restarts: int = 20, seed=0,
               maxiter: int = 300) -> NuInfimumEstimate:
    """Descended estimate of inf nu over the group (never a certificate) and a
    sigma of determinant 1 reaching it; sparse pairs and formal powers of them
    only, as black boxes have neither exact norms nor a gradient."""
    n = pair.ambient
    value, params, stabilized = _descend(_nu_objective(pair), n, 1, restarts, seed, maxiter)
    sigma, log_det = _gl(params, n)
    return NuInfimumEstimate(value, GroupElement(sigma / np.exp(log_det / n)), stabilized)


@dataclass
class OrbitDistanceEstimate:
    distance: float
    log_tan_sq: float
    restarts: int
    best_overlap: float  # squared cosine of the distance
    stabilized: bool = True  # False: still improving when the budget ran out


def orbit_distance(pair: PairSpec, restarts: int = 30, seed=0,
                   maxiter: int = 400) -> OrbitDistanceEstimate:
    """Estimated Fubini-Study distance between the orbit closures of
    [(v, w)] and [(v, 0)], with v and w scaled to unit length.

    Maximizes the overlap over two independent group elements (one moving
    the pair point, one moving the v-only point); an estimate from above,
    never a certificate.  The companion value log tan^2(distance) is the
    quantity the nu infimum is compared against.
    """
    if not isinstance(pair.v, SparsePolynomial) or not isinstance(pair.w, SparsePolynomial):
        raise ValueError("orbit distance estimation needs expanded sparse pairs")
    objective = _overlap_objective(*(p * (1.0 / math.sqrt(gaussian_norm_sq(p)))
                                     for p in (pair.v, pair.w)))
    value, _, stabilized = _descend(objective, pair.ambient, 2, restarts, seed, maxiter)
    best = min(max(math.exp(-value), 0.0), 1.0)
    distance = math.acos(math.sqrt(best))
    log_tan_sq = -math.inf if distance == 0.0 else 2.0 * math.log(math.tan(distance))
    return OrbitDistanceEstimate(distance=distance, log_tan_sq=log_tan_sq,
                                 restarts=restarts, best_overlap=best,
                                 stabilized=stabilized)
