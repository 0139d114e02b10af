"""Local zeta functions over the complex Gaussian, and heights of polynomials.

For a homogeneous P of degree d on a D-dimensional complex variable space,

    Z(P; s) = Gamma(D) / Gamma(D + d s) * E[ |P(Z)|^(2 s) ]

with Z a standard complex Gaussian (density exp(-|z|^2) / pi^D).  The
height of P is

    h(P) = -log Z(P; 1) + Z'(P; 0),      Z'(P; 0) = E[log |P(Z)|^2] - d psi(D),

where psi is the digamma function.  Moments are estimated by seeded,
sharded Monte Carlo with deterministic merging; monomials and maximal-minor
determinants additionally have closed forms through the gamma function.

Two closed-form conventions for determinant moments are implemented and
never reconciled: `standard`, prod_{k<=n} Gamma(s+k)/Gamma(k), matches the
direct Gaussian computation and the Monte Carlo oracle; `paper` carries an
extra (2 pi)^(-n s) and uses Gamma(2 s + k).  They disagree already at
n = 1, s = 1 (1 versus 1/pi); reports surface both.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .polyrep import (
    BlackBoxPolynomial,
    FormalPower,
    SparsePolynomial,
    exact_gaussian_norm_sq,
    gaussian_batch,
)

logger = logging.getLogger(__name__)

__all__ = [
    "EULER_GAMMA",
    "EvaluationError",
    "log_gamma",
    "digamma",
    "harmonic",
    "MomentEstimate",
    "ZetaEstimate",
    "HeightReport",
    "BoundsAudit",
    "DegenerationLimits",
    "mc_moment",
    "zeta",
    "zeta_det_closed",
    "log_zeta_det_closed",
    "zeta_det",
    "log_zeta_det",
    "zeta_det_prime_zero",
    "zeta_prime_zero",
    "height",
    "height_det_closed",
    "height_bounds_audit",
    "degeneration_limit_heights",
]

EULER_GAMMA = 0.5772156649015329

CONVENTIONS = ("standard", "paper")

# samples per Monte Carlo shard; each shard has its own spawned seed, so this
# size fixes the seeded sample streams and every seeded result
SHARD_SIZE = 1 << 16


class EvaluationError(RuntimeError):
    """Non-finite polynomial value met during Monte Carlo sampling."""


def log_gamma(x):
    """log Gamma, accurate to full double precision (vectorized).  scipy.special
    is imported on first use, so commands that never need it skip loading it."""
    from scipy.special import gammaln

    return gammaln(x)


def digamma(x):
    """Gamma'(x)/Gamma(x), accurate to full double precision (vectorized)."""
    from scipy.special import digamma as scipy_digamma

    return scipy_digamma(x)


def harmonic(k: int) -> Fraction:
    """Exact harmonic sum H_k = 1 + 1/2 + ... + 1/k (H_0 = 0)."""
    if k < 0:
        raise ValueError("harmonic index must be >= 0")
    total = Fraction(0)
    for j in range(1, k + 1):
        total += Fraction(1, j)
    return total


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

@dataclass
class _ShardStats:
    n: int = 0
    mean_x: float = 0.0
    mean_y: float = 0.0
    m2x: float = 0.0
    m2y: float = 0.0
    cxy: float = 0.0
    top: np.ndarray = field(default_factory=lambda: np.empty(0))
    resampled: int = 0


def _merge(a: _ShardStats, b: _ShardStats, top_k: int) -> _ShardStats:
    if a.n == 0:
        b.resampled += a.resampled
        return b
    if b.n == 0:
        a.resampled += b.resampled
        return a
    n = a.n + b.n
    dx = b.mean_x - a.mean_x
    dy = b.mean_y - a.mean_y
    out = _ShardStats(
        n=n,
        mean_x=a.mean_x + dx * b.n / n,
        mean_y=a.mean_y + dy * b.n / n,
        m2x=a.m2x + b.m2x + dx * dx * a.n * b.n / n,
        m2y=a.m2y + b.m2y + dy * dy * a.n * b.n / n,
        cxy=a.cxy + b.cxy + dx * dy * a.n * b.n / n,
        resampled=a.resampled + b.resampled,
    )
    merged = np.concatenate([a.top, b.top])
    if merged.size > top_k:
        merged = np.sort(merged)[-top_k:]
    out.top = merged
    return out


def _shard_stats(p, count: int, seed_seq, s: float, need_log: bool,
                 top_k: int, shard_index: int) -> _ShardStats:
    """Moments of one shard of `count` samples, drawn in a single batch."""
    # values past the float range are caught by the finiteness checks here
    # and on the callers' results, which raise named errors; numpy need not
    # warn first
    with np.errstate(over="ignore", invalid="ignore"):
        rng = np.random.default_rng(seed_seq)
        vals = p.evaluate_batch(gaussian_batch(p.shape, count, rng))
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise EvaluationError(f"non-finite value at shard {shard_index}, sample {bad}")
        sq = np.abs(vals) ** 2
        resampled = 0
        if need_log:
            # a value of exactly zero has probability zero; resample those
            # rows so the log stays finite, and record how many were redrawn
            for _ in range(100):
                zero = np.flatnonzero(sq == 0.0)
                if zero.size == 0:
                    break
                resampled += int(zero.size)
                vals_new = p.evaluate_batch(gaussian_batch(p.shape, int(zero.size), rng))
                if not np.all(np.isfinite(vals_new)):
                    raise EvaluationError(
                        f"non-finite value during resampling in shard {shard_index}")
                sq[zero] = np.abs(vals_new) ** 2
            else:
                raise EvaluationError(
                    f"persistent zero values in shard {shard_index}; "
                    "polynomial may vanish on a positive-measure set")
        x = sq if s == 1.0 else sq ** s
        y = np.log(sq) if need_log else np.zeros(0)
        k = min(top_k, count)
        return _ShardStats(
            n=count,
            mean_x=float(x.mean()),
            mean_y=float(y.mean()) if need_log else 0.0,
            m2x=float(((x - x.mean()) ** 2).sum()),
            m2y=float(((y - y.mean()) ** 2).sum()) if need_log else 0.0,
            cxy=float(((x - x.mean()) * (y - y.mean())).sum()) if need_log else 0.0,
            top=np.partition(x, count - k)[-k:] if k else np.empty(0),
            resampled=resampled,
        )


def _run_mc(p, s: float, need_log: bool, samples: int, seed,
            threads: int) -> _ShardStats:
    if samples < 2:
        raise ValueError("at least two samples required")
    top_k = max(1, samples // 1000)
    sizes = [SHARD_SIZE] * (samples // SHARD_SIZE)
    if samples % SHARD_SIZE:
        sizes.append(samples % SHARD_SIZE)
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    seqs = seq.spawn(len(sizes))

    def run(i):
        return _shard_stats(p, sizes[i], seqs[i], s, need_log, top_k, i)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(run, range(len(sizes))))
    else:
        shards = [run(i) for i in range(len(sizes))]
    total = _ShardStats()
    for sh in shards:  # merged in shard order: deterministic for any thread count
        total = _merge(total, sh, top_k)
    return total


@dataclass
class MomentEstimate:
    """Monte Carlo estimate of E[|P(Z)|^(2s)] with its standard error."""

    mean: float
    stderr: float
    s: float
    samples: int
    seed: object
    tail_share: float = 0.0
    tail_warning: bool = False


@dataclass
class ZetaEstimate:
    s: float
    value: float
    log_value: float
    stderr: float
    samples: int
    seed: object


@dataclass
class HeightReport:
    """Height h(P) = -log Z(P;1) + Z'(P;0), with the two parts kept visible."""

    h: float
    log_Z1: float
    Zprime0: float
    stderr: float
    ci_halfwidth: float
    method: str
    samples: int
    seed: object
    resampled: int = 0


def mc_moment(p, s: float, samples: int = 10**6, seed=0,
              threads: int = 1) -> MomentEstimate:
    """Sample mean and standard error of |P(Z)|^(2s) under the Gaussian.

    s = 0 short-circuits to exactly 1 without sampling.  Heavy-tailed
    integrands (s >= 2) report the mass share of the top 0.1% of samples
    and warn when it exceeds 20%.
    """
    if s < 0:
        raise ValueError("s must be >= 0 (no analytic continuation here)")
    if s == 0:
        return MomentEstimate(mean=1.0, stderr=0.0, s=0.0, samples=0, seed=seed)
    stats = _run_mc(p, float(s), False, samples, seed, threads)
    var = stats.m2x / (stats.n - 1)
    stderr = math.sqrt(var / stats.n)
    total_mass = stats.mean_x * stats.n
    tail_share = float(stats.top.sum() / total_mass) if total_mass > 0 else 0.0
    warn = bool(s >= 2 and tail_share > 0.2)
    if warn:
        logger.warning(
            "heavy tail: top 0.1%% of samples carries %.1f%% of E|P|^(2s) at s=%g",
            100 * tail_share, s)
    return MomentEstimate(mean=stats.mean_x, stderr=stderr, s=float(s),
                          samples=samples, seed=seed,
                          tail_share=tail_share, tail_warning=warn)


def _dims(p) -> tuple:
    d = p.degree
    D = p.shape.rows * p.shape.cols
    return d, D


def _log_gamma_norm(D: int, ds) -> float:
    """log Gamma(D) / Gamma(D + d s), the normalization of Z(P; s)."""
    return float(log_gamma(D) - log_gamma(D + ds))


def _sampled_zprime0(stats: _ShardStats, d: int, D: int) -> tuple:
    """Z'(P;0) = E[log|P(Z)|^2] - d psi(D) from the sampled log-moments,
    with the standard error of the sampled term."""
    value = stats.mean_y - d * float(digamma(D))
    return value, math.sqrt(stats.m2y / (stats.n - 1) / stats.n)


def zeta(p, s: float, samples: int = 10**6, seed=0, threads: int = 1) -> ZetaEstimate:
    """Gamma-normalized Gaussian moment Z(P;s) with propagated standard error."""
    d, D = _dims(p)
    if s == 0:
        return ZetaEstimate(s=0.0, value=1.0, log_value=0.0, stderr=0.0,
                            samples=0, seed=seed)
    moment = mc_moment(p, s, samples=samples, seed=seed, threads=threads)
    factor = math.exp(_log_gamma_norm(D, d * s))
    value = factor * moment.mean
    return ZetaEstimate(s=float(s), value=value, log_value=math.log(value),
                        stderr=factor * moment.stderr, samples=samples, seed=seed)


def zeta_prime_zero(p, samples: int = 10**6, seed=0, threads: int = 1):
    """Z'(P;0) = E[log|P(Z)|^2] - d psi(D); (value, stderr of the sampled term)."""
    d, D = _dims(p)
    return _sampled_zprime0(_run_mc(p, 1.0, True, samples, seed, threads), d, D)


# ---------------------------------------------------------------------------
# closed forms: monomials and determinants
# ---------------------------------------------------------------------------

def _monomial_exponents(p: SparsePolynomial):
    if isinstance(p, SparsePolynomial) and len(p.terms) == 1:
        exps = next(iter(p.terms))
        return [e for row in exps for e in row]
    return None


def height_monomial_closed(p: SparsePolynomial, seed=0) -> HeightReport:
    """Exact height of a monomial c * z^alpha through gamma and digamma.

    E|z^alpha|^2 = prod Gamma(alpha_i + 1) and E log|z^alpha|^2 =
    -EULER_GAMMA * d, independent of the coefficient (heights are
    projective).
    """
    flat = _monomial_exponents(p)
    if flat is None:
        raise ValueError("not a monomial")
    d, D = _dims(p)
    coeff = next(iter(p.terms.values()))
    log_norm = float(sum(log_gamma(e + 1) for e in flat)) + 2 * math.log(abs(complex(coeff)))
    log_z1 = _log_gamma_norm(D, d) + log_norm
    zp0 = -EULER_GAMMA * d - d * float(digamma(D)) + 2 * math.log(abs(complex(coeff)))
    return HeightReport(h=-log_z1 + zp0, log_Z1=log_z1, Zprime0=zp0,
                        stderr=0.0, ci_halfwidth=0.0, method="closed-form",
                        samples=0, seed=seed)


def log_zeta_det_closed(n: int, s: float, convention: str = "standard") -> float:
    """log of the closed-form Gaussian moment E[|det_n(Z)|^(2s)].

    standard: prod_{k=1}^n Gamma(s+k)/Gamma(k); paper: the same with
    Gamma(2s+k) and an extra (2 pi)^(-n s).
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if n < 1:
        raise ValueError("determinant size must be >= 1")
    k = np.arange(1, n + 1)
    if convention == "standard":
        return float(np.sum(log_gamma(s + k) - log_gamma(k)))
    return float(-n * s * math.log(2 * math.pi)
                 + np.sum(log_gamma(2 * s + k) - log_gamma(k)))


def zeta_det_closed(n: int, s: float, convention: str = "standard") -> float:
    return math.exp(log_zeta_det_closed(n, s, convention))


def log_zeta_det(n: int, s: float, cols: Optional[int] = None,
                 convention: str = "standard") -> float:
    """log Z(det_n; s) on the matrix space M_{n x cols} (default square).

    Only the n leading columns enter the determinant; the rest integrate
    out, so the moment is the square-matrix one while the gamma
    normalization sees the full dimension D = n * cols.
    """
    D = n * (cols if cols is not None else n)
    return _log_gamma_norm(D, n * s) + log_zeta_det_closed(n, s, convention)


def zeta_det(n: int, s: float, cols: Optional[int] = None,
             convention: str = "standard") -> float:
    return math.exp(log_zeta_det(n, s, cols=cols, convention=convention))


def zeta_det_prime_zero(n: int, cols: Optional[int] = None,
                        convention: str = "standard") -> float:
    """d/ds log-free derivative Z'(det_n; 0) on M_{n x cols}."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    D = n * (cols if cols is not None else n)
    k = np.arange(1, n + 1)
    if convention == "standard":
        return float(np.sum(digamma(k)) - n * digamma(D))
    return float(2 * np.sum(digamma(k)) - n * digamma(D) - n * math.log(2 * math.pi))


def height_det_closed(n: int, cols: Optional[int] = None,
                      convention: str = "standard") -> float:
    """Closed-form height of det_n on M_{n x cols}."""
    return -log_zeta_det(n, 1.0, cols=cols, convention=convention) \
        + zeta_det_prime_zero(n, cols=cols, convention=convention)


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

def height(p, samples: int = 10**6, seed=0, threads: int = 1,
           method: str = "auto") -> HeightReport:
    """Height of a homogeneous polynomial.

    method "auto" picks the cheapest sound route: exact gamma closed form
    for monomials; exact log Z(1) (factorial norm) plus Monte Carlo Z'(0)
    for sparse polynomials; full Monte Carlo for black boxes.  Forcing
    "monte-carlo" runs the sampled route even when a closed form exists,
    which the agreement tests exercise.  A formal tensor power is never
    materialized: tensor powers multiply norms, so every part of its height
    is the base's scaled by the exponent.
    """
    if method not in ("auto", "monte-carlo"):
        raise ValueError(f"unknown height method {method!r}")
    if isinstance(p, FormalPower):
        base = height(p.base, samples=samples, seed=seed, threads=threads, method=method)
        k = p.exponent
        return replace(base, h=k * base.h, log_Z1=k * base.log_Z1,
                       Zprime0=k * base.Zprime0, stderr=k * base.stderr,
                       ci_halfwidth=k * base.ci_halfwidth,
                       method=base.method + "+formal-linear")
    if method == "auto" and _monomial_exponents(p) is not None:
        return height_monomial_closed(p, seed=seed)
    mixed = method == "auto" and isinstance(p, SparsePolynomial)
    d, D = _dims(p)
    stats = _run_mc(p, 1.0, True, samples, seed, threads)
    zp0, stderr = _sampled_zprime0(stats, d, D)
    if mixed:
        log_norm = math.log(float(exact_gaussian_norm_sq(p)))
    else:
        # log Z(1) is sampled jointly with Z'(0): h = mean_y - log(mean_x) +
        # constants, so the variance is the delta method with covariance
        n = stats.n
        var_x = stats.m2x / (n - 1)
        var_y = stats.m2y / (n - 1)
        cov = stats.cxy / (n - 1)
        log_norm = math.log(stats.mean_x)
        var_h = (var_y + var_x / stats.mean_x**2 - 2 * cov / stats.mean_x) / n
        stderr = math.sqrt(max(var_h, 0.0))
    log_z1 = _log_gamma_norm(D, d) + log_norm
    values = {"h": -log_z1 + zp0, "log_Z1": log_z1, "Zprime0": zp0,
              "stderr": stderr, "ci_halfwidth": 3 * stderr}
    for key, value in values.items():
        if not math.isfinite(value):
            raise OverflowError(f"non-finite value {value!r} for {key!r}")
    return HeightReport(**values, method="mixed" if mixed else "monte-carlo",
                        samples=samples, seed=seed, resampled=stats.resampled)


@dataclass
class BoundsAudit:
    """Height of P against the harmonic-sum bounds for vector variable spaces.

    `lower` is -d * H_{N-1} and `lower_alt` the variant -d * H_N; the upper
    bound is 0.  Failures are reported, never raised: at N = 1 the stated
    lower sum is empty, forcing h = 0, which computed heights contradict.
    """

    report: HeightReport
    ambient_projective_dim: int
    degree: int
    lower: float
    lower_alt: float
    upper: float
    pass_lower: bool
    pass_lower_alt: bool
    pass_upper: bool


def height_bounds_audit(p, samples: int = 10**5, seed=0,
                        threads: int = 1) -> BoundsAudit:
    if p.shape.rows != 1:
        raise ValueError("bounds audit applies to vector variable spaces only")
    N = p.shape.cols - 1
    d = p.degree
    rep = height(p, samples=samples, seed=seed, threads=threads)
    lower = -d * float(harmonic(max(N - 1, 0)))
    lower_alt = -d * float(harmonic(N))
    tol = rep.ci_halfwidth
    return BoundsAudit(
        report=rep, ambient_projective_dim=N, degree=d,
        lower=lower, lower_alt=lower_alt, upper=0.0,
        pass_lower=bool(rep.h >= lower - tol),
        pass_lower_alt=bool(rep.h >= lower_alt - tol),
        pass_upper=bool(rep.h <= 0.0 + tol),
    )


# ---------------------------------------------------------------------------
# degeneration limits
# ---------------------------------------------------------------------------

@dataclass
class DegenerationLimits:
    """Closed-form limit heights when both forms degenerate to minor powers.

    Along a generic diagonal one-parameter degeneration the normalized
    leading term of each form is a power of a maximal-minor determinant, so
    the limiting heights are pure gamma expressions:

        hF    = (deg_R / (n+1)) Z'(det_{n+1}; 0) - log Z(det_{n+1}; d)
        hDelta= (deg_Delta / n) Z'(det_n; 0) - log Z(det_n; deg_Delta / n)

    and delta = |deg_Delta * hF - deg_R * hDelta|.  The leading-order
    pieces -2 deg log(d) and deg log(d) are split out so growth fits can be
    read off directly.
    """

    n: int
    N: int
    d: int
    deg_R: int
    deg_Delta: int
    convention: str
    hF_limit: float
    hDelta_limit: float
    delta_limit: float
    log_zeta_R: float
    log_zeta_Delta: float
    hF_leading: float
    hF_remainder: float
    hDelta_leading: float
    hDelta_remainder: float
    logZ_R_leading: float
    logZ_R_remainder: float


def degeneration_limit_heights(n: int, N: int, d: int, deg_R: int,
                               deg_Delta: int,
                               convention: str = "standard") -> DegenerationLimits:
    if min(n, N, d, deg_R, deg_Delta) <= 0:
        raise ValueError("all degeneration parameters must be positive")
    cols = N + 1
    s_delta = deg_Delta / n
    log_zeta_R = log_zeta_det(n + 1, float(d), cols=cols, convention=convention)
    log_zeta_Delta = log_zeta_det(n, s_delta, cols=cols, convention=convention)
    hF = (deg_R / (n + 1)) * zeta_det_prime_zero(n + 1, cols=cols, convention=convention) \
        - log_zeta_R
    hDelta = s_delta * zeta_det_prime_zero(n, cols=cols, convention=convention) \
        - log_zeta_Delta
    delta = abs(deg_Delta * hF - deg_R * hDelta)
    logd = math.log(d)
    return DegenerationLimits(
        n=n, N=N, d=d, deg_R=deg_R, deg_Delta=deg_Delta, convention=convention,
        hF_limit=hF, hDelta_limit=hDelta, delta_limit=delta,
        log_zeta_R=log_zeta_R, log_zeta_Delta=log_zeta_Delta,
        hF_leading=-2 * deg_R * logd, hF_remainder=hF + 2 * deg_R * logd,
        hDelta_leading=-2 * deg_Delta * logd,
        hDelta_remainder=hDelta + 2 * deg_Delta * logd,
        logZ_R_leading=deg_R * logd, logZ_R_remainder=log_zeta_R - deg_R * logd,
    )
