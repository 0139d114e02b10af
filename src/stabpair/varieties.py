"""Resultants and hyperdiscriminants of rational normal curves, and their heights.

The degree-d rational normal curve is the unique built-in family: its
codimension-2-plane divisor form is the resultant of the two binary d-forms
read off the rows of a 2 x (d+1) matrix, and its tangency divisor form is
the discriminant of a single binary d-form, realized as the resultant of
the two partial derivatives.  Both are exactly constructible, which makes
every downstream quantity (degrees, supports, heights, discrepancies)
independently checkable.

Every resultant here is the determinant of one Bezout matrix, filled by
one recurrence, and at every degree its values come from that determinant:
small Bezout matrices are expanded by minors, mid-size ones factored by a
certified LDL^T and larger ones by batched LU.  Small degrees also expand
it symbolically, with integer coefficients, for supports, exact values and
exact norms; larger ones stay black boxes.  Degrees are read from the constructions (a black box's
declared degree is spot-checked when it is built) and must equal 2d and
2d - 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .igusa import HeightReport, height
from .pairstab import PairSpec
from .polyrep import (
    EVALUATION_CHUNK,
    BlackBoxPolynomial,
    FormalPower,
    MatrixShape,
    SparsePolynomial,
    monomial,
)

__all__ = [
    "VarietyExample",
    "DiscrepancyRow",
    "poly_det",
    "rnc_resultant",
    "rnc_hyperdiscriminant",
    "rnc_example",
    "normalized_pair",
    "variety_heights",
    "discrepancy_table",
]

SYMBOLIC_RESULTANT_LIMIT = 4
SYMBOLIC_DISCRIMINANT_LIMIT = 5
# bytes of the Bezout stack per det call (res:200 ran 25% faster at 8 MB than 2 MB)
BEZOUT_STACK_BYTES = 8 << 20
# largest Bezout size n expanded by minors rather than by LU: per 65,536
# samples, on one thread of a 2-core host, minors took 0.042 s against LU's
# 0.079 s at n = 6, 0.099 against 0.098 s at n = 7 and 0.20 against 0.14 s at n = 8
BEZOUT_MINOR_LIMIT = 6
# largest Bezout size n factored by certified LDL^T rather than by LU: per 65,536
# samples (16,384 from n = 20), on one thread of a 2-core host, LDL^T took 0.046 s
# against LU's 0.100 s at n = 7, 0.107 against 0.226 s at n = 11, 0.25 against 0.46 s
# at n = 16, 0.139 against 0.167 s at n = 22 and 0.184 against 0.183 s at n = 23
BEZOUT_LDL_LIMIT = 22
# samples per LDL^T slice, whose stack stays within BEZOUT_STACK_BYTES up to the
# limit (disc:12 read 0.107 s at 1,024 and 0.121 s at 512)
LDL_SLICE = 1024
LDL_PIVOT_RATIO = 2.0 ** -10  # smallest |pivot| / max |column| certified
LDL_NOISE_RATIO = 2.0 ** -30  # smallest |pivot| / max |entry met| certified
# the range of certified partial pivot products |p|_max: normal floats, and
# |p| <= 0.71 of the largest, clear of LU's rounding of sign * exp(log |det|)
TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max / 2


# ---------------------------------------------------------------------------
# the Bezout matrix, numeric and symbolic
# ---------------------------------------------------------------------------

def poly_det(rows: Sequence[Sequence[SparsePolynomial]]) -> SparsePolynomial:
    """Determinant of a small square matrix of polynomials by `_minor_det`,
    its 2^n minors rather than n! products."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    b = np.empty((n, n, 1), dtype=object)
    b[..., 0] = rows
    return _minor_det(b, np.empty(((1 << n) + 1, 1), dtype=object))[0]


def _bezout(f, g, b, det):
    """The resultant (-1)^(n(n-1)/2) det B of the binary n-forms with
    coefficient rows f and g (n + 1 entries on the leading axis).

    B is the n x n Bezout matrix, half the Sylvester size (Gelfand,
    Kapranov & Zelevinsky, ch. 12 S1), filled into `b` row by row with the
    anti-diagonal recurrence B[i, j] = B[i-1, j+1] + f_i g_{j+1} - g_i f_{j+1}.
    Entries are complex sample columns or polynomials alike.
    """
    n = len(f) - 1
    for i in range(n):
        np.multiply(f[i], g[1:], out=b[i])
        b[i] -= np.multiply(g[i], f[1:])
        if i:
            b[i, :-1] += b[i - 1, 1:]
    out = det(b)
    # a negation, not a product with -1, keeps an overflowed inf from turning NaN
    return -out if n * (n - 1) // 2 % 2 else out


def _minor_det(b: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Determinants of the (n, n, m) stack b, complex or of polynomials.

    The minor on a row subset S and the last |S| columns expands along its
    first column, with signs alternating in row order.  Subsets run as bit
    masks, each after its subsets, in place in the (2^n + 1, m) workspace
    `work`: row S holds the minor on S (row 0 the empty minor 1) and the
    last row is scratch.
    """
    n = len(b)
    work[0], scratch = 1, work[-1]
    for mask in range(1, 1 << n):
        rows = [i for i in range(n) if mask >> i & 1]
        acc, col = work[mask], n - len(rows)
        for pos, i in enumerate(rows):
            np.multiply(b[i, col], work[mask ^ 1 << i], out=scratch if pos else acc)
            if pos:
                (np.subtract if pos % 2 else np.add)(acc, scratch, out=acc)
    return work[-2]


def _ldl_det(b: np.ndarray) -> np.ndarray:
    """Determinants of the complex symmetric (n, n, m) stack b by unpivoted
    LDL^T, overwriting its lower triangle; NaN where a sample is not certified.

    Magnitudes are |z|_max = max(|Re z|, |Im z|), within a factor sqrt(2) of
    |z| and far cheaper (LAPACK's pivot search likewise uses |Re z| + |Im z|).
    A sample is certified when every pivot d_k passes the partial-pivoting
    ratio test |d_k| >= LDL_PIVOT_RATIO * max_{i>=k} |a_ik| (Higham 2002,
    chs. 9-11), none is below LDL_NOISE_RATIO of the largest entry met in
    the elimination, where it would be rounding noise (a common root), and
    every partial product of the pivots lies between TINY and HUGE: zeros,
    NaNs, gradual underflow and values LU might round past the float range
    are never certified.
    """
    n, m = len(b), b.shape[2]
    tops = np.empty((n, 2 * m))
    w, tmp = np.empty((n, m), dtype=complex), np.empty((n, m), dtype=complex)
    with np.errstate(all="ignore"):
        for k in range(n):
            col = b[k:, k]
            np.abs(col.view(float)).max(axis=0, out=tops[k])
            np.multiply(col[1:], 1 / col[0], out=w[k + 1:])
            for i in range(k + 1, n):
                np.multiply(col[1:i - k + 1], w[i], out=tmp[:i - k])
                np.subtract(b[i, k + 1:i + 1], tmp[:i - k], out=b[i, k + 1:i + 1])
        products = b[np.arange(n), np.arange(n)]  # the pivots, then their partial products
        sizes, tops = _pair_max(np.abs(products.view(float))), _pair_max(tops)
        ok = (sizes >= LDL_PIVOT_RATIO * tops) & (sizes >= LDL_NOISE_RATIO * tops.max(axis=0))
        for k in range(1, n):
            products[k] *= products[k - 1]
        sizes = _pair_max(np.abs(products.view(float)))
        ok &= (sizes >= TINY) & (sizes <= HUGE)
        det = products[-1]
        det[~ok.all(axis=0)] = np.nan
    return det


def _pair_max(x: np.ndarray) -> np.ndarray:
    """|z|_max from x, the float view of |z|: (|Re z|, |Im z|) pairs along
    the last axis."""
    return np.maximum(x[..., ::2], x[..., 1::2])


def _lu_det(b: np.ndarray) -> np.ndarray:
    return np.linalg.det(b.transpose(2, 0, 1))


def _bezout_resultant(fs: np.ndarray, gs: np.ndarray, weights=(1, 1)) -> np.ndarray:
    """Batched resultant of the binary n-forms with coefficient rows
    fs * weights[0] and gs * weights[1], both (batch, n+1).

    Weights and rows are formed per slice, samples last so that each row
    of B is one contiguous block, in one reused stack.  Up to
    BEZOUT_MINOR_LIMIT, B is expanded by minors (`_minor_det`) on slices of
    EVALUATION_CHUNK samples; up to BEZOUT_LDL_LIMIT, slices of LDL_SLICE
    samples are factored by a certified LDL^T (`_ldl_det`), and each sample
    it does not certify is rebuilt and factored by LU alone; beyond, slices
    of at most BEZOUT_STACK_BYTES go to one batched LU (`np.linalg.det`).
    Every determinant is formed on its own, so slicing changes no value.
    """
    n = fs.shape[1] - 1
    if n <= BEZOUT_MINOR_LIMIT:
        step = EVALUATION_CHUNK
        work = np.empty(((1 << n) + 1, min(step, len(fs))), dtype=complex)
        det = lambda b: _minor_det(b, work[:, :b.shape[2]])
    elif n <= BEZOUT_LDL_LIMIT:
        step, det = LDL_SLICE, _ldl_det
    else:
        step, det = max(1, BEZOUT_STACK_BYTES // (16 * n * n)), _lu_det
    out = np.empty(fs.shape[0], dtype=complex)
    stack = np.empty(n * n * min(step, len(out)), dtype=complex)
    for lo in range(0, len(out), step):
        f = (fs[lo:lo + step] * weights[0]).T.copy()
        g = (gs[lo:lo + step] * weights[1]).T.copy()
        b = stack[:n * n * f.shape[1]].reshape(n, n, f.shape[1])
        vals = out[lo:lo + step]
        vals[:] = _bezout(f, g, b, det)
        if det is _ldl_det:
            bad = np.flatnonzero(np.isnan(vals))
            if bad.size:
                b = stack[:n * n * bad.size].reshape(n, n, bad.size)
                vals[bad] = _bezout(f[:, bad], g[:, bad], b, _lu_det)
    return out


def _symbolic_resultant(f: list, g: list) -> SparsePolynomial:
    """The resultant of two binary forms with polynomial coefficients, exactly."""
    n = len(f) - 1
    f, g = np.array(f, dtype=object), np.array(g, dtype=object)
    return _bezout(f, g, np.empty((n, n), dtype=object), poly_det)


# ---------------------------------------------------------------------------
# the rational normal curve family
# ---------------------------------------------------------------------------

def _coeff_vars(shape: MatrixShape, row: int):
    """The row's entries as degree-1 monomials a_{row,0}, ..., a_{row,cols-1}."""
    return [monomial(shape, [[int(r == row and c == j) for c in range(shape.cols)]
                             for r in range(shape.rows)]) for j in range(shape.cols)]


class _BezoutForm(SparsePolynomial):
    """An expanded RNC form whose batch values come from `values`, its
    Bezout recurrence, rather than from the term loop."""

    __slots__ = ("values",)

    def _batch_values(self, batch: np.ndarray) -> np.ndarray:
        return self.values(batch)


def _bezout_form(shape: MatrixShape, terms: dict, degree: int, values) -> _BezoutForm:
    form = _BezoutForm._trusted(shape, terms, degree)
    form.values = values
    return form


def rnc_resultant(d: int) -> Union[SparsePolynomial, BlackBoxPolynomial]:
    """Form vanishing exactly when the two row forms share a projective root.

    Expanded (integer coefficients, degree 2d) up to d = 4, a black box
    beyond; both evaluate through the Bezout determinant.
    """
    if d < 2:
        raise ValueError("the family needs degree >= 2")
    shape = MatrixShape(2, d + 1)

    def batch_eval(batch: np.ndarray) -> np.ndarray:
        return _bezout_resultant(batch[:, 0, :], batch[:, 1, :])

    if d <= SYMBOLIC_RESULTANT_LIMIT:
        raw = _symbolic_resultant(_coeff_vars(shape, 0), _coeff_vars(shape, 1))
        return _bezout_form(shape, raw.terms, raw.degree, batch_eval)
    return BlackBoxPolynomial(shape=shape, degree=2 * d, evaluator=batch_eval,
                              name=f"rnc-resultant-{d}")


def _derivative_coeffs(a: Sequence, d: int):
    """Coefficient vectors of both partials of sum_j a_j s^(d-j) t^j."""
    ds = [(d - j) * a[j] for j in range(d)]
    dt = [(j + 1) * a[j + 1] for j in range(d)]
    return ds, dt


def rnc_hyperdiscriminant(d: int) -> Union[SparsePolynomial, BlackBoxPolynomial]:
    """Form vanishing exactly when the row form has a repeated root.

    Realized as the resultant of the two partial derivatives (degree
    2d - 2), evaluated through their Bezout determinant.  Expanded up to
    d = 5, with the overall constant `lead` divided out of terms and values
    so that the lexicographically first monomial has coefficient +1.  The
    black box beyond skips that cosmetic normalization: every consumer
    downstream (heights, weights, polytopes) is scale-invariant.
    """
    if d < 2:
        raise ValueError("the family needs degree >= 2")
    shape = MatrixShape(1, d + 1)
    # the partials of the all-ones form are the column weights d - j and j + 1
    weights = _derivative_coeffs([1] * (d + 1), d)

    def batch_eval(batch: np.ndarray) -> np.ndarray:
        a = batch[:, 0, :]
        return _bezout_resultant(a[:, :d], a[:, 1:], weights)

    if d <= SYMBOLIC_DISCRIMINANT_LIMIT:
        raw = _symbolic_resultant(*_derivative_coeffs(_coeff_vars(shape, 0), d))
        lead = raw.terms[min(raw.terms)]  # divides every coefficient for d <= 5
        return _bezout_form(shape, {e: c // lead for e, c in raw.terms.items()}, raw.degree,
                            lambda batch: batch_eval(batch) / lead)
    return BlackBoxPolynomial(shape=shape, degree=2 * d - 2, evaluator=batch_eval,
                              name=f"rnc-hyperdiscriminant-{d}")


@dataclass
class VarietyExample:
    """A built-in projective variety with exactly constructed divisor forms."""

    family: str
    n: int
    N: int
    d: int
    R_X: Union[SparsePolynomial, BlackBoxPolynomial]
    Delta_X: Union[SparsePolynomial, BlackBoxPolynomial]
    deg_R: int
    deg_Delta: int


def rnc_example(d: int) -> VarietyExample:
    """The degree-d rational normal curve (d = 2 is the plane conic)."""
    r = rnc_resultant(d)
    delta = rnc_hyperdiscriminant(d)
    if (r.degree, delta.degree) != (2 * d, 2 * d - 2):
        raise ArithmeticError(f"form degrees {r.degree}, {delta.degree} != expected "
                              f"{2 * d}, {2 * d - 2}")
    return VarietyExample(family="rnc", n=1, N=d, d=d, R_X=r, Delta_X=delta,
                          deg_R=r.degree, deg_Delta=delta.degree)


def normalized_pair(example: VarietyExample) -> PairSpec:
    """The degree-normalized pair (R_X^(deg Delta), Delta_X^(deg R)).

    Both sides carry the same total formal degree deg_R * deg_Delta; the
    powers stay formal and all downstream quantities scale linearly.
    """
    return PairSpec.of(FormalPower(example.R_X, example.deg_Delta),
                       FormalPower(example.Delta_X, example.deg_R))


# ---------------------------------------------------------------------------
# heights and discrepancy
# ---------------------------------------------------------------------------

def variety_heights(example: VarietyExample, samples: int = 10**6, seed=0,
                    threads: int = 1):
    """(height report of R_X, height report of Delta_X), Monte Carlo."""
    seq = np.random.SeedSequence((_seed_int(seed), example.d))
    s_r, s_delta = seq.spawn(2)
    h_f = height(example.R_X, samples=samples, seed=s_r, threads=threads,
                 method="monte-carlo")
    h_delta = height(example.Delta_X, samples=samples, seed=s_delta,
                     threads=threads, method="monte-carlo")
    return h_f, h_delta


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ValueError("discrepancy seeds must be plain integers")


@dataclass
class DiscrepancyRow:
    d: int
    deg_R: int
    deg_Delta: int
    h_F: float
    h_F_stderr: float
    h_Delta: float
    h_Delta_stderr: float
    delta: float
    delta_stderr: float
    delta_over_d2: float


def _row_from_reports(example: VarietyExample, h_f: HeightReport,
                      h_delta: HeightReport) -> DiscrepancyRow:
    delta = abs(example.deg_Delta * h_f.h - example.deg_R * h_delta.h)
    delta_stderr = math.hypot(example.deg_Delta * h_f.stderr,
                              example.deg_R * h_delta.stderr)
    return DiscrepancyRow(
        d=example.d, deg_R=example.deg_R, deg_Delta=example.deg_Delta,
        h_F=h_f.h, h_F_stderr=h_f.stderr,
        h_Delta=h_delta.h, h_Delta_stderr=h_delta.stderr,
        delta=delta, delta_stderr=delta_stderr,
        delta_over_d2=delta / example.d**2)


def discrepancy_table(d_values: Sequence[int], samples: int = 200_000, seed=0,
                      threads: int = 1):
    """Height-discrepancy rows |deg_Delta h_F - deg_R h_Delta| plus a growth fit.

    Returns (rows, fit) where fit regresses log(delta) on log(d) and
    reports the growth exponent with a two-sigma halfwidth, each None when
    too few degrees determine it; the fit is reported, never asserted
    against.
    """
    rows = []
    for d in d_values:
        if d < 2:
            raise ValueError("the family needs degree >= 2")
        example = rnc_example(d)
        h_f, h_delta = variety_heights(example, samples=samples, seed=seed,
                                       threads=threads)
        rows.append(_row_from_reports(example, h_f, h_delta))
    fit = _growth_fit([r.d for r in rows], [r.delta for r in rows])
    return rows, fit


def _growth_fit(ds, deltas) -> dict:
    """Least squares of log(delta) on log(d): the exponent and prefactor need
    two degrees and the halfwidth three; with fewer they are None."""
    xs = np.log(np.asarray(ds, dtype=float))
    ys = np.log(np.asarray(deltas, dtype=float))
    fit = {"exponent": None, "exponent_ci_halfwidth": None, "log_prefactor": None,
           "points": len(xs)}
    if len(xs) < 2:
        return fit
    design = np.column_stack([np.ones_like(xs), xs])
    coef = np.linalg.lstsq(design, ys, rcond=None)[0]
    fit.update(exponent=float(coef[1]), log_prefactor=float(coef[0]))
    if len(xs) > 2:
        resid = ys - design @ coef
        cov = float(resid @ resid) / (len(xs) - 2) * np.linalg.inv(design.T @ design)
        fit["exponent_ci_halfwidth"] = 2.0 * math.sqrt(max(cov[1, 1], 0.0))
    return fit
