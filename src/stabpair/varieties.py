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
expanded by minors when small, and beyond by a certified generalized Schur
pass on the recurrence's generators, with LU for what it leaves uncertified.
Small degrees also expand it symbolically, with integer coefficients, for
supports, exact values and exact norms; larger ones stay black boxes.
Degrees are read from the constructions (a black box's declared degree is
spot-checked when it is built) and must equal 2d and 2d - 2.
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
# bytes of each LU stack of the samples `_schur_det` does not certify
BEZOUT_STACK_BYTES = 8 << 20
# largest Bezout size n expanded by minors, which need no certificate, rather than
# by `_schur_det`: per 65,536 samples, on one thread of a 2-core host, minors took 0.021 s
# against its 0.032 s at n = 5, 0.038 against 0.037 s at n = 6, 0.083 against 0.051 at 7
BEZOUT_MINOR_LIMIT = 6
# bytes per row of a `_schur_det` slice, near a 2 MiB L2 for its ten arrays (per 65,536
# samples at n = 22, on one thread, 0.37 s at 128 KiB, 0.36 at 256 and 0.41 at 512)
SCHUR_BYTES = 256 << 10
PIVOT_RATIO = 2.0 ** -10  # smallest |pivot| / max |column| certified
NOISE_RATIO = 2.0 ** -30  # smallest |pivot| / max |entry met| certified
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


def _schur_det(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`_bezout`'s values for the complex sample columns f and g by generalized
    Schur (Kailath & Sayed, SIAM Review 37, 1995), in O(n^2) per sample; NaN
    where a sample is not certified.

    R = BJ has R - Z R Z^T = G H^T, Z the down-shift, G = (f_0..f_{n-1},
    g_0..g_{n-1}) and H = (g_n..g_1, -f_n..-f_1).  Each step reads the pivot
    d = g_0 h_0, first column (d, l) = G h_0 and row (d, u) = H g_0, and sends
    G_1 = (G_2 p / d, Z (d, l)) and H_1 = (H_2 q, Z (d, u) / d) on, with
    p = (g_01, -g_00), q = (h_01, -h_00): the 1/d on G keeps both pairs in range.
    Certified: every |d| >= PIVOT_RATIO max(|d|, |l|) (partial pivoting's ratio
    test, Higham 2002, ch. 9) and >= NOISE_RATIO of the largest such entry,
    below which it is rounding noise (a common root), and every partial
    product of pivots in [TINY, HUGE]; here |z| is max(|Re z|, |Im z|).
    """
    n, m = len(f) - 1, f.shape[1]
    ga, gb, ha, hb = f[:n].copy(), g[:n].copy(), g[:0:-1].copy(), np.negative(f[:0:-1])
    (col, row, tmp), tops = np.empty((3, n, m), dtype=complex), np.empty((n, 2 * m))
    pair_max = lambda x: np.maximum(x[..., ::2], x[..., 1::2])  # |z|_max from |z.view(float)|

    def lin(xa, xb, a, b, out, op=np.add):  # out = xa a + xb b, or xa a - xb b
        op(np.multiply(xa, a, out=out), np.multiply(xb, b, out=tmp[:len(out)]), out=out)
    with np.errstate(all="ignore"):
        for k in range(n):  # the columns of G and H hold their row k at k
            c = col[k:]  # col[k] ends as pivot k
            lin(ga[k:], gb[k:], ha[k], hb[k], c)
            np.abs(c.view(float)).max(axis=0, out=tops[k])
            pa, pb = ga[k] / c[0], gb[k] / c[0]  # g_0 / d
            lin(ha[k:], hb[k:], pa, pb, row[k:])
            lin(ga[k + 1:], gb[k + 1:], pb, pa, ga[k + 1:], np.subtract)
            lin(ha[k + 1:], hb[k + 1:], hb[k], ha[k], ha[k + 1:], np.subtract)
            gb[k + 1:], hb[k + 1:] = c[:-1], row[k:-1]
        sizes, tops = pair_max(np.abs(col.view(float))), pair_max(tops)
        ok = (sizes >= PIVOT_RATIO * tops) & (sizes >= NOISE_RATIO * tops.max(axis=0))
        np.multiply.accumulate(col, out=col)  # the partial products
        sizes = pair_max(np.abs(col.view(float)))
        ok &= (sizes >= TINY) & (sizes <= HUGE)
        det = col[-1]
        det[~ok.all(axis=0)] = np.nan
    return det


def _lu_det(b: np.ndarray) -> np.ndarray:
    return np.linalg.det(b.transpose(2, 0, 1))


def _bezout_resultant(fs: np.ndarray, gs: np.ndarray, weights=(1, 1)) -> np.ndarray:
    """Batched resultant of the binary n-forms with coefficient rows
    fs * weights[0] and gs * weights[1], both (batch, n+1).

    Weights and rows are formed per slice, samples last.  Up to
    BEZOUT_MINOR_LIMIT, B is filled and expanded by minors (`_minor_det`)
    on slices of EVALUATION_CHUNK samples.  Beyond, `_schur_det` reads the
    rows, on slices of SCHUR_BYTES per row, and only the samples it does not
    certify fill B, for LU alone, in stacks of at most BEZOUT_STACK_BYTES.
    Every determinant is formed on its own, so slicing changes no value.
    """
    n = fs.shape[1] - 1
    out = np.empty(len(fs), dtype=complex)
    rows = lambda sel: ((fs[sel] * weights[0]).T.copy(), (gs[sel] * weights[1]).T.copy())
    if n <= BEZOUT_MINOR_LIMIT:
        work = np.empty(((1 << n) + 1, min(EVALUATION_CHUNK, len(out))), dtype=complex)
        det = lambda b: _minor_det(b, work[:, :b.shape[2]])
        parts = [slice(lo, lo + EVALUATION_CHUNK) for lo in range(0, len(out), EVALUATION_CHUNK)]
    else:
        step = max(1, SCHUR_BYTES // (16 * n))
        for lo in range(0, len(out), step):
            out[lo:lo + step] = _schur_det(*rows(slice(lo, lo + step)))
        bad, det = np.flatnonzero(np.isnan(out)), _lu_det
        step = max(1, BEZOUT_STACK_BYTES // (16 * n * n))
        parts = [bad[lo:lo + step] for lo in range(0, len(bad), step)]
    for sel in parts:
        f, g = rows(sel)
        out[sel] = _bezout(f, g, np.empty((n, n, f.shape[1]), dtype=complex), det)
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
