"""Rational normal curve forms: construction, vanishing, degrees, heights."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from geomref import binary_form_mul
from stabpair import igusa, varieties
from stabpair.energy import nu_pair
from stabpair.exactgeom import dilate
from stabpair.igusa import (
    EvaluationError,
    degeneration_limit_heights,
    height,
    height_monomial_closed,
    log_gamma,
)
from stabpair.pairstab import semistable_diagonal, stable_search, weight_polytope
from stabpair.polyrep import (
    BlackBoxPolynomial,
    GroupElement,
    MatrixShape,
    SparsePolynomial,
    act,
    gaussian_batch,
    monomial,
    support,
)
from stabpair.varieties import (
    BEZOUT_MINOR_LIMIT,
    BEZOUT_STACK_BYTES,
    _bezout_resultant,
    _coeff_vars,
    _derivative_coeffs,
    _minor_det,
    _symbolic_resultant,
    discrepancy_table,
    normalized_pair,
    poly_det,
    rnc_example,
    rnc_hyperdiscriminant,
    rnc_resultant,
    variety_heights,
)


def random_form(rng, d, lo=-3, hi=3):
    while True:
        c = [int(x) for x in rng.integers(lo, hi + 1, size=d + 1)]
        if any(c):
            return c


def split_form(roots):
    """Monic-in-s form prod (s - alpha t) as a coefficient list."""
    coeffs = [1]
    for alpha in roots:
        coeffs = binary_form_mul(coeffs, [1, -alpha])
    return coeffs


def distinct_roots(rng, count, taboo=()):
    pool = [x for x in range(-6, 7) if x not in taboo]
    rng.shuffle(pool)
    return pool[:count]


EXPANDED = ("res:2", "res:3", "res:4", "disc:2", "disc:3", "disc:4", "disc:5")


def expanded_form(name):
    kind, d = name.split(":")
    return (rnc_resultant if kind == "res" else rnc_hyperdiscriminant)(int(d))


def term_loop(p):
    """The same terms, evaluated by the plain term loop."""
    return SparsePolynomial(p.shape, p.terms, p.degree)


def rows_matrix(f, g):
    return np.array([f, g], dtype=complex)


# -- constructions ------------------------------------------------------------------

def test_resultant_of_split_forms_is_one():
    r = rnc_resultant(2)
    val = r.evaluate(rows_matrix([1, 0, 0], [0, 0, 1]))  # s^2 and t^2
    assert val == pytest.approx(1.0)


def test_resultant_identical_rows_vanishes():
    r = rnc_resultant(2)
    assert r.evaluate(rows_matrix([1, 2, 3], [1, 2, 3])) == pytest.approx(0.0, abs=1e-12)


def test_resultant_symbolic_support_d2():
    r = rnc_resultant(2)
    assert isinstance(r, SparsePolynomial)
    assert support(r) == {(2, 0, 2), (1, 2, 1)}
    assert r.degree == 4 and r.has_exact_coefficients()


def test_discriminant_d2_is_b2_minus_4ac():
    disc = rnc_hyperdiscriminant(2)
    assert disc.terms == {((0, 2, 0),): 1, ((1, 0, 1),): -4}


def test_resultant_d2_classical_expansion():
    # the full 7-term classical resultant of two binary quadratics,
    # exponent matrices written as (a-row, b-row)
    want = {
        ((0, 0, 2), (2, 0, 0)): 1,    # a2^2 b0^2
        ((0, 1, 1), (1, 1, 0)): -1,   # -a1 a2 b0 b1
        ((0, 2, 0), (1, 0, 1)): 1,    # a1^2 b0 b2
        ((1, 0, 1), (0, 2, 0)): 1,    # a0 a2 b1^2
        ((1, 0, 1), (1, 0, 1)): -2,   # -2 a0 a2 b0 b2
        ((1, 1, 0), (0, 1, 1)): -1,   # -a0 a1 b1 b2
        ((2, 0, 0), (0, 0, 2)): 1,    # a0^2 b2^2
    }
    assert rnc_resultant(2).terms == want


def test_discriminant_d3_classical_expansion():
    # the classical discriminant of the binary cubic, coefficient +1 on
    # a1^2 a2^2 by the normalization convention
    want = {
        ((0, 2, 2, 0),): 1,
        ((0, 3, 0, 1),): -4,
        ((1, 0, 3, 0),): -4,
        ((1, 1, 1, 1),): 18,
        ((2, 0, 0, 2),): -27,
    }
    assert rnc_hyperdiscriminant(3).terms == want


def test_discriminant_d3_classical_values():
    disc = rnc_hyperdiscriminant(3)
    # squarefree cubic s^2 t - s t^2: three distinct roots 0, 1, infinity
    val = disc.evaluate(np.array([[0, 1, -1, 0]], dtype=complex))
    assert abs(val) > 1e-9
    # triple root s^3
    val0 = disc.evaluate(np.array([[1, 0, 0, 0]], dtype=complex))
    assert val0 == pytest.approx(0.0, abs=1e-12)


def test_discriminant_normalization_leading_one():
    for d in (2, 3, 4, 5):
        disc = rnc_hyperdiscriminant(d)
        lead_key = sorted(disc.terms)[0]
        assert disc.terms[lead_key] == 1


def test_symbolic_forms_equal_a_validated_construction(monkeypatch):
    # sums and products return unchecked; routed through the validating
    # constructor instead, they build the same polynomials
    def build():
        return ([rnc_resultant(d) for d in (2, 3, 4)]
                + [rnc_hyperdiscriminant(d) for d in (2, 3, 4, 5)])

    fast = build()
    monkeypatch.setattr(SparsePolynomial, "_trusted", classmethod(
        lambda cls, shape, terms, degree: cls(shape, terms, degree)))
    for p, q in zip(fast, build()):
        assert p == q and p.degree == q.degree and list(p.terms) == list(q.terms)


def test_symbolic_blackbox_boundaries():
    assert isinstance(rnc_resultant(4), SparsePolynomial)
    assert isinstance(rnc_resultant(5), BlackBoxPolynomial)
    assert isinstance(rnc_hyperdiscriminant(5), SparsePolynomial)
    assert isinstance(rnc_hyperdiscriminant(6), BlackBoxPolynomial)
    with pytest.raises(ValueError):
        rnc_resultant(1)


def test_symbolic_and_blackbox_agree_at_random_points():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        sym = rnc_resultant(d)
        batch = gaussian_batch(MatrixShape(2, d + 1), 100, rng)
        sym_vals = term_loop(sym).evaluate_batch(batch)
        det_vals = _bezout_resultant(batch[:, 0, :], batch[:, 1, :])
        scale = np.maximum(np.abs(det_vals), 1e-30)
        assert np.max(np.abs(sym_vals - det_vals) / scale) < 1e-9


@pytest.mark.parametrize("n", range(1, 8))
def test_minor_det_matches_lapack(n):
    rng = np.random.default_rng(90 + n)
    mats = rng.standard_normal((300, n, n)) + 1j * rng.standard_normal((300, n, n))
    got = _minor_det(np.ascontiguousarray(mats.transpose(1, 2, 0)),
                     np.empty(((1 << n) + 1, len(mats)), dtype=complex))
    bound = np.prod(np.linalg.norm(mats, axis=2), axis=1)
    assert np.max(np.abs(got - np.linalg.det(mats)) / bound) < 1e-12
    if n > 1:  # integer entries with a repeated row: every product and sum is exact
        ints = rng.integers(-9, 10, size=(300, n, n)).astype(complex)
        ints[:, -1] = ints[:, 0]
        got = _minor_det(np.ascontiguousarray(ints.transpose(1, 2, 0)),
                         np.empty(((1 << n) + 1, len(ints)), dtype=complex))
        assert not got.any()


@pytest.mark.parametrize("name", EXPANDED)
def test_expanded_forms_evaluate_by_bezout_as_their_terms_do(name):
    p = expanded_form(name)
    assert type(p) is not SparsePolynomial and isinstance(p, SparsePolynomial)
    batch = gaussian_batch(p.shape, 500, np.random.default_rng(60))
    want = term_loop(p).evaluate_batch(batch)
    got = p.evaluate_batch(batch)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10
    # at small integer points the Bezout values are exact integers
    ints = np.random.default_rng(61).integers(-3, 4, size=(50, *p.shape))
    got = p.evaluate_batch(ints)
    assert np.array_equal(got, term_loop(p).evaluate_batch(ints))
    assert [int(v.real) for v in got] == [p.evaluate_exact(a) for a in ints.tolist()]
    assert not got.imag.any()


def test_expanded_forms_keep_the_mixed_height_route():
    for p in (rnc_resultant(4), rnc_hyperdiscriminant(5)):
        assert isinstance(p, SparsePolynomial)
        assert height(p, samples=2000, seed=1).method == "mixed"


@pytest.mark.parametrize("scale, error", [(1e20, OverflowError), (1e40, EvaluationError)])
def test_expanded_forms_overflow_as_their_terms_do(monkeypatch, scale, error):
    # on samples scaled by 1e20, |P|^2 of these degree-8 forms overflows, and
    # by 1e40 P itself: either way a named error and no RuntimeWarning, as
    # with the term loop
    draw = igusa.gaussian_chunks
    monkeypatch.setattr(igusa, "gaussian_chunks",
                        lambda *args: (scale * chunk for chunk in draw(*args)))
    for p in (rnc_resultant(4), rnc_hyperdiscriminant(5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as bezout:
                height(p, samples=1000, seed=2)
            with pytest.raises(error) as terms:
                height(term_loop(p), samples=1000, seed=2)
        assert str(bezout.value) == str(terms.value)


def sylvester_det(fs, gs):
    """Reference: batched determinant of the full Sylvester matrix of the
    coefficient rows fs (batch, df+1) and gs (batch, dg+1)."""
    df, dg = fs.shape[1] - 1, gs.shape[1] - 1
    m = np.zeros((len(fs), df + dg, df + dg), dtype=complex)
    for i in range(dg):
        m[:, i, i:i + df + 1] = fs
    for i in range(df):
        m[:, dg + i, i:i + dg + 1] = gs
    return np.linalg.det(m)


def assert_close_to_sylvester(vals, fs, gs):
    want = sylvester_det(fs, gs)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals - want) / np.abs(want)) < 1e-10


# res:d factors at n = d and disc:d at n = d - 1: each list reaches both
# kernels, minors and `_schur_det`
SYLVESTER_DEGREES = (*range(2, 13), 22, 23, 24)
HYPERDISCRIMINANT_DEGREES = range(3, 25)


def test_sylvester_degrees_straddle_the_minor_limit():
    # the res and disc sizes each reach both kernels
    for sizes in (list(SYLVESTER_DEGREES), [d - 1 for d in HYPERDISCRIMINANT_DEGREES]):
        assert min(sizes) <= BEZOUT_MINOR_LIMIT < max(sizes)


@pytest.mark.parametrize("d", SYLVESTER_DEGREES)
def test_bezout_resultant_matches_sylvester(d):
    # the sign (-1)^(n(n-1)/2) included: res:d at n = d, by minors up to
    # BEZOUT_MINOR_LIMIT and by `_schur_det` beyond
    batch = gaussian_batch(MatrixShape(2, d + 1), 200, np.random.default_rng(40 + d))
    fs, gs = batch[:, 0, :], batch[:, 1, :]
    assert_close_to_sylvester(_bezout_resultant(fs, gs), fs, gs)
    assert_close_to_sylvester(rnc_resultant(d).evaluate_batch(batch), fs, gs)


@pytest.mark.parametrize("d", HYPERDISCRIMINANT_DEGREES)
def test_bezout_hyperdiscriminant_matches_sylvester(d):
    # the resultant of the two partials, at n = d - 1, with weighted columns
    a = gaussian_batch(MatrixShape(1, d + 1), 200, np.random.default_rng(70 + d))
    ds, dt = _derivative_coeffs(a[:, 0, :].T, d)
    fs, gs = np.array(ds).T, np.array(dt).T
    weights = _derivative_coeffs([1] * (d + 1), d)
    assert_close_to_sylvester(_bezout_resultant(a[:, 0, :d], a[:, 0, 1:], weights), fs, gs)
    if d > 5:
        assert_close_to_sylvester(rnc_hyperdiscriminant(d).evaluate_batch(a), fs, gs)


@pytest.mark.parametrize("n", [7, 11, 22, 23, 40, 100])
def test_schur_kernel_matches_lu_slogdet(n):
    # on 1,024 res:n samples, `_schur_det` certifies at least 99%, and each
    # certified value's log |det| and phase are within 1e-10 of LU's slogdet
    batch = gaussian_batch(MatrixShape(2, n + 1), 1024, np.random.default_rng(n))
    f, g = batch[:, 0, :].T.copy(), batch[:, 1, :].T.copy()
    got = varieties._schur_det(f, g)
    b = np.empty((n, n, len(batch)), dtype=complex)
    varieties._bezout(f, g, b, varieties._lu_det)  # fills b
    sign, log_abs = np.linalg.slogdet(b.transpose(2, 0, 1))
    ok = np.isfinite(got)
    assert ok.mean() >= 0.99
    assert np.max(np.abs(np.log(np.abs(got[ok])) - log_abs[ok])) < 1e-10
    phase = np.angle(got[ok] / (sign[ok] * (-1) ** (n * (n - 1) // 2)))
    assert np.max(np.abs(phase)) < 1e-10


def certifies_nothing(f, g):
    """A `_schur_det` seam that leaves every sample to the LU fallback."""
    return np.full(f.shape[1], np.nan, dtype=complex)


def by_lu(fs, gs, weights=(1, 1)):
    """Reference: the same resultants with every Bezout size past the minors
    factored by LU alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(varieties, "_schur_det", certifies_nothing)
        return _bezout_resultant(fs, gs, weights)


def test_bezout_stack_is_built_in_slices(monkeypatch):
    # with `_schur_det` certifying nothing, a disc:30 batch never goes to
    # the LU fallback more than the byte budget at once, and slicing changes
    # no determinant by a single bit
    det = np.linalg.det
    calls = []

    def recording_det(m):
        calls.append(m.shape[0])
        assert m.nbytes <= BEZOUT_STACK_BYTES
        return det(m)

    disc = rnc_hyperdiscriminant(30)
    batch = gaussian_batch(disc.shape, 2000, np.random.default_rng(4))
    monkeypatch.setattr(varieties, "_schur_det", certifies_nothing)
    monkeypatch.setattr(np.linalg, "det", recording_det)
    vals = disc.evaluate_batch(batch)
    assert len(calls) > 1 and sum(calls) == len(batch)
    # a window across the first slice boundary, factored in one unsliced call
    half = calls[0] // 2
    window = slice(calls[0] - half, calls[0] + half)
    calls.clear()
    unsliced = disc.evaluate_batch(batch[window])
    assert calls == [2 * half]
    assert vals[window].tobytes() == unsliced.tobytes()


def test_ldl_values_do_not_depend_on_slicing_or_threads(monkeypatch):
    # disc:12 factors at n = 11 by `_schur_det`: one 65,536-sample batch gives the
    # same bytes whole and in 1,000-sample pieces, LU fallbacks included, and
    # its heights the same numbers on one thread and two
    lu = varieties._lu_det
    fallbacks = []

    def recording_lu(b):
        fallbacks.append(b.shape[2])
        return lu(b)

    disc = rnc_hyperdiscriminant(12)
    batch = gaussian_batch(disc.shape, 1 << 16, np.random.default_rng(4))
    monkeypatch.setattr(varieties, "_lu_det", recording_lu)
    whole = disc.evaluate_batch(batch)
    assert fallbacks and sum(fallbacks) < 0.001 * len(batch)
    pieces = [disc.evaluate_batch(batch[lo:lo + 1000]) for lo in range(0, len(batch), 1000)]
    assert whole.tobytes() == np.concatenate(pieces).tobytes()
    one, two = (height(disc, samples=igusa.SHARD_SIZE + 4000, seed=9, threads=t)
                for t in (1, 2))
    assert (one.h, one.stderr, one.ess) == (two.h, two.stderr, two.ess)


# res:9 rows with a common root at 2s = 3t, of integer coefficients
COMMON_ROOT = [binary_form_mul([2, -3], [1, -2, 0, 3, 1, -1, 2, 0, 1]),
               binary_form_mul([2, -3], [2, 1, -1, 0, 3, -2, 1, 1, -3])]


@pytest.mark.parametrize("f, g, common_root", [
    # the first pivot R[0, 0] = f_0 g_n - g_0 f_n exactly 0, and 2^-12, under
    # 2^-10 of its column, while the resultant is not 0
    ({0: 1, -1: 2}, {0: 2, -1: 4}, False),
    ({0: 1, -1: 2}, {0: 2, -1: 4 + 2.0**-12}, False),
    # a common root: at 2s = 3t, at t = 0 (f_0 = g_0 = 0), at s = 0 (f_n = g_n = 0)
    (dict(enumerate(COMMON_ROOT[0])), dict(enumerate(COMMON_ROOT[1])), True),
    ({0: 0}, {0: 0}, True),
    ({-1: 0}, {-1: 0}, True),
], ids=["zero-pivot", "tiny-pivot", "common-root", "common-root-t", "common-root-s"])
def test_uncertified_ldl_samples_take_lus_value(f, g, common_root):
    # res:9 factors at n = 9 by `_schur_det`; the first sample, with the coefficients
    # f and g planted, fails its certificate and takes LU's value bit for bit
    batch = gaussian_batch(MatrixShape(2, 10), 300, np.random.default_rng(31))
    fs, gs = batch[:, 0, :].copy(), batch[:, 1, :].copy()
    for rows, planted in ((fs, f), (gs, g)):
        for j, c in planted.items():
            rows[0, j] = c
    got, want = _bezout_resultant(fs, gs), by_lu(fs, gs)
    assert got[:1].tobytes() == want[:1].tobytes()
    assert common_root or want[0] != 0
    assert np.max(np.abs(got[1:] - want[1:]) / np.abs(want[1:])) < 1e-10


def test_overflowing_ldl_batches_keep_lus_values_and_errors(monkeypatch):
    # scaled by 1e17, LU overflows on most of a res:9 batch: those samples
    # keep LU's inf bit for bit, the rest agree with it, and a height fails
    # with LU's named error and no RuntimeWarning
    p = rnc_resultant(9)
    batch = 1e17 * gaussian_batch(p.shape, 2000, np.random.default_rng(3))
    fs, gs = batch[:, 0, :], batch[:, 1, :]
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _bezout_resultant(fs, gs), by_lu(fs, gs)
    bad = ~np.isfinite(want)
    assert 0 < bad.sum() < len(want)
    assert got[bad].tobytes() == want[bad].tobytes()
    assert np.max(np.abs(got[~bad] - want[~bad]) / np.abs(want[~bad])) < 1e-10
    draw = igusa.gaussian_chunks
    monkeypatch.setattr(igusa, "gaussian_chunks",
                        lambda *args: (1e17 * chunk for chunk in draw(*args)))
    errors = []
    for kernel in (varieties._schur_det, certifies_nothing):
        monkeypatch.setattr(varieties, "_schur_det", kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ArithmeticError, EvaluationError)) as err:
                height(p, samples=1000, seed=2)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


# -- planted-root vanishing -----------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_resultant_planted_common_root(d):
    # split monic forms make the resultant's value an exact integer product
    # prod (alpha_i - beta_j): zero iff a root is shared
    rng = np.random.default_rng(100 + d)
    r = rnc_resultant(d)
    symbolic = isinstance(r, SparsePolynomial)
    for _ in range(50):
        alphas = distinct_roots(rng, d)
        shared_betas = [alphas[0]] + distinct_roots(rng, d - 1)  # plant a root
        coprime_betas = distinct_roots(rng, d, taboo=alphas)

        expected = 1
        for a in alphas:
            for b in coprime_betas:
                expected *= (a - b)
        if symbolic:
            got = r.evaluate_exact([split_form(alphas), split_form(coprime_betas)])
            assert abs(got) == abs(expected)
            planted = r.evaluate_exact([split_form(alphas), split_form(shared_betas)])
            assert planted == 0
        else:
            got = r.evaluate(rows_matrix(split_form(alphas), split_form(coprime_betas)))
            assert abs(abs(got) - abs(expected)) <= 1e-8 * abs(expected)
            planted = r.evaluate(rows_matrix(split_form(alphas),
                                              split_form(shared_betas)))
            assert abs(planted) <= 1e-8 * max(abs(expected), 1.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_discriminant_planted_double_root(d):
    # distinct integer roots guarantee squarefree; repeating one root
    # guarantees vanishing; symbolic range is asserted exactly
    rng = np.random.default_rng(200 + d)
    disc = rnc_hyperdiscriminant(d)
    for _ in range(50):
        roots = distinct_roots(rng, d)
        squarefree = split_form(roots)
        doubled = split_form([roots[0]] + roots[:-1])
        gen = disc.evaluate_exact([squarefree])
        val = disc.evaluate_exact([doubled])
        assert gen != 0
        assert val == 0


# -- examples & degrees ----------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_example_degrees(d):
    ex = rnc_example(d)
    assert ex.deg_R == 2 * d
    assert ex.deg_Delta == 2 * d - 2
    assert ex.N == d and ex.n == 1


def test_normalized_pair_degrees_match():
    ex = rnc_example(2)
    pair = normalized_pair(ex)
    assert pair.v.degree == pair.w.degree == ex.deg_R * ex.deg_Delta
    assert weight_polytope(pair.v) == dilate(weight_polytope(ex.R_X), ex.deg_Delta)


def test_conic_pair_is_diagonally_semistable_but_not_stable():
    # the conic's hyperdiscriminant polytope is a segment while the
    # identity-padded source is full-dimensional, so no twist exponent works
    ex = rnc_example(2)
    pair = normalized_pair(ex)
    assert semistable_diagonal(pair)
    q = ex.deg_R * ex.deg_Delta
    assert stable_search(pair, q=q, m_max=50) is None


def test_conic_pair_nu_matches_direct_scaling_oracle():
    # sigma diagonal: acting scales each monomial by its character, so the
    # log-norm ratio can be assembled term by term without any substitution
    ex = rnc_example(2)
    pair = normalized_pair(ex)
    t = (2.0, 1.0, 0.5)
    sigma = GroupElement.diagonal(t)

    def direct_log_ratio(p):
        num = 0.0
        den = 0.0
        for exps, coeff in p.terms.items():
            w = 1.0
            for row in exps:
                for e in row:
                    w *= math.factorial(e)
            cols = [sum(row[j] for row in exps) for j in range(p.shape.cols)]
            scale = 1.0
            for tj, cj in zip(t, cols):
                scale *= tj ** (2 * cj)
            num += abs(complex(coeff)) ** 2 * w * scale
            den += abs(complex(coeff)) ** 2 * w
        return math.log(num / den)

    want = (ex.deg_R * direct_log_ratio(ex.Delta_X)
            - ex.deg_Delta * direct_log_ratio(ex.R_X))
    assert nu_pair(pair, sigma) == pytest.approx(want, abs=1e-9)


# -- heights ---------------------------------------------------------------------------

def test_variety_heights_negative_at_d2():
    ex = rnc_example(2)
    h_f, h_delta = variety_heights(ex, samples=120_000, seed=5)
    assert h_f.h < -3 * h_f.stderr
    assert h_delta.h < -3 * h_delta.stderr


def test_conic_discriminant_height_against_brute_force_moments():
    # disc2 = a1^2 - 4 a0 a2: E|disc2|^2 = 18 exactly, so the h components
    # can be cross-checked through the mixed path
    from stabpair.igusa import height

    ex = rnc_example(2)
    mixed = height(ex.Delta_X, samples=150_000, seed=9)  # sparse: mixed method
    mc = height(ex.Delta_X, samples=150_000, seed=10, method="monte-carlo")
    assert mixed.method == "mixed"
    assert mixed.log_Z1 == pytest.approx(math.log(18.0) + float(log_gamma(3) - log_gamma(5)))
    assert abs(mixed.h - mc.h) < 3 * math.hypot(mixed.stderr, mc.stderr)


def test_height_scale_invariance_of_forms():
    ex = rnc_example(2)
    from stabpair.igusa import height

    a = height(ex.R_X, samples=100_000, seed=11, method="monte-carlo")
    b = height(10 * ex.R_X, samples=100_000, seed=12, method="monte-carlo")
    assert abs(a.h - b.h) < 3 * math.hypot(a.stderr, b.stderr)


# -- discrepancy -----------------------------------------------------------------------

def test_discrepancy_table_small():
    rows, fit = discrepancy_table([2, 3], samples=60_000, seed=1)
    assert [r.d for r in rows] == [2, 3]
    for r in rows:
        assert r.delta >= 0
        assert r.delta_over_d2 == pytest.approx(r.delta / r.d**2)
        assert r.h_F < 0 and r.h_Delta < 0
    # two points fix the line but leave no degree of freedom for its error
    assert fit["points"] == 2 and fit["exponent"] is not None
    assert fit["exponent_ci_halfwidth"] is None


def test_degeneration_limits_match_concrete_minor_powers():
    # the degenerate limit of the d=2 family heights: hDelta is the height
    # of z0^2 on the 1x3 space, hF the height of (2x2 minor)^2 on the 2x3
    # space; the first is an exact monomial height, the second Monte Carlo
    lim = degeneration_limit_heights(n=1, N=2, d=2, deg_R=4, deg_Delta=2,
                                     convention="standard")
    mono = height_monomial_closed(monomial(MatrixShape(1, 3), ((2, 0, 0),)))
    assert lim.hDelta_limit == pytest.approx(mono.h, abs=1e-10)

    minor = SparsePolynomial(
        MatrixShape(2, 3),
        {((1, 0, 0), (0, 1, 0)): 1, ((0, 1, 0), (1, 0, 0)): -1})
    minor_sq = minor * minor
    from stabpair.igusa import height

    rep = height(minor_sq, samples=250_000, seed=21, method="monte-carlo")
    assert abs(rep.h - lim.hF_limit) < 3.5 * rep.stderr


# -- symbolic determinant helper ---------------------------------------------------------

def sylvester_rows(f, g, shape):
    """Reference: the symbolic Sylvester matrix of two coefficient vectors."""
    size = len(f) + len(g) - 2
    zero = SparsePolynomial(shape, {}, 0)
    return [[zero] * i + list(coeffs) + [zero] * (size - i - len(coeffs))
            for coeffs, count in ((f, len(g) - 1), (g, len(f) - 1)) for i in range(count)]


def test_poly_det_matches_numeric():
    rng = np.random.default_rng(8)
    d = 3
    shape = MatrixShape(2, d + 1)
    a = _coeff_vars(shape, 0)
    b = _coeff_vars(shape, 1)
    sym = poly_det(sylvester_rows(a, b, shape))
    for _ in range(10):
        arr = rng.standard_normal((2, d + 1)) + 1j * rng.standard_normal((2, d + 1))
        want = _bezout_resultant(arr[None, 0, :], arr[None, 1, :])[0]
        assert sym.evaluate(arr) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("d", range(2, 6))
def test_bezout_forms_equal_sylvester_resultants(d):
    shape = MatrixShape(2, d + 1)
    a, b = _coeff_vars(shape, 0), _coeff_vars(shape, 1)
    want = poly_det(sylvester_rows(a, b, shape))
    assert _symbolic_resultant(a, b) == want
    if d <= 4:
        assert rnc_resultant(d) == want


@pytest.mark.parametrize("d", range(2, 7))
def test_bezout_discriminants_equal_normalized_sylvester(d):
    shape = MatrixShape(1, d + 1)
    ds, dt = _derivative_coeffs(_coeff_vars(shape, 0), d)
    raw = poly_det(sylvester_rows(ds, dt, shape))
    want = raw * Fraction(1, raw.terms[min(raw.terms)])
    got = rnc_hyperdiscriminant(d) if d <= 5 else _symbolic_resultant(ds, dt)
    assert got * Fraction(1, got.terms[min(got.terms)]) == want
    if d <= 5:
        assert got == want
        assert all(type(c) is int for c in got.terms.values())


# -- the black-box homogeneity spot check --------------------------------------------------

def test_spot_check_raises_on_overflow_and_passes_below():
    # at disc:200 every spot value overflows a float, so no declared degree
    # can be checked there, the true one included
    d = 200
    weights = _derivative_coeffs([1] * (d + 1), d)

    def disc(batch):
        return _bezout_resultant(batch[:, 0, :d], batch[:, 0, 1:], weights)

    for degree in (2 * d - 3, 2 * d - 2, 2 * d - 1):
        with pytest.raises(OverflowError, match="not finite"):
            BlackBoxPolynomial(MatrixShape(1, d + 1), degree, disc)
    # below the overflow, a degree off by one is caught
    base = rnc_hyperdiscriminant(40)
    for degree in (77, 79):
        with pytest.raises(ValueError, match="homogeneity"):
            BlackBoxPolynomial(base.shape, degree, base.evaluator)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rnc_hyperdiscriminant(40).degree == 78
        assert rnc_resultant(120).degree == 240
