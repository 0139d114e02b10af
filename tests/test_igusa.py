"""Gaussian zeta functions, heights, gamma tools, degeneration closed forms."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stabpair import igusa, polyrep
from stabpair.igusa import (
    EULER_GAMMA,
    EvaluationError,
    degeneration_limit_heights,
    digamma,
    harmonic,
    height,
    height_bounds_audit,
    height_det_closed,
    height_monomial_closed,
    log_gamma,
    mc_moment,
    zeta,
    zeta_det,
    zeta_det_closed,
    zeta_det_prime_zero,
    zeta_prime_zero,
)
from stabpair.polyrep import (
    BlackBoxPolynomial,
    FormalPower,
    MatrixShape,
    SparsePolynomial,
    act,
    constant,
    determinant_poly,
    gaussian_batch,
    monomial,
)
from stabpair.varieties import rnc_hyperdiscriminant

# high-precision reference values (40-digit evaluation, rounded to double)
LOG_GAMMA_FIXTURE = [
    (0.5, 0.5723649429247001),
    (1.0, 0.0),
    (1.5, -0.12078223763524522),
    (2.0, 0.0),
    (3.75, 1.486815578593417),
    (7.0, 6.579251212010101),
    (12.5, 18.734347511936445),
    (26.0, 58.00360522298052),
    (121.0, 457.81238798127816),
    (1234.5, 7550.550901077895),
    (100000.0, 1051287.7089736569),
]
DIGAMMA_FIXTURE = [
    (0.5, -1.9635100260214235),
    (1.0, -0.5772156649015329),
    (1.5, 0.03648997397857652),
    (2.0, 0.42278433509846713),
    (3.75, 1.1825373886117962),
    (7.0, 1.8727843350984672),
    (12.5, 2.4851956512749123),
    (26.0, 3.238742512851974),
    (121.0, 4.791652622451862),
    (1234.5, 7.118016231827998),
    (100000.0, 11.512920464961896),
]


def disc2():
    return SparsePolynomial(MatrixShape(1, 3), {((0, 2, 0),): 1, ((1, 0, 1),): -4})


def z0(cols):
    return monomial(MatrixShape(1, cols), (tuple(1 if j == 0 else 0
                                                 for j in range(cols)),))


# -- gamma tools -----------------------------------------------------------------

def test_gamma_fixtures():
    for x, want in LOG_GAMMA_FIXTURE:
        assert float(log_gamma(x)) == pytest.approx(want, rel=1e-12, abs=1e-12)
    for x, want in DIGAMMA_FIXTURE:
        assert float(digamma(x)) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_harmonic_exact_values():
    assert harmonic(0) == 0
    assert harmonic(4) == Fraction(25, 12)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_harmonic_matches_digamma():
    for k in (1, 10, 100, 1000, 10000):
        want = float(digamma(k + 1)) + EULER_GAMMA
        assert abs(float(harmonic(k)) - want) < 1e-12


@pytest.mark.parametrize("name, roots", [("log_gamma", (1.0, 2.0)),
                                         ("digamma", (1.4616321449683622,))])
def test_gamma_functions_match_scipy(name, roots):
    # relative agreement, except within 0.1 of a root, where it is absolute
    from scipy import special

    reference = {"log_gamma": special.gammaln, "digamma": special.digamma}[name]
    rng = np.random.default_rng(19)
    x = np.concatenate([500.0 - rng.uniform(0.0, 500.0, 3000),  # (0, 500]
                        rng.uniform(0.0, 3.0, 1000), np.arange(1.0, 501.0)])
    got, want = getattr(igusa, name)(x), reference(x)
    near = np.min(np.abs(x[:, None] - np.array(roots)), axis=1) < 0.1
    tol = np.where(near, 2e-15, 1e-13 * np.abs(want))
    assert np.all(np.abs(got - want) <= tol)


def test_digamma_at_integers_is_a_harmonic_sum():
    for n in range(1, 301):
        want = float(harmonic(n - 1)) - EULER_GAMMA
        assert float(digamma(n)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("fn", [log_gamma, digamma])
def test_gamma_functions_keep_input_shapes(fn):
    for x in (3, 2.5, np.float64(4.0), np.array(7.0)):
        value = fn(x)
        assert isinstance(value, float) and np.ndim(value) == 0
    for shape in ((0,), (3,), (2, 2)):
        x = np.arange(1, 1 + math.prod(shape), dtype=float).reshape(shape)
        assert fn(x).shape == shape
        assert fn(x.tolist()).shape == shape
    with pytest.raises(ValueError):
        fn(0.0)


# -- mc_moment ---------------------------------------------------------------------

def test_moment_s_zero_short_circuits():
    est = mc_moment(disc2(), 0.0, samples=10, seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0 and est.samples == 0


def test_moment_single_coordinate():
    est = mc_moment(z0(2), 1.0, samples=200_000, seed=2)
    assert abs(est.mean - 1.0) < 3 * est.stderr


def test_moment_det2_matches_exact_expansion():
    est = mc_moment(determinant_poly(2), 1.0, samples=200_000, seed=3)
    assert abs(est.mean - 2.0) < 3 * est.stderr


def test_moment_matches_det_closed_form_oracle():
    for n, s in [(1, 1.0), (1, 2.0), (2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)]:
        samples = 200_000 if s < 2 else 400_000
        est = mc_moment(determinant_poly(n), s, samples=samples, seed=10 * n + int(s))
        want = zeta_det_closed(n, s, "standard")
        assert abs(est.mean - want) < 3.5 * est.stderr, (n, s, est.mean, want)


def test_moment_deterministic_across_threads():
    a = mc_moment(determinant_poly(2), 1.0, samples=150_000, seed=5, threads=1)
    b = mc_moment(determinant_poly(2), 1.0, samples=150_000, seed=5, threads=4)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_blackbox_height_deterministic_across_threads():
    # three shards of the Bezout black box disc:8, merged in shard order
    one = height(rnc_hyperdiscriminant(8), samples=140_000, seed=9, threads=1)
    two = height(rnc_hyperdiscriminant(8), samples=140_000, seed=9, threads=2)
    assert (one.h, one.stderr) == (two.h, two.stderr)


def test_moment_heavy_tail_warning():
    est = mc_moment(z0(2), 6.0, samples=100_000, seed=8)
    assert est.tail_warning and est.ess == pytest.approx(19.6, abs=0.05)


@pytest.mark.parametrize("poly, s, ess, warns", [
    (z0(2), 2.0, 16_200, False),
    (determinant_poly(2), 2.0, 5_700, False),
    # one sample carries the whole mean, at s = 1
    (rnc_hyperdiscriminant(12), 1.0, 1.0, True),
], ids=["z0-s2", "det:2-s2", "disc:12-s1"])
def test_heavy_tail_warning_reads_the_effective_sample_size(poly, s, ess, warns, caplog):
    est = mc_moment(poly, s, samples=100_000, seed=8)
    assert est.ess == pytest.approx(ess, rel=0.05)
    assert est.tail_warning is warns
    assert ("effective sample size" in caplog.text) is warns


def test_sampled_log_z1_reports_its_effective_sample_size(caplog):
    # the same samples as the disc:12 moment above: one carries the whole Z(1)
    rep = height(rnc_hyperdiscriminant(12), samples=100_000, seed=8)
    assert rep.method == "monte-carlo"
    assert rep.ess == pytest.approx(1.03, abs=0.005)
    assert "effective sample size 1.0 of 100000 samples of |P|^2 in log Z(1)" in caplog.text
    # an exact log Z(1) has no weights to count
    assert height(disc2(), samples=2000, seed=1).ess is None
    assert height_monomial_closed(z0(2)).ess is None


def test_effective_sample_size_is_that_of_the_pooled_samples():
    # three shards merged by Chan steps give (sum x)^2 / sum x^2 of all samples
    p, samples = determinant_poly(2), 150_000
    sizes = [igusa.SHARD_SIZE, igusa.SHARD_SIZE, samples - 2 * igusa.SHARD_SIZE]
    seqs = np.random.SeedSequence(4).spawn(len(sizes))
    x = np.concatenate([
        np.abs(p.evaluate_batch(gaussian_batch(p.shape, size, np.random.default_rng(seq)))) ** 4
        for size, seq in zip(sizes, seqs)])
    est = mc_moment(p, 2.0, samples=samples, seed=4)
    assert est.mean == pytest.approx(x.mean(), rel=1e-12)
    assert est.ess == pytest.approx(x.sum() ** 2 / (x * x).sum(), rel=1e-9)


def test_moment_rejects_negative_s_and_nonfinite():
    with pytest.raises(ValueError):
        mc_moment(disc2(), -1.0, samples=100)
    bad = BlackBoxPolynomial(MatrixShape(1, 2), 1,
                             evaluator=lambda b: np.full(b.shape[0], np.nan),
                             check_samples=0)
    with pytest.raises(EvaluationError):
        mc_moment(bad, 1.0, samples=100, seed=0)


# -- zeta ---------------------------------------------------------------------------

def test_zeta_at_zero_is_exactly_one():
    for p in (disc2(), determinant_poly(2), z0(3)):
        est = zeta(p, 0.0)
        assert est.value == 1.0 and est.stderr == 0.0


def test_zeta_linear_form():
    # Z(z0; 1) = Gamma(N+1)/Gamma(N+2) * 1 = 1/2 at N = 1
    est = zeta(z0(2), 1.0, samples=200_000, seed=4)
    assert abs(est.value - 0.5) < 3 * est.stderr


def test_zeta_det2():
    # D = 4, degree 2: Gamma(4)/Gamma(6) * 2 = 1/10
    est = zeta(determinant_poly(2), 1.0, samples=200_000, seed=6)
    assert abs(est.value - 0.1) < 3 * est.stderr
    assert est.log_value == pytest.approx(math.log(est.value))


def test_zeta_det_closed_conventions():
    assert zeta_det_closed(1, 1.0, "paper") == pytest.approx(1 / math.pi)
    assert zeta_det_closed(1, 1.0, "standard") == pytest.approx(1.0)
    assert zeta_det_closed(2, 1.0, "standard") == pytest.approx(2.0)
    assert zeta_det_closed(3, 1.0, "standard") == pytest.approx(6.0)
    with pytest.raises(ValueError):
        zeta_det_closed(2, 1.0, "bogus")


def test_zeta_det_normalized_value():
    # Z(det_2; 1) over the square 2x2 space: Gamma(4)/Gamma(6) * 2 = 1/10
    assert zeta_det(2, 1.0, cols=2, convention="standard") == pytest.approx(0.1)
    # extra columns only change the gamma normalization
    assert zeta_det(2, 1.0, cols=3, convention="standard") == \
        pytest.approx(math.exp(log_gamma(6) - log_gamma(8)) * 2.0)


# -- Z'(0) -----------------------------------------------------------------------------

def test_zeta_prime_zero_constant():
    c = constant(MatrixShape(1, 3), 5)
    val, se = zeta_prime_zero(c, samples=1000, seed=1)
    assert val == pytest.approx(math.log(25.0), abs=1e-12)
    assert se < 1e-12


def test_zeta_prime_zero_linear_and_square():
    val, se = zeta_prime_zero(z0(2), samples=300_000, seed=2)
    assert abs(val - (-1.0)) < 3 * se
    sq = monomial(MatrixShape(1, 2), ((2, 0),))
    val2, se2 = zeta_prime_zero(sq, samples=300_000, seed=3)
    assert abs(val2 - (-2.0)) < 3 * se2


def test_zeta_prime_zero_det_matches_digamma_sum():
    # E log|det_n|^2 = sum_{k<=n} psi(k)
    n = 2
    want = float(np.sum(digamma(np.arange(1, n + 1)))) - n * float(digamma(4))
    val, se = zeta_prime_zero(determinant_poly(n), samples=300_000, seed=4)
    assert abs(val - want) < 3 * se


# -- heights -----------------------------------------------------------------------------

def test_height_constant_is_zero():
    rep = height(constant(MatrixShape(1, 4), 3 - 4j))
    assert rep.method == "closed-form"
    assert rep.h == pytest.approx(0.0, abs=1e-12)


def test_height_linear_form_closed():
    rep = height(z0(2))
    assert rep.method == "closed-form"
    assert rep.h == pytest.approx(math.log(2) - 1)
    assert rep.h == pytest.approx(-rep.log_Z1 + rep.Zprime0)


def test_height_monomial_closed_values():
    # h(z0^d) on C^2: log(d+1) - d
    for d in (1, 2, 3, 5):
        p = monomial(MatrixShape(1, 2), ((d, 0),))
        assert height(p).h == pytest.approx(math.log(d + 1) - d)


def test_height_monomial_closed_matches_monte_carlo():
    rng = np.random.default_rng(14)
    for _ in range(10):
        cols = int(rng.integers(2, 5))
        d = int(rng.integers(1, 5))
        flat = rng.multinomial(d, np.ones(cols) / cols)
        p = monomial(MatrixShape(1, cols), (tuple(int(x) for x in flat),))
        closed = height_monomial_closed(p)
        mc = height(p, samples=200_000, seed=int(rng.integers(10**6)),
                    method="monte-carlo")
        assert abs(closed.h - mc.h) < 3.5 * mc.stderr
        assert mc.method == "monte-carlo"


def test_height_mixed_path_for_sparse():
    rep = height(disc2(), samples=100_000, seed=7)
    assert rep.method == "mixed"
    # exact part: log Z(1) = log(Gamma(3)/Gamma(5) * 18) = log(18/12)
    assert rep.log_Z1 == pytest.approx(math.log(18.0 / 12.0))
    assert rep.h == pytest.approx(-rep.log_Z1 + rep.Zprime0)


def test_height_scale_invariance():
    a = height(disc2(), samples=150_000, seed=21)
    b = height(10 * disc2(), samples=150_000, seed=22)
    combined = math.hypot(a.stderr, b.stderr)
    assert abs(a.h - b.h) < 3 * combined


def test_height_unitary_invariance():
    rng = np.random.default_rng(33)
    g = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    a = height(disc2(), samples=150_000, seed=31)
    b = height(act(g, disc2()), samples=150_000, seed=32)
    combined = math.hypot(a.stderr, b.stderr)
    assert abs(a.h - b.h) < 3 * combined


def test_height_det_closed_matches_mc():
    want = height_det_closed(2, cols=2, convention="standard")
    got = height(determinant_poly(2), samples=300_000, seed=9, method="monte-carlo")
    assert abs(want - got.h) < 3.5 * got.stderr


def test_height_scales_formal_powers_linearly():
    mono = monomial(MatrixShape(1, 3), ((2, 1, 0),))
    for base_poly, kwargs in ((mono, {}), (disc2(), {"samples": 2000, "seed": 5})):
        base = height(base_poly, **kwargs)
        rep = height(FormalPower(base_poly, 3), **kwargs)
        assert rep.method == base.method + "+formal-linear"
        assert (rep.h, rep.log_Z1, rep.Zprime0, rep.stderr, rep.ci_halfwidth) == (
            3 * base.h, 3 * base.log_Z1, 3 * base.Zprime0, 3 * base.stderr,
            3 * base.ci_halfwidth)
        assert (rep.samples, rep.seed) == (base.samples, base.seed)


def test_height_raises_on_non_finite_report():
    # at d = 23 the variance of |P|^2 overflows while h itself stays finite
    with pytest.raises(OverflowError, match="non-finite value inf for 'stderr'"):
        height(rnc_hyperdiscriminant(23), samples=4096, seed=0)


@pytest.mark.parametrize("estimator, d, field", [
    (lambda p: mc_moment(p, 1.0, samples=2000, seed=7), 24, "stderr"),
    (lambda p: mc_moment(p, 1.0, samples=2000, seed=7), 40, "mean"),
    (lambda p: zeta(p, 1.0, samples=2000, seed=7), 24, "stderr"),
    (lambda p: zeta(p, 1.0, samples=2000, seed=7), 40, "mean"),
    (lambda p: zeta_prime_zero(p, samples=2000, seed=7), 40, "Zprime0"),
    (lambda p: height(p, samples=2000, seed=7), 24, "stderr"),
    (lambda p: height(p, samples=2000, seed=7), 40, "h"),
])
def test_estimators_raise_on_non_finite_results(estimator, d, field):
    # |P|^2 of disc:24 has a variance past the float range; at disc:40 |P|^2
    # itself overflows.  The error names the field, and no numpy warning
    # (an error under the test settings) is raised first.
    with pytest.raises(OverflowError, match=f"non-finite value .* for '{field}'"):
        estimator(rnc_hyperdiscriminant(d))


def test_log_moments_stay_finite_where_the_moment_overflows():
    value, stderr = zeta_prime_zero(rnc_hyperdiscriminant(24), samples=2000, seed=7)
    assert math.isfinite(value) and math.isfinite(stderr)


def slab_zero(b):
    """A black box that is exactly zero on a thin slab."""
    v = b[:, 0, 0].copy()
    v[np.abs(v.real) <= 1e-3] = 0.0
    return v


def test_height_resampling_counter():
    # resampling the slab's zeros finishes
    p = BlackBoxPolynomial(MatrixShape(1, 2), 1, evaluator=slab_zero, check_samples=0)
    rep = height(p, samples=50_000, seed=11)
    assert rep.resampled > 0
    assert np.isfinite(rep.h)


def test_non_finite_redraw_names_its_shard_and_sample():
    # the second shard's 100 samples hold one zero, at sample 37; its redraw
    # is infinite
    def ev(b):
        v = np.ones(len(b), dtype=complex)
        if len(b) == 100:
            v[37] = 0.0
        elif len(b) == 1:
            v[0] = np.inf
        return v

    p = BlackBoxPolynomial(MatrixShape(1, 2), 1, evaluator=ev, check_samples=0)
    with pytest.raises(EvaluationError) as err:
        height(p, samples=igusa.SHARD_SIZE + 100, seed=0)
    assert str(err.value) == "non-finite value during resampling in shard 1, sample 37"


# -- streamed shards -------------------------------------------------------------------

def whole_batch(shape, count, rng):
    """A shard's draws as one gaussian_batch, evaluated in one call."""
    yield gaussian_batch(shape, count, rng)


def test_streamed_shard_stats_equal_the_whole_batch(monkeypatch):
    # 10,000 samples make two full chunks and a partial one; the slab black
    # box plants zeros, which are redrawn after the whole shard
    slab = BlackBoxPolynomial(MatrixShape(1, 2), 1, evaluator=slab_zero, check_samples=0)
    seq = np.random.SeedSequence(5).spawn(3)[2]
    for p, s, need_log in ((rnc_hyperdiscriminant(12), 1.0, True),
                           (determinant_poly(3), 0.5, False),
                           (slab, 1.0, True)):
        streamed = igusa._shard_stats(p, 10_000, seq, s, need_log, 2)
        with monkeypatch.context() as m:
            m.setattr(igusa, "gaussian_chunks", whole_batch)
            whole = igusa._shard_stats(p, 10_000, seq, s, need_log, 2)
        assert streamed == whole
    assert streamed.resampled > 0


def test_streamed_shard_names_the_non_finite_sample_as_the_whole_batch_does(monkeypatch):
    # the first infinite value lies in the second chunk; its index is the
    # shard's, not the chunk's
    p = BlackBoxPolynomial(
        MatrixShape(1, 3), 1, check_samples=0,
        evaluator=lambda b: np.where(np.abs(b[:, 0, 0]) > 3.0, np.inf, b[:, 0, 0]))
    seq = np.random.SeedSequence(3).spawn(4)[3]
    batch = gaussian_batch(p.shape, 20_000, np.random.default_rng(seq))
    first = int(np.flatnonzero(np.abs(batch[:, 0, 0]) > 3.0)[0])
    assert first > polyrep.EVALUATION_CHUNK
    messages = []
    for stream in (igusa.gaussian_chunks, whole_batch):
        monkeypatch.setattr(igusa, "gaussian_chunks", stream)
        with pytest.raises(EvaluationError) as err:
            igusa._shard_stats(p, 20_000, seq, 1.0, True, 3)
        messages.append(str(err.value))
    assert messages == [f"non-finite value at shard 3, sample {first}"] * 2


def test_a_streamed_shard_holds_its_real_parts_not_its_complex_batch():
    # one 65,536-sample disc:12 shard: its real parts take 6.5 MiB, and its
    # whole complex batch would take another 13 MiB
    p = rnc_hyperdiscriminant(12)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        height(p, samples=65_536, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 15 * 2**20


# -- bounds audit ----------------------------------------------------------------------

def test_bounds_audit_reports():
    p = disc2()
    audit = height_bounds_audit(p, samples=50_000, seed=12)
    assert audit.ambient_projective_dim == 2 and audit.degree == 2
    assert audit.lower == pytest.approx(-2.0)        # -d * H_1
    assert audit.lower_alt == pytest.approx(-3.0)    # -d * H_2
    assert audit.upper == 0.0
    assert audit.pass_upper  # heights of nonconstant forms sit below zero
    assert isinstance(audit.pass_lower, bool)


def test_bounds_audit_flags_stated_bound_failure_on_p1():
    # on the projective line the stated lower sum is empty, forcing h = 0;
    # the computed height of z0^2 is log(3) - 2 < 0, so the audit records a
    # failure instead of raising
    p = monomial(MatrixShape(1, 2), ((2, 0),))
    audit = height_bounds_audit(p, samples=10_000, seed=13)
    assert audit.lower == 0.0
    assert not audit.pass_lower
    assert audit.pass_lower_alt


def test_bounds_audit_constant_sits_on_upper_bound():
    audit = height_bounds_audit(constant(MatrixShape(1, 3), 2.5), samples=1000,
                                seed=3)
    assert audit.report.h == pytest.approx(0.0, abs=1e-12)
    assert audit.pass_upper and audit.pass_lower


def test_bounds_audit_rejects_matrix_spaces():
    with pytest.raises(ValueError):
        height_bounds_audit(determinant_poly(2))


# -- degeneration closed forms ------------------------------------------------------------

def test_degeneration_small_d_finite_negative():
    lim = degeneration_limit_heights(n=1, N=2, d=2, deg_R=4, deg_Delta=2)
    assert np.isfinite(lim.hF_limit) and lim.hF_limit < 0
    assert np.isfinite(lim.hDelta_limit) and lim.hDelta_limit < 0
    assert lim.delta_limit >= 0


def test_degeneration_height_ratio_approaches_minus_two():
    # paper-convention closed forms: the d*log(d) coefficient of hF fits -4
    # = -2 * (deg_R / d), so hF / (deg_R log d) -> -2; the raw ratio converges
    # like 1/log(d), the fit removes the O(d) term
    ds = np.arange(20, 201)
    y = np.array([degeneration_limit_heights(1, d, d, 2 * d, 2 * d - 2,
                                             convention="paper").hF_limit
                  for d in ds])
    X = np.column_stack([ds * np.log(ds), ds, np.ones_like(ds, dtype=float)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert abs(coef[0] - (-4.0)) < 0.4
    # raw ratio drifts toward -2 monotonically
    r50 = degeneration_limit_heights(1, 50, 50, 100, 98, convention="paper")
    r400 = degeneration_limit_heights(1, 400, 400, 800, 798, convention="paper")
    assert abs(r400.hF_limit / (800 * math.log(400)) + 2) < \
        abs(r50.hF_limit / (100 * math.log(50)) + 2)


def test_degeneration_delta_over_d2_bounded_both_conventions():
    for conv in ("standard", "paper"):
        ratios = [degeneration_limit_heights(1, d, d, 2 * d, 2 * d - 2,
                                             convention=conv).delta_limit / d**2
                  for d in range(10, 201, 10)]
        assert max(ratios) / min(ratios) < 3


def test_degeneration_validates_inputs():
    with pytest.raises(ValueError):
        degeneration_limit_heights(0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        zeta_det_prime_zero(2, cols=3, convention="nope")
