"""Energy functionals: norms, nu, J, rays, properness, orbit distance."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stabpair import energy, polyrep
from stabpair.energy import (
    _descend,
    _gl,
    _nu_objective,
    _overlap_objective,
    _pairing,
    energy_report,
    gaussian_inner,
    gaussian_norm_sq,
    j_along_ray,
    j_aubin,
    log_gaussian_norm_sq,
    nu_along_ray,
    nu_infimum,
    nu_pair,
    orbit_distance,
    properness_probe,
)
from stabpair.pairstab import PairSpec, ops_weight
from stabpair.polyrep import (
    FormalPower,
    GroupElement,
    MatrixShape,
    OnePSG,
    SparsePolynomial,
    _coefficients,
    _moment_plan,
    act,
    constant,
    determinant_poly,
    monomial,
)
from stabpair.varieties import rnc_hyperdiscriminant, rnc_resultant

S12 = MatrixShape(1, 2)
S13 = MatrixShape(1, 3)


def disc2():
    return SparsePolynomial(S13, {((0, 2, 0),): 1, ((1, 0, 1),): -4})


def binary(coeffs):
    """Binary form sum_j coeffs[j] z0^(d-j) z1^j on the 1x2 space."""
    d = len(coeffs) - 1
    return SparsePolynomial(S12, {((d - j, j),): c for j, c in enumerate(coeffs)
                                  if c != 0})


# -- norms ------------------------------------------------------------------------

def test_gaussian_norm_examples():
    assert gaussian_norm_sq(monomial(S13, ((1, 0, 0),))) == 1.0
    assert gaussian_norm_sq(disc2()) == 18.0
    assert gaussian_norm_sq(determinant_poly(2)) == 2.0


def test_log_norm_formal_power_linearity():
    lw = log_gaussian_norm_sq(disc2())
    assert log_gaussian_norm_sq(FormalPower(disc2(), 7)) == pytest.approx(7 * lw)


def test_gaussian_norm_blackbox_matches_exact():
    from stabpair.polyrep import BlackBoxPolynomial

    bb = BlackBoxPolynomial(MatrixShape(2, 2), 2,
                            evaluator=np.linalg.det)
    assert gaussian_norm_sq(bb, samples=200_000, seed=3) == pytest.approx(2.0, rel=0.02)


def test_gaussian_inner_orthogonality_and_weights():
    a = monomial(S12, ((2, 0),))
    b = monomial(S12, ((1, 1),))
    assert gaussian_inner(a, b) == 0
    assert gaussian_inner(a, a) == 2.0  # 2! * 0!
    mixed = binary([1, 1, 0])
    assert gaussian_inner(mixed, a) == 2.0


# -- nu ---------------------------------------------------------------------------

def test_nu_identity_is_zero():
    pair = PairSpec.of(disc2(), FormalPower(disc2(), 2))
    assert nu_pair(pair, GroupElement.identity(3)) == pytest.approx(0.0, abs=1e-12)


def test_nu_monomials_under_torus():
    v = monomial(S13, ((2, 0, 0),))
    w = monomial(S13, ((0, 1, 1),))
    pair = PairSpec.of(v, w)
    t = (2.0, 0.5, 1.0)
    sigma = GroupElement.diagonal(t)
    want = (2 * (math.log(t[1]) + math.log(t[2]))  # w character (0,1,1)
            - 2 * (2 * math.log(t[0])))            # v character (2,0,0)
    assert nu_pair(pair, sigma) == pytest.approx(want)


def test_nu_projective_invariance():
    other = SparsePolynomial(S13, {((2, 0, 0),): 1, ((0, 2, 0),): 1, ((0, 0, 2),): 1})
    pair1 = PairSpec.of(disc2(), other)
    pair2 = PairSpec.of(3 * disc2(), other * (0.25 + 0j))
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sigma = GroupElement(m / np.linalg.det(m) ** (1 / 3))
        assert nu_pair(pair1, sigma) == pytest.approx(nu_pair(pair2, sigma), abs=1e-9)


def test_nu_cocycle_on_torus_for_monomials():
    v = monomial(S13, ((1, 1, 0),))
    w = monomial(S13, ((0, 0, 2),))
    pair = PairSpec.of(v, w)
    s1 = GroupElement.diagonal((2.0, 1.0, 0.5))
    s2 = GroupElement.diagonal((0.25, 4.0, 1.0))
    assert nu_pair(pair, s1 @ s2) == pytest.approx(
        nu_pair(pair, s1) + nu_pair(pair, s2), abs=1e-9)


def test_nu_unitary_invariance():
    rng = np.random.default_rng(11)
    pair = PairSpec.of(disc2(), disc2() * 2)
    for _ in range(5):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = np.linalg.qr(g)[0]
        assert abs(nu_pair(pair, GroupElement(u))) < 1e-8


def test_nu_blackbox_pair_matches_sparse():
    # black-box components go through Monte Carlo norms; the same pair in
    # sparse form is exact, so the two must agree within sampling noise
    from stabpair.polyrep import BlackBoxPolynomial

    det2 = determinant_poly(2)
    bb = BlackBoxPolynomial(MatrixShape(2, 2), 2,
                            evaluator=np.linalg.det)
    sigma = GroupElement.diagonal((2.0, 0.5))
    exact_pair = PairSpec.of(constant(MatrixShape(2, 2), 1), det2)
    bb_pair = PairSpec.of(constant(MatrixShape(2, 2), 1), bb)
    exact_val = nu_pair(exact_pair, sigma)
    mc_val = nu_pair(bb_pair, sigma, samples=200_000, seed=6)
    assert abs(mc_val - exact_val) < 0.05


def test_nu_formal_power_scales_log_ratios():
    base = PairSpec.of(disc2(), disc2())
    powered = PairSpec.of(FormalPower(disc2(), 3), FormalPower(disc2(), 5))
    sigma = GroupElement.diagonal((2.0, 1.0, 0.5))
    ratio = nu_pair(PairSpec.of(constant(S13, 1), disc2()), sigma)  # log ratio of w only
    assert nu_pair(powered, sigma) == pytest.approx((5 - 3) * ratio, abs=1e-9)
    assert nu_pair(base, sigma) == pytest.approx(0.0, abs=1e-12)


# -- J ---------------------------------------------------------------------------

def test_j_identity_zero():
    assert j_aubin(disc2(), GroupElement.identity(3)) == pytest.approx(0.0, abs=1e-12)


def test_j_torus_fixed_vector():
    # v = z0 z1 has projected character zero: only the trace term remains
    v = monomial(S12, ((1, 1),))
    for t in (2.0, 5.0, 0.3):
        sigma = GroupElement.diagonal((t, 1 / t))
        want = 2 * math.log((t * t + 1 / (t * t)) / 2)
        assert j_aubin(v, sigma) == pytest.approx(want)


def test_j_mumford_shape_for_constants():
    # constant v: module degree 1, no norm movement: J = log(trace/(N+1))
    v = constant(S12, 1)
    sigma = GroupElement.diagonal((3.0, 1 / 3.0))
    want = math.log((9 + 1 / 9) / 2)
    assert j_aubin(v, sigma) == pytest.approx(want)


def test_j_nonnegative_on_diagonal_for_balanced_monomials():
    # balanced characters keep the norm fixed on the torus, so J reduces to
    # the trace term, which AM-GM keeps nonnegative for determinant-1 scalings
    rng = np.random.default_rng(7)
    v = monomial(S12, ((1, 1),))
    for _ in range(20):
        r = rng.uniform(-2, 2)
        sigma = GroupElement.diagonal((math.exp(r), math.exp(-r)))
        assert j_aubin(v, sigma) >= -1e-12


def test_j_sign_audit_is_reported_not_asserted():
    # J can dip below zero away from balanced vectors (a unipotent shear on
    # z0 z1 already does it); the functional is reported as-is
    v = monomial(S12, ((1, 1),))
    shear = GroupElement(((1, 1), (0, 1)))
    val = j_aubin(v, shear)
    assert val == pytest.approx(2 * math.log(1.5) - math.log(3.0))
    assert val < 0


def test_energy_report_assembles_components():
    pair = PairSpec.of(disc2(), FormalPower(disc2(), 2))
    sigma = GroupElement.diagonal((2.0, 1.0, 0.5))
    rep = energy_report(pair, sigma)
    w_ratio, v_ratio, trace_term = rep.components
    assert rep.nu == w_ratio - v_ratio
    assert rep.j == pytest.approx(pair.degree_v * trace_term - v_ratio)


# -- rays ---------------------------------------------------------------------------

def test_nu_along_ray_matches_direct_action():
    lam = OnePSG((1, 0, -1))
    for pair in (PairSpec.of(disc2(), disc2() * 3),
                 PairSpec.of(FormalPower(rnc_resultant(2), 2),
                             FormalPower(rnc_hyperdiscriminant(2), 2))):
        for t in (0.5, 0.1):
            direct = nu_pair(pair, GroupElement(lam.matrix(t)))
            stable = float(nu_along_ray(pair, lam, [t])[0])
            assert direct == pytest.approx(stable, abs=1e-9)


def test_nu_ray_slope_equals_weight_difference():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        cols = int(rng.integers(2, 4))
        deg_v = int(rng.integers(1, 4))
        deg_w = int(rng.integers(1, 4))
        v_terms = {}
        for _ in range(int(rng.integers(1, 4))):
            flat = tuple(int(x) for x in rng.multinomial(deg_v, np.ones(cols) / cols))
            v_terms[(flat,)] = int(rng.integers(1, 4))
        w_terms = {}
        for _ in range(int(rng.integers(1, 4))):
            flat = tuple(int(x) for x in rng.multinomial(deg_w, np.ones(cols) / cols))
            w_terms[(flat,)] = int(rng.integers(1, 4))
        v = SparsePolynomial(MatrixShape(1, cols), v_terms)
        w = SparsePolynomial(MatrixShape(1, cols), w_terms)
        lam_vec = [int(x) for x in rng.integers(-3, 4, size=cols)]
        lam_vec[-1] -= sum(lam_vec)
        if all(x == 0 for x in lam_vec):
            continue
        lam = OnePSG(tuple(lam_vec))
        pair = PairSpec.of(v, w)
        want = ops_weight(v, lam) - ops_weight(w, lam)
        if want == 0:
            continue
        t1, t2 = 1e-4, 1e-6
        nu1, nu2 = nu_along_ray(pair, lam, [t1, t2])
        slope = (nu2 - nu1) / (math.log(1 / t2**2) - math.log(1 / t1**2))
        assert abs(slope - want) <= 0.02 * abs(want)
        checked += 1


def test_j_along_ray_matches_direct():
    lam = OnePSG((2, -1, -1))
    t = 0.2
    for v in (disc2(), FormalPower(rnc_resultant(2), 2)):
        direct = j_aubin(v, GroupElement(lam.matrix(t)))
        stable = float(j_along_ray(v, lam, [t])[0])
        assert direct == pytest.approx(stable, abs=1e-9)


# -- properness -------------------------------------------------------------------

def test_properness_violated_for_reflexive_pair():
    # nu == 0 while J grows without bound along every ray
    pair = PairSpec.of(disc2(), disc2())
    est = properness_probe(pair, epsilon=0.5, b=-1.0, samples=200, rng_seed=3)
    assert est.violated_at is not None
    nu_v, j_v = est.violation_value
    assert nu_v < 0.5 * j_v - 1.0
    # re-verification at the recorded element
    sigma = est.violated_at
    assert nu_pair(pair, sigma) < 0.5 * j_aubin(pair.v, sigma) - 1.0 + 1e-6


def test_properness_violation_past_the_float_range_reports_its_ray():
    # the first diagonal ray violates at |t| near 1e-288, where t^-3 is past
    # the float range: the violation comes with its ray, not a group element
    pair = PairSpec.of(disc2(), disc2())
    est = properness_probe(pair, epsilon=0.5, b=-1.0, rng_seed=0, decades=300)
    lam, t = est.ray
    assert est.violated_at is None
    assert max(abs(e * math.log10(t)) for e in lam.exponents) > 308
    nu_v, j_v = est.violation_value
    assert nu_v < 0.5 * j_v - 1.0
    assert nu_v == float(nu_along_ray(pair, lam, [t])[0])
    assert j_v == float(j_along_ray(pair.v, lam, [t])[0])


def test_properness_probe_rejects_decades_past_the_float_range():
    # 10^-decades must stay a positive normal float; in range, diagonal rays
    # run in log space, so even |t| = 1e-300 forms no group element
    w = binary([1, 1, 1])
    pair = PairSpec.of(constant(S12, 1), w)
    for decades in (308, 400, -309):
        with pytest.raises(ValueError, match="decades"):
            properness_probe(pair, epsilon=1e-6, b=-1.0, samples=4, decades=decades)
    est = properness_probe(pair, epsilon=1e-6, b=-1.0, samples=50, rng_seed=5, decades=307)
    assert est.violated_at is None and est.min_margin > 0


def test_properness_survives_for_interior_mumford_pair():
    # w with the origin interior to its weight polytope keeps nu bounded
    # below along every sampled ray (positive slope both ways)
    w = binary([1, 1, 1])
    pair = PairSpec.of(constant(S12, 1), w)
    est = properness_probe(pair, epsilon=1e-6, b=-1.0, samples=300, rng_seed=5)
    assert est.violated_at is None
    assert est.min_margin > 0


# -- optimization -----------------------------------------------------------------

def test_nu_infimum_reflexive_pair_is_zero():
    v = binary([1, 0, 1])
    pair = PairSpec.of(v, v)
    val, sigma, _ = nu_infimum(pair, restarts=5, seed=2, maxiter=150)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_nu_infimum_shifted_quadratic():
    # (1, z0^2 + z0 z1): the orbit of w reaches +-z0 z1 of squared norm 1,
    # down from ||w||^2 = 3, so inf nu = -log 3
    pair = PairSpec.of(constant(S12, 1), binary([1, 1, 0]))
    val, sigma, stabilized = nu_infimum(pair, restarts=20, seed=4, maxiter=300)
    assert val == pytest.approx(-math.log(3.0), abs=5e-3)
    assert stabilized


def test_orbit_distance_equal_norm_pair():
    v = binary([1, 0, 1])
    pair = PairSpec.of(v, v)
    est = orbit_distance(pair, restarts=8, seed=3, maxiter=250)
    assert est.distance == pytest.approx(math.pi / 4, abs=0.02)
    assert abs(est.log_tan_sq) < 0.05


def test_orbit_distance_mumford_shifted():
    pair = PairSpec.of(constant(S12, 1), binary([1, 1, 0]))
    est = orbit_distance(pair, restarts=15, seed=7, maxiter=300)
    assert est.log_tan_sq == pytest.approx(-math.log(3.0), abs=0.05)


def test_orbit_distance_same_orbit_collapses():
    # v and w are both squarefree quadratics: conjugates crush w while v
    # explodes, so the orbit closures meet and the distance drops to zero
    pair = PairSpec.of(binary([0, 1, 0]), binary([1, 1, 0]))
    est = orbit_distance(pair, restarts=15, seed=9, maxiter=400)
    assert est.distance < 0.05


def test_inf_nu_vs_distance_consistency():
    pair = PairSpec.of(constant(S12, 1), binary([1, 1, 0]))
    val, _, _ = nu_infimum(pair, restarts=15, seed=11, maxiter=300)
    est = orbit_distance(pair, restarts=15, seed=12, maxiter=300)
    assert val >= est.log_tan_sq - 0.2
    assert abs(val - est.log_tan_sq) < 0.1


def test_orbit_distance_meets_nu_infimum_on_five_columns():
    # the semistable pair (1, z0^3 + 2 z1z2z3 + z4^3) on C^5, within the 0.1
    # bound of acceptance criterion 5
    s15 = MatrixShape(1, 5)
    w = SparsePolynomial(s15, {((3, 0, 0, 0, 0),): 1, ((0, 1, 1, 1, 0),): 2,
                               ((0, 0, 0, 0, 3),): 1})
    pair = PairSpec.of(constant(s15, 1), w)
    val, _, _ = nu_infimum(pair, restarts=3, seed=1, maxiter=300)
    est = orbit_distance(pair, restarts=3, seed=11, maxiter=300)
    assert abs(val - est.log_tan_sq) < 0.1


def test_nu_infimum_unbounded_below_stays_finite():
    # (1, z0^2) is destabilized: nu = -4t along diag(e^-t, e^t), so descent
    # runs until sigma.P overflows or underflows; such trial points are
    # rejected, without an exception or a warning
    pair = PairSpec.of(constant(S12, 1), monomial(S12, ((2, 0),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = nu_infimum(pair, restarts=5, seed=0, maxiter=150)
    assert math.isfinite(est.value)
    assert est.value <= -10


@pytest.mark.parametrize("pair", [
    PairSpec.of(constant(S12, 1), binary([1, 1, 0])),
    PairSpec.of(constant(S13, 1), monomial(S13, ((1, 1, 1),))),
], ids=["z0^2+z0z1", "z0z1z2"])
def test_nu_infimum_returns_sigma_in_sl(pair):
    # the search runs in GL(n); the reported sigma is divided by det^(1/n)
    est = nu_infimum(pair, restarts=3, seed=1, maxiter=150)
    assert abs(complex(est.sigma.det) - 1) < 1e-9
    assert nu_pair(pair, est.sigma) == pytest.approx(est.value, abs=1e-9)


def test_optimizers_are_deterministic_in_the_seed():
    pair = PairSpec.of(constant(S12, 1), binary([1, 1, 0]))
    a, b = (nu_infimum(pair, restarts=3, seed=8, maxiter=150) for _ in range(2))
    assert a.value == b.value and a.sigma.matrix.tobytes() == b.sigma.matrix.tobytes()
    c, d = (orbit_distance(pair, restarts=2, seed=8, maxiter=200) for _ in range(2))
    assert c.log_tan_sq == d.log_tan_sq


def test_a_run_reports_its_best_point_not_its_last_trial():
    # on (1, z0^2) a line search can leap near the singular set and fail
    # there; L-BFGS-B then ends on that failed search's last trial, which at
    # these seeds lies above zero, far from the run's best point
    pair = PairSpec.of(constant(S12, 1), monomial(S12, ((2, 0),)))
    for seed in (7, 12):
        assert nu_infimum(pair, restarts=3, seed=seed, maxiter=150).value <= -10


def test_nu_infimum_rejects_black_boxes():
    from stabpair.polyrep import BlackBoxPolynomial

    bb = BlackBoxPolynomial(MatrixShape(2, 2), 2, evaluator=np.linalg.det)
    one = constant(MatrixShape(2, 2), 1)
    for pair in (PairSpec.of(one, bb), PairSpec.of(one, FormalPower(bb, 2))):
        with pytest.raises(ValueError, match="sparse"):
            nu_infimum(pair, restarts=1)


def test_nu_infimum_raises_errors_that_are_not_numerical():
    # a pair whose ambient dimension disagrees with its polynomials is a
    # usage error, not a trial point to reject
    pair = dataclasses.replace(PairSpec.of(constant(S12, 1), binary([1, 1, 0])), ambient=3)
    with pytest.raises(ValueError, match="column count"):
        nu_infimum(pair, restarts=1)


@pytest.mark.parametrize("kwargs", [{"restarts": -1}, {"restarts": -2}, {"maxiter": 0}])
def test_optimizers_reject_a_negative_restart_count_or_an_empty_budget(kwargs):
    # usage errors name the argument; OverflowError is kept for numerics
    pair = PairSpec.of(constant(S12, 1), binary([1, 0, 1]))
    for estimate in (nu_infimum, orbit_distance):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            estimate(pair, **kwargs)


# -- analytic gradients ----------------------------------------------------------

def _random_form(rng, shape, degree, exact):
    """Four random terms of the given degree in every row."""
    terms = {}
    for _ in range(4):
        exps = rng.multinomial(degree, np.ones(shape.cols) / shape.cols, size=shape.rows)
        terms[tuple(map(tuple, exps))] = (Fraction(int(rng.integers(1, 5)), 3) if exact
                                          else complex(*rng.standard_normal(2)))
    return SparsePolynomial(shape, terms)


def _gl_params(*sigmas):
    """params of the matrices, in the layout _gl reads."""
    return np.concatenate([np.concatenate([np.real(s).ravel(), np.imag(s).ravel()])
                           for s in sigmas])


def _random_params(rng, n, copies=1):
    """params of I + g/2 for `copies` complex Gaussian matrices g: dense, det off 1."""
    return _gl_params(*(np.eye(n) + 0.5 * (rng.standard_normal((n, n))
                                           + 1j * rng.standard_normal((n, n)))
                        for _ in range(copies)))


def _sl(params, n):
    """sigma / det(sigma)^(1/n), sigma = _gl(params, n)[0]: where the objectives evaluate."""
    sigma = _gl(params, n)[0]
    return sigma / np.linalg.det(sigma) ** (1 / n)


def _assert_gradient(objective, params, step=1e-6):
    """The analytic gradient against central differences, relative error <= 1e-6."""
    grad = objective(params)[1]
    want = np.zeros_like(params)
    for i in range(len(params)):
        e = np.zeros_like(params)
        e[i] = step
        want[i] = (objective(params + e)[0] - objective(params - e)[0]) / (2 * step)
    assert np.abs(grad - want).max() <= 1e-6 * np.abs(want).max()


def _moved(a, row, k, l):
    """The exponent matrix a with one unit moved from column l to column k in `row`."""
    b = [list(x) for x in a]
    b[row][l] -= 1
    b[row][k] += 1
    return tuple(map(tuple, b))


def _moment_reference(q, r):
    """<D_kl Q, R> summed term by term over Q's terms and every row."""
    from stabpair.polyrep import _monomial_weight

    shape = q.shape
    want = np.zeros((shape.cols, shape.cols), dtype=complex)
    for a, c in q.terms.items():
        for row, k, l in np.ndindex(shape.rows, shape.cols, shape.cols):
            b = _moved(a, row, k, l)
            if a[row][l] and b in r.terms:
                want[k, l] += a[row][l] * c * complex(r.terms[b]).conjugate() * _monomial_weight(b)
    return want


def _assert_moment(q, sigma):
    # Q = q on its plan's basis, R = sigma.q there; the reference reads the
    # terms of q and of act(sigma, q)
    plan = _moment_plan(q, q.shape.cols)
    dense_q, dense_r = _coefficients(plan, np.eye(q.shape.cols)), _coefficients(plan, sigma)
    r = act(sigma, q)
    inner, moment = _pairing(plan, dense_q, dense_r)
    want = _moment_reference(q, r)
    assert inner == pytest.approx(gaussian_inner(q, r), rel=1e-12)
    assert np.abs(moment - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("shape, degree", [(S13, 4), (MatrixShape(2, 3), 10),
                                           (MatrixShape(1, 4), 5)])
def test_moment_matches_term_by_term_reference(shape, degree):
    # Q holds a monomial and all its one-unit moves, R = sigma.Q for a
    # diagonal sigma, so R has Q's terms and many D_kl images are terms of R
    rng = np.random.default_rng(degree)
    base = tuple(map(tuple, rng.multinomial(degree, np.ones(shape.cols) / shape.cols,
                                            size=shape.rows)))
    moves = list(np.ndindex(shape.rows, shape.cols, shape.cols))
    q = SparsePolynomial(shape, {_moved(base, *m): complex(*rng.standard_normal(2))
                                 for m in moves if base[m[0]][m[2]]})
    _assert_moment(q, np.diag(np.exp(rng.standard_normal(shape.cols) * (1 + 0.5j))))


@pytest.mark.parametrize("make", [
    lambda rng: determinant_poly(2),
    lambda rng: determinant_poly(3),
    lambda rng: _random_form(rng, MatrixShape(2, 3), 3, False),
    lambda rng: _random_form(rng, MatrixShape(1, 4), 3, True) + _random_form(
        rng, MatrixShape(1, 4), 3, True),
], ids=["det2", "det3", "random2x3", "random1x4"])
def test_moment_matches_reference_on_acted_forms(make):
    # R = sigma.Q for a dense sigma of determinant 1 fills Q's whole basis
    rng = np.random.default_rng(5)
    q = make(rng)
    n = q.shape.cols
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    _assert_moment(q, g / np.linalg.det(g) ** (1 / n))


def test_moment_plan_rejects_a_column_count_mismatch():
    with pytest.raises(ValueError, match="column count"):
        _moment_plan(binary([1, 2, 1]), 3)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("shape", [S12, S13, MatrixShape(2, 4), MatrixShape(1, 4),
                                   MatrixShape(2, 3)])
def test_log_norm_gradient_matches_central_differences(shape, exact):
    # nu of (1, P) is log ||sigma.P||^2 less a constant; nu_pair, which sums
    # the norms term by term, is the reference for the value
    rng = np.random.default_rng(shape.rows * 10 + shape.cols)
    pair = PairSpec.of(constant(shape, 1), _random_form(rng, shape, 2, exact))
    params = _random_params(rng, shape.cols)
    objective = _nu_objective(pair)
    want = nu_pair(pair, _sl(params, shape.cols))
    assert objective(params)[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
    _assert_gradient(objective, params)


def test_nu_gradient_scales_through_formal_powers():
    # both sides powers, then one side a power and the other plain
    rng = np.random.default_rng(17)
    v, w = _random_form(rng, S13, 2, False), _random_form(rng, S13, 3, True)
    for pair in (PairSpec.of(FormalPower(v, 3), FormalPower(w, 2)),
                 PairSpec.of(FormalPower(v, 3), w)):
        params = _random_params(rng, 3)
        objective = _nu_objective(pair)
        want = nu_pair(pair, _sl(params, 3))
        assert objective(params)[0] == pytest.approx(want, rel=1e-12)
        _assert_gradient(objective, params)


def test_gradients_on_the_2x2_determinant():
    rng = np.random.default_rng(2)
    det = determinant_poly(2)
    pair = PairSpec.of(constant(MatrixShape(2, 2), 1), det)
    params = _random_params(rng, 2)
    # det is SL-invariant: nu is zero, and so is its gradient
    value, grad = _nu_objective(pair)(params)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.abs(grad).max() <= 1e-12
    w = _random_form(rng, MatrixShape(2, 2), 1, False)
    _assert_gradient(_nu_objective(PairSpec.of(det, w)), params)
    _assert_gradient(_overlap_objective(det, w), _random_params(rng, 2, 2))


@pytest.mark.parametrize("shape", [S12, S13, MatrixShape(1, 4), MatrixShape(2, 3)])
def test_overlap_gradient_matches_central_differences(shape):
    rng = np.random.default_rng(shape.cols)
    v, w = _random_form(rng, shape, 2, False), _random_form(rng, shape, 3, True)
    params = _random_params(rng, shape.cols, 2)
    objective = _overlap_objective(v, w)
    # the reference overlap, from gaussian_inner and gaussian_norm_sq
    s1, s2 = (_sl(half, shape.cols) for half in np.split(params, 2))
    v1, w1, v2 = act(s1, v), act(s1, w), act(s2, v)
    overlap = abs(gaussian_inner(v1, v2)) ** 2 / (
        (gaussian_norm_sq(v1) + gaussian_norm_sq(w1)) * gaussian_norm_sq(v2))
    assert objective(params)[0] == pytest.approx(-math.log(overlap), rel=1e-12)
    _assert_gradient(objective, params)


def test_objectives_are_invariant_under_scaling_sigma():
    # the |det| normalization makes nu and the overlap functions on SL(n):
    # deg v != deg w, so without it scaling would move both
    rng = np.random.default_rng(23)
    v, w = _random_form(rng, S13, 2, False), _random_form(rng, S13, 3, True)
    for objective, copies in ((_nu_objective(PairSpec.of(v, w)), 1),
                              (_overlap_objective(v, w), 2)):
        params = _random_params(rng, 3, copies)
        c = rng.standard_normal(copies) + 1j * rng.standard_normal(copies)
        sigmas = (_gl(half, 3)[0] for half in np.split(params, copies))
        scaled = _gl_params(*(ck * s for ck, s in zip(c, sigmas)))
        assert objective(scaled)[0] == pytest.approx(objective(params)[0], rel=1e-12)


def test_singular_trial_points_are_rejected_as_inf():
    # the zero matrix and a rank-one sigma read slogdet sign 0; _descend's
    # guard turns that into +inf, with no LinAlgError and no warning.  With
    # no restarts it evaluates one point, here the singular one
    rng = np.random.default_rng(29)
    v, w = _random_form(rng, S12, 2, False), _random_form(rng, S12, 3, True)
    nu, overlap, eye = _nu_objective(PairSpec.of(v, w)), _overlap_objective(v, w), np.eye(2)
    for bad in (np.zeros((2, 2)), np.outer([1, 2j], [3, -1])):
        for objective, params in ((nu, _gl_params(bad)), (overlap, _gl_params(bad, eye)),
                                  (overlap, _gl_params(eye, bad))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = _descend(lambda _: objective(params), 2, len(params) // 8, 0, 0, 1)[0]
            assert value == math.inf


def test_objective_evaluations_form_no_polynomial_group_element_or_plan(monkeypatch):
    # plans are built with the objective; an evaluation reads them only
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(energy, "_moment_plan", counting("plan", energy._moment_plan))
    monkeypatch.setattr(polyrep, "_action_plan", counting("action", polyrep._action_plan))
    rng = np.random.default_rng(9)
    v, w = _random_form(rng, S13, 2, False), _random_form(rng, S13, 3, True)
    nu = _nu_objective(PairSpec.of(FormalPower(v, 2), w))
    overlap = _overlap_objective(v, w)
    assert calls.count("plan") == 4 and calls.count("action") == 2
    calls.clear()
    monkeypatch.setattr(SparsePolynomial, "__init__",
                        counting("poly", SparsePolynomial.__init__))
    monkeypatch.setattr(SparsePolynomial, "_trusted",
                        classmethod(counting("poly", SparsePolynomial._trusted.__func__)))
    monkeypatch.setattr(GroupElement, "__init__", counting("group", GroupElement.__init__))
    nu(_random_params(rng, 3))
    overlap(_random_params(rng, 3, 2))
    assert calls == []
    assert isinstance(act(GroupElement.identity(3), v), SparsePolynomial)
    assert calls == ["group", "poly"]  # the counters count
