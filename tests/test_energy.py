"""Energy functionals: norms, nu, J, rays, properness, orbit distance."""

import math

import numpy as np
import pytest

from stabpair.energy import (
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
    assert nu_pair(pair, sigma) < 0.5 * j_aubin(pair.v, sigma,
                                                degree=pair.degree_v) - 1.0 + 1e-6


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
    val, sigma = nu_infimum(pair, restarts=5, seed=2, maxiter=150)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_nu_infimum_shifted_quadratic():
    # (1, z0^2 + z0 z1): the orbit of w reaches +-z0 z1 of squared norm 1,
    # down from ||w||^2 = 3, so inf nu = -log 3
    pair = PairSpec.of(constant(S12, 1), binary([1, 1, 0]))
    val, sigma = nu_infimum(pair, restarts=20, seed=4, maxiter=300)
    assert val == pytest.approx(-math.log(3.0), abs=5e-3)


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
    val, _ = nu_infimum(pair, restarts=15, seed=11, maxiter=300)
    est = orbit_distance(pair, restarts=15, seed=12, maxiter=300)
    assert val >= est.log_tan_sq - 0.2
    assert abs(val - est.log_tan_sq) < 0.1
