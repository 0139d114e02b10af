"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; sampled criteria
use 3-sigma bands at the stated sample counts, exact criteria require
exact agreement.
"""

import math
import time
import numpy as np
import pytest

from geomref import binary_form_mul, contains
from stabpair import energy, igusa, pairstab, varieties
from stabpair.exactgeom import dilate
from stabpair.igusa import (
    degeneration_limit_heights,
    height,
    height_monomial_closed,
    mc_moment,
    zeta,
    zeta_det_closed,
)
from stabpair.pairstab import PairSpec, ops_weight, separating_functionals, weight_polytope
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
from stabpair.varieties import rnc_example, rnc_hyperdiscriminant, rnc_resultant


def report(number: int, name: str, ok: bool, detail: str, elapsed: float,
           limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {number}] {status} {name}: {detail} "
          f"({elapsed:.1f}s < {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < limit, f"criterion {number} ({name}) too slow: {elapsed:.1f}s"


def split_form(roots):
    coeffs = [1]
    for alpha in roots:
        coeffs = binary_form_mul(coeffs, [1, -alpha])
    return coeffs


def distinct_roots(rng, count, taboo=()):
    pool = [x for x in range(-6, 7) if x not in taboo]
    rng.shuffle(pool)
    return pool[:count]


def test_criterion_1_determinant_zeta_oracle():
    t0 = time.monotonic()
    details = []
    ok = True
    for n in (1, 2, 3):
        tn = time.monotonic()
        est = mc_moment(determinant_poly(n), 1.0, samples=10**6, seed=100 + n)
        closed_standard = zeta_det_closed(n, 1.0, "standard")  # = n!
        closed_paper = zeta_det_closed(n, 1.0, "paper")
        good = abs(est.mean - closed_standard) < 3 * est.stderr
        per_n = time.monotonic() - tn
        ok = ok and good and per_n < 60
        note = " [n=1: paper 1/pi vs direct 1]" if n == 1 else ""
        details.append(f"n={n}: mc={est.mean:.4f}+-{est.stderr:.4f} "
                       f"standard={closed_standard:.4f} paper={closed_paper:.4f}"
                       f"{note} ({per_n:.1f}s)")
    report(1, "determinant zeta oracle", ok, "; ".join(details),
           time.monotonic() - t0, 185.0)


def test_criterion_2_monomial_heights():
    t0 = time.monotonic()
    cases = [(1, 1), (1, 2), (2, 2), (3, 4)]
    details = []
    ok = True
    for idx, (N, d) in enumerate(cases):
        p = monomial(MatrixShape(1, N + 1),
                     (tuple(d if j == 0 else 0 for j in range(N + 1)),))
        closed = height_monomial_closed(p)
        mc = height(p, samples=10**6, seed=200 + idx, method="monte-carlo")
        good = abs(mc.h - closed.h) < 3 * mc.stderr
        ok = ok and good
        details.append(f"(N={N},d={d}): closed={closed.h:.4f} "
                       f"mc={mc.h:.4f}+-{mc.stderr:.4f}")
    elapsed = time.monotonic() - t0
    report(2, "monomial heights", ok, "; ".join(details), elapsed, 120.0)


def test_criterion_3_polytope_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    disagreements = 0
    checked = 0
    while checked < 200:
        cols = int(rng.integers(2, 5))
        deg_w = int(rng.integers(1, 6))
        w_chars = set()
        for _ in range(int(rng.integers(1, 7))):
            w_chars.add(tuple(int(x) for x in rng.multinomial(deg_w,
                                                              np.ones(cols) / cols)))
        if rng.integers(0, 2):
            keep = sorted(w_chars)[: max(1, len(w_chars) - 1)]
            v_chars = set(keep)
        else:
            deg_v = int(rng.integers(1, 6))
            v_chars = set()
            for _ in range(int(rng.integers(1, 5))):
                v_chars.add(tuple(int(x) for x in rng.multinomial(
                    deg_v, np.ones(cols) / cols)))
        v = SparsePolynomial(MatrixShape(1, cols),
                             {(c,): 1 for c in v_chars})
        w = SparsePolynomial(MatrixShape(1, cols),
                             {(c,): 1 for c in w_chars})
        wp_v, wp_w = weight_polytope(v), weight_polytope(w)
        geometric = contains(wp_w, wp_v)
        lams = list(separating_functionals(wp_w))
        for _ in range(100):
            vec = [int(x) for x in rng.integers(-4, 5, size=cols)]
            vec[-1] -= sum(vec)
            if any(vec):
                lams.append(OnePSG(tuple(vec)))
        numeric = all(ops_weight(v, lam) >= ops_weight(w, lam) for lam in lams)
        if geometric != numeric:
            disagreements += 1
        checked += 1
    elapsed = time.monotonic() - t0
    report(3, "polytope equivalence", disagreements == 0,
           f"{checked} pairs, {disagreements} disagreements", elapsed, 30.0)


def test_criterion_4_slope_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(4242)
    checked = 0
    worst = 0.0
    ok = True
    while checked < 20:
        cols = int(rng.integers(2, 4))
        polys = []
        for _ in range(2):
            deg = int(rng.integers(1, 5))
            terms = {}
            for _ in range(int(rng.integers(1, 4))):
                flat = tuple(int(x) for x in rng.multinomial(deg, np.ones(cols) / cols))
                terms[(flat,)] = int(rng.integers(1, 5))
            polys.append(SparsePolynomial(MatrixShape(1, cols), terms))
        vec = [int(x) for x in rng.integers(-3, 4, size=cols)]
        vec[-1] -= sum(vec)
        if not any(vec):
            continue
        lam = OnePSG(tuple(vec))
        pair = PairSpec.of(polys[0], polys[1])
        want = ops_weight(pair.v, lam) - ops_weight(pair.w, lam)
        if want == 0:
            continue
        t1, t2 = 1e-4, 1e-6
        nu1, nu2 = energy.nu_along_ray(pair, lam, [t1, t2])
        slope = (nu2 - nu1) / (math.log(1 / t2**2) - math.log(1 / t1**2))
        rel = abs(slope - want) / abs(want)
        worst = max(worst, rel)
        ok = ok and rel <= 0.02
        checked += 1
    elapsed = time.monotonic() - t0
    report(4, "slope law", ok, f"20 fits, worst relative error {worst:.2e}",
           elapsed, 60.0)


def test_criterion_5_orbit_distance_identity():
    t0 = time.monotonic()
    S12 = MatrixShape(1, 2)

    def binary(coeffs):
        d = len(coeffs) - 1
        return SparsePolynomial(S12, {((d - j, j),): c
                                      for j, c in enumerate(coeffs) if c != 0})

    pairs = [
        ("(v,v)", PairSpec.of(binary([1, 0, 1]), binary([1, 0, 1]))),
        ("(1, z0 z1)", PairSpec.of(constant(S12, 1), binary([0, 1, 0]))),
        ("(1, z0^2+z0 z1)", PairSpec.of(constant(S12, 1), binary([1, 1, 0]))),
    ]
    details = []
    ok = True
    for idx, (name, pair) in enumerate(pairs):
        inf_nu, _, _ = energy.nu_infimum(pair, restarts=20, seed=500 + idx,
                                         maxiter=300)
        est = energy.orbit_distance(pair, restarts=25, seed=600 + idx,
                                    maxiter=350)
        gap = abs(inf_nu - est.log_tan_sq)
        good = gap < 0.1
        ok = ok and good
        details.append(f"{name}: inf nu={inf_nu:.4f} "
                       f"log tan^2 dist={est.log_tan_sq:.4f} gap={gap:.4f}")
    elapsed = time.monotonic() - t0
    report(5, "orbit-distance identity", ok, "; ".join(details), elapsed, 300.0)


def test_criterion_6_rnc_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    passed = 0
    total = 0
    degrees_ok = True
    for d in (2, 3, 4, 5):
        res = rnc_resultant(d)
        disc = rnc_hyperdiscriminant(d)
        ex = rnc_example(d)
        degrees_ok = degrees_ok and ex.deg_R == 2 * d and ex.deg_Delta == 2 * d - 2
        for _ in range(50):
            alphas = distinct_roots(rng, d)
            betas = [alphas[0]] + distinct_roots(rng, d - 1)
            f, g = split_form(alphas), split_form(betas)
            total += 1
            if isinstance(res, SparsePolynomial):
                passed += int(res.evaluate_exact([f, g]) == 0)
            else:
                scale = max(float(np.prod([max(abs(a - b), 1)
                                           for a in alphas for b in betas])), 1.0)
                val = res.evaluate(np.array([f, g], dtype=complex))
                passed += int(abs(val) <= 1e-8 * scale)
        for _ in range(50):
            roots = distinct_roots(rng, d)
            doubled = split_form([roots[0]] + roots[:-1])
            total += 1
            passed += int(disc.evaluate_exact([doubled]) == 0)
    elapsed = time.monotonic() - t0
    ok = passed == total == 400 and degrees_ok
    report(6, "rational-normal-curve correctness", ok,
           f"{passed}/{total} planted-root vanishings, degrees exact={degrees_ok}",
           elapsed, 60.0)


def test_criterion_7_discrepancy_experiment():
    t0 = time.monotonic()
    rows, fit = varieties.discrepancy_table([2, 3, 4, 5, 6], samples=150_000,
                                            seed=7)
    negative_ok = all(r.h_F < -3 * r.h_F_stderr and r.h_Delta < -3 * r.h_Delta_stderr
                      for r in rows)
    ratios = [degeneration_limit_heights(1, d, d, 2 * d, 2 * d - 2,
                                         convention="standard").delta_limit / d**2
              for d in range(10, 201)]
    bounded = max(ratios) / min(ratios) < 3
    ok = negative_ok and bounded
    detail = (f"rows d=2..6 heights negative beyond 3se={negative_ok}; "
              f"closed-form delta/d^2 in [{min(ratios):.3f}, {max(ratios):.3f}] "
              f"ratio={max(ratios) / min(ratios):.3f}<3; "
              f"fitted MC growth exponent={fit['exponent']:.2f}"
              f"+-{fit['exponent_ci_halfwidth']:.2f} (reported)")
    report(7, "discrepancy experiment", ok, detail, time.monotonic() - t0, 600.0)


def test_criterion_8_asymptotic_leading_terms():
    t0 = time.monotonic()
    ds = np.arange(20, 201)
    lims = [degeneration_limit_heights(1, d, d, 2 * d, 2 * d - 2,
                                       convention="paper") for d in ds]
    X = np.column_stack([ds * np.log(ds), ds, np.ones_like(ds, dtype=float)])
    coef_logz, *_ = np.linalg.lstsq(X, np.array([l.log_zeta_R for l in lims]),
                                    rcond=None)
    coef_h, *_ = np.linalg.lstsq(X, np.array([l.hF_limit for l in lims]),
                                 rcond=None)
    # log Z(det_2; d) = deg_R log d + O(d) with deg_R = 2d: coefficient 2;
    # the height leading term is -2 deg_R log d: coefficient -4
    ok = abs(coef_logz[0] - 2.0) < 0.2 and abs(coef_h[0] + 4.0) < 0.4
    detail = (f"fitted d*log(d) coefficients: log Z -> {coef_logz[0]:.4f} "
              f"(target 2 within 10%), height -> {coef_h[0]:.4f} "
              f"(target -4 within 10%)")
    report(8, "asymptotic leading terms", ok, detail, time.monotonic() - t0, 10.0)


def test_criterion_9_invariance_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    disc = rnc_hyperdiscriminant(2)
    checks = {}

    # Z(P; 0) = 1 exactly
    checks["zeta-at-zero"] = all(
        zeta(p, 0.0).value == 1.0
        for p in (disc, determinant_poly(2), monomial(MatrixShape(1, 3), ((3, 0, 0),))))

    # height scale invariance within 3 sigma
    a = height(disc, samples=150_000, seed=901)
    b = height(disc * 17, samples=150_000, seed=902)
    checks["height-scale"] = abs(a.h - b.h) < 3 * math.hypot(a.stderr, b.stderr)

    # height unitary invariance within 3 sigma
    g = np.linalg.qr(rng.standard_normal((3, 3))
                     + 1j * rng.standard_normal((3, 3)))[0]
    from stabpair.polyrep import act

    c = height(act(g, disc), samples=150_000, seed=903)
    checks["height-unitary"] = abs(a.h - c.h) < 3 * math.hypot(a.stderr, c.stderr)

    # nu projective invariance (exact up to rounding)
    other = SparsePolynomial(MatrixShape(1, 3),
                             {((2, 0, 0),): 1, ((0, 2, 0),): 2, ((0, 0, 2),): 1})
    pair1 = PairSpec.of(disc, other)
    pair2 = PairSpec.of(disc * 5, other * (2 - 1j))
    proj_ok = True
    for _ in range(5):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sigma = GroupElement(m / np.linalg.det(m) ** (1 / 3))
        proj_ok = proj_ok and abs(energy.nu_pair(pair1, sigma)
                                  - energy.nu_pair(pair2, sigma)) < 1e-9
    checks["nu-projective"] = proj_ok

    # formal-power linearity: polytopes and heights exactly linear
    fp = FormalPower(disc, 6)
    checks["formal-polytope"] = (weight_polytope(fp)
                                 == dilate(weight_polytope(disc), 6))
    base_rep = height(disc, samples=50_000, seed=904)
    fp_rep = height(fp, samples=50_000, seed=904)
    checks["formal-height"] = (fp_rep.h == 6 * base_rep.h
                               and fp_rep.log_Z1 == 6 * base_rep.log_Z1)

    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    report(9, "invariance suite", ok, detail, time.monotonic() - t0, 60.0)
