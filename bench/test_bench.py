"""Fast tests of the benchmark's reference computations and checks.

    python3 -m pytest bench/test_bench.py -q

The reference values are tested against facts that do not depend on them;
each workload's check is shown to accept correct outputs and to reject a
planted wrong one.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.use_checkout_sources()

import commands  # noqa: E402
import heights  # noqa: E402
import orbits  # noqa: E402
import reference  # noqa: E402
import verdicts  # noqa: E402
from harness import Round  # noqa: E402

IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# -- gamma and digamma closed forms ------------------------------------------------

def test_monomial_height_of_z0_is_log2_minus_1():
    assert reference.monomial_height([1, 0], 2) == pytest.approx(math.log(2) - 1, abs=1e-15)


def test_det_zeta_values():
    assert reference.det_zeta(2, 1.0) == pytest.approx(0.1, rel=1e-14)
    assert reference.det_zeta(1, 1.0) == pytest.approx(1.0, rel=1e-14)
    # E|det_2|^2 = 2 (two terms of unit norm), Gamma(4)/Gamma(6) = 1/20
    assert math.exp(reference.det_log_moment(2, 1.0)) == pytest.approx(2.0, rel=1e-14)


def test_det_1_height_is_the_monomial_height():
    assert reference.det_height(1) == pytest.approx(reference.monomial_height([1], 1), abs=1e-14)


def test_det_height_matches_sampling():
    rng = np.random.default_rng(5)
    z = (rng.standard_normal((400_000, 2, 2)) + 1j * rng.standard_normal((400_000, 2, 2))) / math.sqrt(2)
    sq = np.abs(np.linalg.det(z)) ** 2
    h = -math.log(math.gamma(4) / math.gamma(6) * sq.mean()) + np.log(sq).mean() \
        - 2 * float(reference.digamma(4))
    assert h == pytest.approx(reference.det_height(2), abs=0.02)


# -- Kempf-Ness minima -------------------------------------------------------------

@pytest.mark.parametrize("label, n, terms", orbits.PAIRS)
def test_closed_orbit_minima(label, n, terms):
    want = -math.log(3) if label == "z0^2+z0z1" else 0.0
    assert reference.nu_infimum_closed(terms, n) == pytest.approx(want, abs=1e-15)


def test_balanced_forms_have_zero_moment_map_and_others_not():
    for terms, n in (({(1, 1): 1}, 2), ({(3, 0): 1, (0, 3): 1}, 2), ({(1, 1, 1): 1}, 3)):
        assert all(abs(x) < 1e-15 for row in reference.moment_map(terms, n) for x in row)
    assert abs(reference.moment_map({(2, 0): 1, (1, 1): 1}, 2)[0][0]) > 0.1


def test_quadratic_orbit_norm_never_beats_the_discriminant():
    # (sigma.w)(z) = w(z sigma) for w = z0^2 + z0 z1 and det sigma = 1:
    # z0 -> p z0 + r z1, z1 -> q z0 + s z1
    rng = np.random.default_rng(3)
    best = math.inf
    for _ in range(2000):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m /= np.sqrt(np.linalg.det(m))
        (p, q), (r, s) = m
        a = p * p + p * q
        b = 2 * p * r + p * s + q * r
        c = r * r + r * s
        best = min(best, 2 * abs(a) ** 2 + abs(b) ** 2 + 2 * abs(c) ** 2)
    assert 1.0 - 1e-9 <= best < 1.5
    # the shear z1 -> z1 - z0 reaches the bound: z0 (z0 + z1 - z0) = z0 z1


# -- sympy supports and resultants -------------------------------------------------

def test_conic_discriminant_characters():
    assert reference.acted_characters("disc", 2, IDENTITY3) == {(0, 2, 0), (1, 0, 1)}


def test_cubic_discriminant_is_isobaric():
    chars = reference.acted_characters("disc", 3, np.eye(4, dtype=int).tolist())
    assert len(chars) == 5
    assert len({sum(j * a for j, a in enumerate(ch)) for ch in chars}) == 1


def test_permutation_permutes_characters():
    # a_{i,l} pulls back to a_{i,k} with g[k][l] = 1, so degree in column l
    # moves to column k
    perm = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    plain = reference.acted_characters("disc", 2, IDENTITY3)
    moved = reference.acted_characters("disc", 2, perm)
    want = set()
    for ch in plain:
        new = [0, 0, 0]
        for l in range(3):
            new[next(k for k in range(3) if perm[k][l])] = ch[l]
        want.add(tuple(new))
    assert moved == want != plain


def test_exact_resultant_values():
    # x^2 - 1 and x^2 - 3x + 2 share the root 1
    assert reference.exact_value("res", 2, [[1, 0, -1], [1, -3, 2]])[0] == 0
    # roots {1, -1} against {2, 3}: prod (alpha - beta) = (1-2)(1-3)(-1-2)(-1-3) = 24
    assert reference.exact_value("res", 2, [[1, 0, -1], [1, -5, 6]])[0] == 24
    # z^2 (z - 1) has a double root, so the partials share a zero
    assert reference.exact_value("disc", 3, [[1, -1, 0, 0]])[0] == 0


def test_simplex_in_newton_polygon():
    corners = {(4, 0, 0), (0, 4, 0), (0, 0, 4)}
    assert all(reference.simplex_in_newton_polygon(corners, q) for q in (1, 2, 3, 4))
    assert not reference.simplex_in_newton_polygon(corners, 5)
    segment = {(4, 0, 0), (0, 4, 0)}
    assert not reference.simplex_in_newton_polygon(segment, 1)
    centre = {(2, 1, 1), (1, 2, 1), (1, 1, 2)}
    assert reference.simplex_in_newton_polygon(centre, 1)
    assert not reference.simplex_in_newton_polygon(centre, 2)


# -- each check rejects a planted wrong output ------------------------------------

def _verdicts_correct(inputs):
    forms = [verdicts._ternary_form(3, 0, k)[0] for k in range(len(verdicts.VV_QS))]
    outputs = {"verdicts": {}, "searches": {"rnc3": None}, "vv_chars": forms}
    for label, _pair, trials in inputs["normalized"]:
        outputs["verdicts"][label] = {"status": "semistable-certified-on-diagonal-torus",
                                      "trials": trials, "witness": None}
    for label, pair, _trials, v, w in inputs["raw"]:
        ident = np.eye(pair.ambient, dtype=int).tolist()
        lam = verdicts._separating_lambda(reference.acted_characters(*v, ident),
                                          reference.acted_characters(*w, ident), pair.ambient)
        outputs["verdicts"][label] = {"status": "destabilized", "trials": 1,
                                      "witness": (ident, list(lam))}
    outputs["searches"]["vv"] = [1 if reference.simplex_in_newton_polygon(chars, q) else None
                                 for chars, q in zip(forms, verdicts.VV_QS)]
    return outputs


def test_verdicts_check_rejects_a_flipped_verdict():
    inputs = verdicts.build(3)
    good = _verdicts_correct(inputs)
    assert verdicts.check(inputs, [Round(outputs=good)]) == []
    flipped = json.loads(json.dumps(good))
    flipped["verdicts"]["rnc3"]["status"] = "destabilized"
    assert verdicts.check(inputs, [Round(outputs=flipped)])
    raw = json.loads(json.dumps(good))
    raw["verdicts"]["disc3/res3"] = {"status": "semistable-certified-on-diagonal-torus",
                                     "trials": 2, "witness": None}
    assert verdicts.check(inputs, [Round(outputs=raw)])
    vv = json.loads(json.dumps(good))
    vv["searches"]["vv"][0] = 3
    assert verdicts.check(inputs, [Round(outputs=vv)])


def test_orbits_check_rejects_a_value_off_by_0_2():
    inputs = orbits.build(3)
    closed = inputs["closed"]
    good = {"nu_inf": dict(closed), "log_tan_sq": dict(closed)}
    assert orbits.check(inputs, [Round(outputs=good)]) == []
    off = {"nu_inf": dict(closed), "log_tan_sq": dict(closed)}
    off["log_tan_sq"]["z0^2+z0z1"] += 0.2
    assert orbits.check(inputs, [Round(outputs=off)])


def test_heights_check_rejects_a_height_shifted_by_10_sigma():
    se = 0.005
    closed = reference.det_height(3)
    outputs = {
        "reports": {"det:3": (closed + 0.5 * se, se, "mixed"),
                    "disc:5": (-3.45, 0.015, "mixed"), "res:4": (-1.85, 0.011, "mixed"),
                    "disc:12": (-14.5, 1.0, "monte-carlo")},
        "table": [(4, -1.8, 0.01, -2.2, 0.02)],
        "failing": "OverflowError",
    }
    assert heights.check_outputs(outputs) == []
    outputs["reports"]["det:3"] = (closed + 10 * se, se, "mixed")
    assert heights.check_outputs(outputs)


def test_cli_check_rejects_a_wrong_height_and_a_wrong_digest():
    label, argv, artifact = next(c for c in commands.commands(0) if c[0] == "height-monomial")
    inputs = {"commands": [(label, argv, artifact)]}

    def rounds(h, digest=None):
        data = json.dumps({"h": h}).encode()
        manifest = {"subcommand": argv[0],
                    "outputs": {artifact: digest or hashlib.sha256(data).hexdigest()}}
        result = {"code": 0, "stderr": "", "artifact": data,
                  "manifest": json.dumps(manifest).encode()}
        return [Round(outputs={"results": {label: result}})]

    assert commands.check(inputs, rounds(math.log(2) - 1)) == []
    assert commands.check(inputs, rounds(math.log(2) - 0.9))
    assert commands.check(inputs, rounds(math.log(2) - 1, digest="0" * 64))


def test_strict_json_rejects_nan():
    with pytest.raises(ValueError):
        commands.strict_json(b'{"h": NaN}')
