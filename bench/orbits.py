"""Workload `orbits`: nu infimum and orbit distance on pairs (1, w) whose
minimum Kempf-Ness gives in closed form.

Part a is `nu_infimum`, part b is `orbit_distance`.  Float `act` plus the
Nelder-Mead optimizer is all of the work: no hulls, no sampling.  Each
round draws fresh restart seeds from (seed, round), so that a run's
per-operation medians average over starting points.
"""

from __future__ import annotations

import math
import time

from harness import Round, seed_int, timed

NAME = "orbits"
MIN_ROUNDS = 5
WARM_ROUNDS = 1    # the first round pays one-off costs: lazy imports, first allocations
PART_A = "nu_inf_s"
PART_B = "orbit_dist_s"

# (label, ambient n, terms of w as {exponents: coefficient}); v = 1
PAIRS = (
    ("z0z1", 2, {(1, 1): 1}),
    ("z0^3+z1^3", 2, {(3, 0): 1, (0, 3): 1}),
    ("z0^2+z0z1", 2, {(2, 0): 1, (1, 1): 1}),
    ("z0z1z2", 3, {(1, 1, 1): 1}),
)
NU_RESTARTS, NU_MAXITER = 3, 150
ORBIT_RESTARTS, ORBIT_MAXITER = 2, 200
TOLERANCE = 1e-5   # on both estimates against the closed value
GAP_BOUND = 0.1    # on |inf nu - log tan^2 dist|, as in acceptance criterion 5


def build(seed: int) -> dict:
    from stabpair.pairstab import PairSpec
    from stabpair.polyrep import MatrixShape, SparsePolynomial, constant

    from reference import nu_infimum_closed

    pairs = []
    for label, n, terms in PAIRS:
        shape = MatrixShape(1, n)
        w = SparsePolynomial(shape, {(exps,): c for exps, c in terms.items()})
        pairs.append((label, PairSpec.of(constant(shape, 1), w)))
    closed = {label: nu_infimum_closed(terms, n) for label, n, terms in PAIRS}
    return {"seed": seed, "pairs": pairs, "closed": closed}


def run_round(inputs: dict, index: int) -> Round:
    from stabpair.energy import nu_infimum, orbit_distance

    out = Round()
    seed = inputs["seed"]
    nu, dist = {}, {}
    start = time.perf_counter()
    for k, (label, pair) in enumerate(inputs["pairs"]):
        nu[label] = timed(out.a, label, nu_infimum, pair, restarts=NU_RESTARTS,
                          seed=seed_int(seed, 3, k, index), maxiter=NU_MAXITER)[0]
        dist[label] = timed(out.b, label, orbit_distance, pair, restarts=ORBIT_RESTARTS,
                            seed=seed_int(seed, 4, k, index),
                            maxiter=ORBIT_MAXITER).log_tan_sq
    out.wall_s = time.perf_counter() - start
    out.attempted = 2 * len(inputs["pairs"])
    out.outputs = {"nu_inf": nu, "log_tan_sq": dist}
    return out


def check(inputs: dict, rounds: list) -> list:
    problems = []
    for r in rounds:
        for label, closed in inputs["closed"].items():
            nu = r.outputs["nu_inf"][label]
            lt = r.outputs["log_tan_sq"][label]
            for name, value in (("inf nu", nu), ("log tan^2 dist", lt)):
                # an infimum estimated by descent is an upper bound: it can
                # miss the minimum but never undercut it beyond round-off
                if not math.isfinite(value) or abs(value - closed) > TOLERANCE:
                    problems.append(f"{label}: {name} = {value!r}, closed value {closed:.6f}")
            if math.isfinite(nu) and math.isfinite(lt) and abs(nu - lt) >= GAP_BOUND:
                problems.append(f"{label}: gap |{nu:.6f} - {lt:.6f}| >= {GAP_BOUND}")
    return problems


def named_metrics(part_a_s: float, part_b_s: float) -> dict:
    return {PART_A: (part_a_s, "s"), PART_B: (part_b_s, "s")}
