"""Workload `verdicts`: exact semistability verdicts and twist-exponent search.

Part a is `semistable_probe` (witness re-verification included), part b is
`stable_search`.  Only here does `exactgeom` do the work: one hull per
probe trial and many small Minkowski-sum hulls and containment tests per
search.  Each round draws fresh conjugates and a fresh form for the (v, v)
search from (seed, round), so that a run's per-operation medians average
over draws instead of resting on one draw whose support sets the cost.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from harness import Round, seed_int, timed

NAME = "verdicts"
MIN_ROUNDS = 5
WARM_ROUNDS = 1    # the first round pays one-off costs: lazy imports, first allocations
PART_A = "probe_s"
PART_B = "search_s"

# (label, normalized degree d, trials); trial 0 is the diagonal torus, the
# rest are random integer conjugates.  One conjugate trial at d = 4 takes
# 36-63 s on the reference machine, so d = 4 probes the diagonal torus only.
NORMALIZED = (("rnc2", 2, 4), ("rnc3", 3, 2), ("rnc4", 4, 1))
# (label, (kind, d) of v, (kind, d) of w, trials): pairs of unlike module
# degree whose diagonal polytopes are not nested
RAW = (("disc3/res3", ("disc", 3), ("res", 3), 2),
       ("disc2/res2", ("disc", 2), ("res", 2), 4))
SEARCH_Q = 24          # deg R_3 * deg Delta_3, the identity padding of the pair
SEARCH_M_MAX = 6
VV_DEGREE = 4
# one random form per entry, timed as one batch.  q = 1 forms carry the
# three pure powers, so N(v) holds 4Q and the search stops at m = 1; q = 2
# forms keep the exponent of z0 at most 2, so the vertex of 2Q with
# z0-exponent 8/3 lies outside N(v) and the search runs to m_max.  Fixing
# each slot's outcome keeps a round's cost from swinging with the draws.
VV_QS = (1, 2, 1, 2, 1, 2)
VV_M_MAX = 4


def _ternary_form(seed: int, index: int, k: int):
    """The k-th random ternary form of a round: its exponents and polynomial."""
    from stabpair.polyrep import MatrixShape, SparsePolynomial

    rng = np.random.default_rng(seed_int(seed, 11, index, k))
    monomials = [(i, j, VV_DEGREE - i - j) for i in range(VV_DEGREE + 1)
                 for j in range(VV_DEGREE + 1 - i)]
    corners = [m for m in monomials if VV_DEGREE in m]
    if VV_QS[k] == 1:
        pool, chosen = [m for m in monomials if m not in corners], corners
    else:
        pool, chosen = [m for m in monomials if m[0] <= 2], []
    extra = int(rng.integers(3, 6))
    chosen = sorted(chosen + [pool[i] for i in rng.choice(len(pool), extra, replace=False)])
    coeffs = rng.integers(1, 6, size=len(chosen))
    poly = SparsePolynomial(MatrixShape(1, 3), {(e,): int(c) for e, c in zip(chosen, coeffs)})
    return chosen, poly


def build(seed: int) -> dict:
    from stabpair import varieties
    from stabpair.pairstab import PairSpec

    forms = {("res", d): varieties.rnc_resultant for d in (2, 3)}
    forms.update({("disc", d): varieties.rnc_hyperdiscriminant for d in (2, 3)})
    built = {key: make(key[1]) for key, make in forms.items()}
    examples = {d: varieties.rnc_example(d) for _, d, _ in NORMALIZED}
    return {
        "seed": seed,
        "normalized": [(label, varieties.normalized_pair(examples[d]), trials)
                       for label, d, trials in NORMALIZED],
        "raw": [(label, PairSpec.of(built[v], built[w]), trials, v, w)
                for label, v, w, trials in RAW],
        "search": varieties.normalized_pair(examples[3]),
    }


def run_round(inputs: dict, index: int) -> Round:
    from stabpair.pairstab import PairSpec, semistable_probe, stable_search

    out = Round()
    seed = inputs["seed"]
    forms = [_ternary_form(seed, index, k) for k in range(len(VV_QS))]
    verdicts = {}
    start = time.perf_counter()
    for k, (label, pair, trials) in enumerate(inputs["normalized"]):
        verdicts[label] = timed(out.a, label, semistable_probe, pair, trials=trials,
                                rng_seed=seed_int(seed, 1, k, index))
    for k, (label, pair, trials, _v, _w) in enumerate(inputs["raw"]):
        verdicts[label] = timed(out.a, label, semistable_probe, pair, trials=trials,
                                rng_seed=seed_int(seed, 2, k, index))
    searches = {"rnc3": timed(out.b, "rnc3", stable_search, inputs["search"],
                              q=SEARCH_Q, m_max=SEARCH_M_MAX)}
    t0 = time.perf_counter()
    searches["vv"] = [stable_search(PairSpec.of(v, v), q=q, m_max=VV_M_MAX)
                      for (_chars, v), q in zip(forms, VV_QS)]
    out.b["vv"] = time.perf_counter() - t0
    out.wall_s = time.perf_counter() - start
    out.attempted = len(verdicts) + 1 + len(VV_QS)
    out.outputs = {"verdicts": {k: _verdict_record(v) for k, v in verdicts.items()},
                   "searches": searches, "vv_chars": [chars for chars, _v in forms]}
    return out


def _verdict_record(verdict) -> dict:
    witness = None
    if verdict.witness is not None:
        g, lam = verdict.witness
        witness = ([list(row) for row in g.entries], list(lam.exponents))
    return {"status": verdict.status, "trials": verdict.trials, "witness": witness}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _separating_lambda(v_chars, w_chars, ambient: int):
    """A small sum-zero lam with weight(v) < weight(w), or None."""
    from reference import weight

    for lam in itertools.product(range(-2, 3), repeat=ambient):
        if sum(lam) == 0 and weight(v_chars, lam) < weight(w_chars, lam):
            return lam
    return None


def check(inputs: dict, rounds: list) -> list:
    """Problems found in the outputs of every round (empty when all hold)."""
    problems = []
    for r in rounds:
        for problem in check_round(inputs, r.outputs):
            if problem not in problems:
                problems.append(problem)
    return problems


def check_round(inputs: dict, outputs: dict) -> list:
    from reference import acted_characters, simplex_in_newton_polygon, weight

    problems = []
    verdicts, searches = outputs["verdicts"], outputs["searches"]

    # P^1 is Kaehler-Einstein: by Paul's theorem every normalized pair is
    # semistable on every torus, so no trial may destabilize it
    for label, _pair, trials in inputs["normalized"]:
        rec = verdicts[label]
        if rec["status"] != "semistable-certified-on-diagonal-torus" or rec["trials"] != trials:
            problems.append(f"normalized pair {label}: {rec['status']} after {rec['trials']} trials")

    for label, pair, trials, v, w in inputs["raw"]:
        rec = verdicts[label]
        ident = np.eye(pair.ambient, dtype=int).tolist()
        lam0 = _separating_lambda(acted_characters(*v, ident), acted_characters(*w, ident),
                                  pair.ambient)
        if lam0 is not None and rec["status"] != "destabilized":
            problems.append(f"raw pair {label}: {rec['status']}, but lam={lam0} separates "
                            "on the diagonal torus")
            continue
        if rec["status"] == "destabilized":
            g, lam = rec["witness"]
            if sum(lam) != 0 or not 1 <= rec["trials"] <= trials:
                problems.append(f"raw pair {label}: malformed witness {rec}")
                continue
            if lam0 is not None and (rec["trials"] != 1 or g != ident):
                problems.append(f"raw pair {label}: the diagonal torus destabilizes, "
                                f"but the witness is trial {rec['trials']}")
            wv = weight(acted_characters(*v, g), lam)
            ww = weight(acted_characters(*w, g), lam)
            if not wv < ww:
                problems.append(f"raw pair {label}: witness fails, weights {wv} >= {ww}")

    # Delta_3 is isobaric (sum j a_j is constant on its support), so its
    # polytope lies in a proper affine subspace, while q Q + m N(v) is
    # full-dimensional: no twist exponent can exist
    disc_chars = acted_characters("disc", 3, np.eye(4, dtype=int).tolist())
    if len({sum(j * a for j, a in enumerate(ch)) for ch in disc_chars}) != 1:
        problems.append("disc:3 support is not isobaric")
    elif searches["rnc3"] is not None:
        problems.append(f"normalized rnc3 search returned {searches['rnc3']}, expected none")

    # for (v, v), q Q + m N <= (m+1) N iff q Q <= N (Radstrom cancellation)
    for chars, q, got in zip(outputs["vv_chars"], VV_QS, searches["vv"]):
        want = 1 if simplex_in_newton_polygon(chars, q) else None
        if got != want:
            problems.append(f"(v, v) search with q={q} on {sorted(chars)} returned {got}, "
                            f"expected {want}")
    return problems


def named_metrics(part_a_s: float, part_b_s: float) -> dict:
    return {PART_A: (part_a_s, "s"), PART_B: (part_b_s, "s")}
