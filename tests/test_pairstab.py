"""Pair semistability: weight polytopes, one-parameter weights, probing."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from stabpair.exactgeom import contains, dilate, minkowski_sum, support_min
from stabpair.pairstab import (
    CERTIFIED,
    DESTABILIZED,
    PairSpec,
    _probe_trial,
    _weight_table,
    module_degree,
    ops_weight,
    semistable_diagonal,
    semistable_probe,
    separating_functionals,
    simplex_qn,
    stable_search,
    verify_witness,
    weight_polytope,
)
from stabpair.polyrep import (
    FormalPower,
    GroupElement,
    MatrixShape,
    OnePSG,
    SparsePolynomial,
    act,
    constant,
    monomial,
    random_unimodular,
    support,
)

F = Fraction


def disc2():
    return SparsePolynomial(MatrixShape(1, 3), {((0, 2, 0),): 1, ((1, 0, 1),): -4})


def poly_from_chars(chars, cols, rows=1):
    """One polynomial per support: unit coefficient monomial sum."""
    terms = {}
    for c in chars:
        exps = tuple(tuple(c[j] if i == 0 else 0 for j in range(cols))
                     for i in range(rows))
        terms[exps] = 1
    return SparsePolynomial(MatrixShape(rows, cols), terms)


def random_support_poly(rng, cols, degree, npoints):
    chars = set()
    for _ in range(20 * npoints):
        flat = rng.multinomial(degree, np.ones(cols) / cols)
        chars.add(tuple(int(x) for x in flat))
        if len(chars) >= npoints:
            break
    return poly_from_chars(sorted(chars), cols)


def random_sum_zero(rng, n):
    lam = [int(x) for x in rng.integers(-3, 4, size=n)]
    lam[-1] -= sum(lam)
    if all(x == 0 for x in lam):
        lam[0] += 1
        lam[-1] -= 1
    return OnePSG(tuple(lam))


# -- weight polytopes ------------------------------------------------------------

def test_weight_polytope_monomial_is_point():
    p = monomial(MatrixShape(1, 3), ((2, 1, 0),))
    wp = weight_polytope(p)
    assert set(wp.vertices) == {(F(1), F(0), F(-1))}


def test_weight_polytope_disc2_segment():
    wp = weight_polytope(disc2())
    assert set(wp.vertices) == {
        (F(-2, 3), F(4, 3), F(-2, 3)),
        (F(1, 3), F(-2, 3), F(1, 3)),
    }


def test_simplex_qn_ambient_two():
    qn = simplex_qn(2)
    assert set(qn.vertices) == {(F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2))}
    # origin strictly inside: both facets hold strictly
    assert qn.contains_point((0, 0))


def test_weight_polytope_formal_power_dilates():
    fp = FormalPower(disc2(), 3)
    assert weight_polytope(fp) == dilate(weight_polytope(disc2()), 3)


# -- one-parameter weights ----------------------------------------------------------

def test_ops_weight_monomial():
    p = monomial(MatrixShape(1, 3), ((2, 0, 1),))
    assert ops_weight(p, OnePSG((1, 0, -1))) == 1


def test_ops_weight_disc2():
    assert ops_weight(disc2(), OnePSG((1, 0, -1))) == 0
    assert ops_weight(disc2(), OnePSG((2, -1, -1))) == -2


def test_ops_weight_rejects_non_sum_zero():
    with pytest.raises(ValueError):
        ops_weight(disc2(), OnePSG((1, 0, 0)))


def test_ops_weight_rejects_non_integer_exponents():
    # (1.9, 0, -1.9) used to truncate silently to (1, 0, -1)
    with pytest.raises(ValueError):
        ops_weight(disc2(), (1.9, 0, -1.9))


def test_ops_weight_equals_projected_support_min():
    rng = np.random.default_rng(31)
    for _ in range(30):
        cols = int(rng.integers(2, 5))
        p = random_support_poly(rng, cols, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        lam = random_sum_zero(rng, cols)
        raw = ops_weight(p, lam)
        projected = support_min(weight_polytope(p), lam.exponents)
        assert raw == projected


def test_ops_weight_tensor_additivity():
    rng = np.random.default_rng(17)
    from stabpair.polyrep import tensor_support

    for _ in range(20):
        cols = int(rng.integers(2, 5))
        v = random_support_poly(rng, cols, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        w = random_support_poly(rng, cols, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        lam = random_sum_zero(rng, cols)
        combined = min(c.pair(lam) for c in tensor_support(v, w))
        assert combined == ops_weight(v, lam) + ops_weight(w, lam)


def test_ops_weight_formal_power_scales():
    lam = OnePSG((2, -1, -1))
    assert ops_weight(FormalPower(disc2(), 4), lam) == 4 * ops_weight(disc2(), lam)


def test_tensor_support_hull_is_minkowski_sum_of_hulls():
    from stabpair.exactgeom import convex_hull, minkowski_sum
    from stabpair.polyrep import tensor_support

    rng = np.random.default_rng(29)
    for _ in range(10):
        cols = int(rng.integers(2, 5))
        v = random_support_poly(rng, cols, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        w = random_support_poly(rng, cols, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        hull_of_tensor = convex_hull([c.projected()
                                      for c in tensor_support(v, w)])
        summed = minkowski_sum(weight_polytope(v), weight_polytope(w))
        assert hull_of_tensor == summed


# -- diagonal semistability -----------------------------------------------------------

def test_semistable_diagonal_reflexive():
    p = disc2()
    assert semistable_diagonal(PairSpec.of(p, p))


def test_semistable_monomial_at_vertex_of_target():
    w = disc2()
    v = monomial(MatrixShape(1, 3), ((0, 2, 0),))  # a vertex character of N(w)
    assert semistable_diagonal(PairSpec.of(v, w))


def test_semistable_big_inside_point_fails():
    v = poly_from_chars([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3)  # full 2Q-ish hull
    w = monomial(MatrixShape(1, 3), ((1, 1, 0),))
    assert not semistable_diagonal(PairSpec.of(v, w))


def test_equivalence_of_containment_and_weights():
    # containment N(v) <= N(w) holds iff every functional of the certificate
    # set (facet normals and both signs of affine-hull normals) plus random
    # probes satisfies ops_weight(v, lam) >= ops_weight(w, lam)
    rng = np.random.default_rng(77)
    for _ in range(60):
        cols = int(rng.integers(2, 5))
        deg = int(rng.integers(1, 5))
        w = random_support_poly(rng, cols, deg, int(rng.integers(1, 6)))
        if rng.integers(0, 2):
            sub = [c.degrees for c in support(w)]
            keep = sorted(sub)[: max(1, len(sub) - 1)]
            v = poly_from_chars(keep, cols)
        else:
            v = random_support_poly(rng, cols, int(rng.integers(1, 5)),
                                    int(rng.integers(1, 4)))
        wp_v, wp_w = weight_polytope(v), weight_polytope(w)
        geometric = contains(wp_w, wp_v)
        lams = separating_functionals(wp_w) + [random_sum_zero(rng, cols)
                                               for _ in range(25)]
        numeric = all(ops_weight(v, lam) >= ops_weight(w, lam) for lam in lams)
        assert geometric == numeric


# -- probing -----------------------------------------------------------------------

def test_probe_reflexive_pair_certified():
    pair = PairSpec.of(disc2(), disc2())
    verdict = semistable_probe(pair, trials=10, rng_seed=1)
    assert verdict.status == CERTIFIED
    assert verdict.trials == 10


def test_probe_mumford_reduction_destabilizes_at_identity():
    # v constant, w missing the origin from its weight polytope: the orbit
    # of w can reach zero, and the identity trial already certifies that.
    w = monomial(MatrixShape(1, 2), ((2, 0),))
    v = constant(MatrixShape(1, 2), 1)
    verdict = semistable_probe(PairSpec.of(v, w), trials=5, rng_seed=3)
    assert verdict.status == DESTABILIZED
    assert verdict.trials == 1
    g, lam = verdict.witness
    check = verify_witness(PairSpec.of(v, w), g, lam)
    assert check["valid"] and check["weight_v"] < check["weight_w"]


def test_probe_matches_lp_oracle_across_conjugates():
    # oracle: exact point-in-hull LPs instead of halfspace checks
    from stabpair.exactgeom import _point_in_hull

    rng = np.random.default_rng(5)
    v = disc2()
    w_pair = FormalPower(disc2(), 2)
    pair = PairSpec.of(v, w_pair)
    verdict = semistable_probe(pair, trials=50, rng_seed=11)

    oracle_destabilized = False
    seeds = np.random.SeedSequence(11).spawn(50)
    from stabpair.polyrep import GroupElement

    elements = [GroupElement.identity(3)] + [
        random_unimodular(3, np.random.default_rng(s)) for s in seeds[1:]]
    for g in elements:
        wp_v = weight_polytope(act(g, pair.v))
        wp_w = weight_polytope(act(g, pair.w))
        if not all(_point_in_hull(x, list(wp_w.vertices)) for x in wp_v.vertices):
            oracle_destabilized = True
            break
    assert verdict.destabilized == oracle_destabilized


def test_probe_witness_reverifies_on_destabilized_random_pairs():
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(30):
        cols = int(rng.integers(2, 4))
        v = random_support_poly(rng, cols, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        w = random_support_poly(rng, cols, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        pair = PairSpec.of(v, w)
        verdict = semistable_probe(pair, trials=6, rng_seed=int(rng.integers(0, 10**6)))
        if verdict.destabilized:
            found += 1
            g, lam = verdict.witness
            assert verify_witness(pair, g, lam)["valid"]
    assert found > 0  # random pairs destabilize often


def test_probe_stops_at_first_destabilizer(monkeypatch):
    import stabpair.pairstab as pairstab

    calls = []
    real_trial = pairstab._probe_trial

    def counting_trial(pair, g):
        calls.append(g)
        return real_trial(pair, g)

    monkeypatch.setattr(pairstab, "_probe_trial", counting_trial)
    # N(w) is a single point, so the diagonal torus already destabilizes
    pair = PairSpec.of(disc2(), monomial(MatrixShape(1, 3), ((1, 1, 0),)))
    assert not semistable_diagonal(pair)
    verdict = semistable_probe(pair, trials=12, rng_seed=9)
    assert verdict.destabilized and verdict.trials == 1
    assert len(calls) == 1


def test_probe_trial_hulls_only_the_w_side(hull_inputs):
    from stabpair import varieties

    g = random_unimodular(3, np.random.default_rng(4))
    certified = varieties.normalized_pair(varieties.rnc_example(2))
    destabilized = PairSpec.of(disc2(), monomial(MatrixShape(1, 3), ((1, 1, 0),)))
    for pair, want in ((certified, None), (destabilized, OnePSG)):
        del hull_inputs[:]
        lam = _probe_trial(pair, g)
        assert lam is None if want is None else isinstance(lam, want)
        assert hull_inputs == [weight_polytope(act(g, pair.w))._points]


def test_probe_normalized_rnc4_certifies_a_conjugate_torus():
    # P^1 is Kaehler-Einstein, so by Paul's theorem the normalized pair of
    # the rational normal quartic is semistable on every maximal torus
    from stabpair import varieties

    pair = varieties.normalized_pair(varieties.rnc_example(4))
    verdict = semistable_probe(pair, trials=2, rng_seed=0)
    assert verdict.status == CERTIFIED and verdict.trials == 2


# -- module degree ------------------------------------------------------------------

def test_module_degree_examples():
    assert module_degree(monomial(MatrixShape(1, 4), ((0, 3, 0, 0),))) == 3
    assert module_degree(disc2()) == 2
    assert module_degree(disc2(), generic=True) == 2
    assert module_degree(constant(MatrixShape(1, 3), 5)) == 1
    zero = SparsePolynomial(MatrixShape(1, 3), {}, 2)
    for p in (zero, FormalPower(zero, 3)):
        with pytest.raises(ValueError, match="zero polynomial spans no module"):
            module_degree(p)


def test_module_degree_bound_attained():
    # N(disc2) fits in 2Q but not in Q
    qn = simplex_qn(3)
    wp = weight_polytope(disc2())
    assert contains(dilate(qn, 2), wp)
    assert not contains(qn, wp)


def test_module_degree_generic_matches_closed():
    for cols, deg in [(2, 1), (2, 4), (3, 2), (4, 3)]:
        p = monomial(MatrixShape(1, cols), (tuple(deg if j == 0 else 0
                                                  for j in range(cols)),))
        assert module_degree(p, generic=True) == deg


# -- stable search -------------------------------------------------------------------

def test_stable_search_simplex_support_hits_m_one():
    # N(w) = 3Q contains qQ for q <= 3, so the twist criterion is met at m=1
    w = poly_from_chars([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3)
    pair = PairSpec.of(w, w)
    assert stable_search(pair, q=3, m_max=10) == 1
    assert stable_search(pair, q=3, m_max=10, probe_trials=5, rng_seed=2) == 1


def test_stable_search_obstruction_never_clears():
    # N(v) not inside N(w): a separating functional keeps a strict gap at
    # every m, so the sweep returns nothing
    v = monomial(MatrixShape(1, 3), ((3, 0, 0),))
    w = monomial(MatrixShape(1, 3), ((0, 0, 3),))
    pair = PairSpec.of(v, w)
    assert stable_search(pair, q=1, m_max=25) is None


def test_stable_search_conjugate_cross_check_rejects(monkeypatch):
    # w = (z0 - z1)(z0 + 2 z1): on the diagonal torus its polytope is the
    # full segment, so q=1 passes at m=1; the integer shear [[1,0],[1,1]]
    # kills the z1^2 monomial (w(1,1) = 0), leaving a half segment that can
    # never absorb the symmetric simplex summand
    from stabpair import pairstab
    from stabpair.polyrep import GroupElement

    v = constant(MatrixShape(1, 2), 1)
    w = SparsePolynomial(MatrixShape(1, 2),
                         {((2, 0),): 1, ((1, 1),): 1, ((0, 2),): -2})
    pair = PairSpec.of(v, w)
    assert stable_search(pair, q=1, m_max=10) == 1
    shear = GroupElement(((1, 0), (1, 1)))
    assert act(shear, w).terms == {((2, 0),): 1, ((1, 1),): 3}  # z1^2 gone
    with monkeypatch.context() as patch:
        patch.setattr(pairstab, "random_unimodular", lambda n, rng: shear)
        assert stable_search(pair, q=1, m_max=10, probe_trials=1) is None
    # the pair itself stays semistable (0 remains a boundary point)
    verdict = semistable_probe(pair, trials=20, rng_seed=8)
    assert verdict.status == CERTIFIED


def test_stable_search_hulls_only_the_target(hull_inputs):
    # the search reads weights over N(w)'s certificate functionals: N(w) is
    # hulled once for its facets, and N(v) is read only through its support
    from stabpair import varieties

    pair = varieties.normalized_pair(varieties.rnc_example(3))
    assert stable_search(pair, q=24, m_max=6) is None
    assert hull_inputs == [weight_polytope(pair.w)._points]


def test_stable_search_scheme_variants_run():
    w = poly_from_chars([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3)
    pair = PairSpec.of(w, w)
    m_default = stable_search(pair, q=2, m_max=10, scheme="m:m+1")
    m_shifted = stable_search(pair, q=2, m_max=10, scheme="m-1:m")
    assert m_default is not None and m_shifted is not None
    with pytest.raises(ValueError):
        stable_search(pair, q=2, m_max=5, scheme="bogus")


# -- destabilizer extraction -----------------------------------------------------------

def random_pair_supports(rng, cols):
    """(v, w) on `cols` columns; w is often degenerate and v often inside it."""
    w = random_support_poly(rng, cols, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return w, w
    if kind == 1:
        chars = sorted(c.degrees for c in support(w))
        keep = [chars[i] for i in sorted(set(rng.integers(0, len(chars), size=len(chars))))]
        return poly_from_chars(keep, cols), w
    return random_support_poly(rng, cols, w.degree, int(rng.integers(1, 4))), w


def reference_destabilizer(outer, inner):
    """First certificate functional of `outer` whose minimum over `inner` is lower."""
    for lam in separating_functionals(outer):
        if support_min(inner, lam.exponents) < support_min(outer, lam.exponents):
            return lam
    return None


def test_destabilizing_functional_direction():
    # the weight table decides containment exactly, and its first failing
    # row is the first separating functional of N(w) that N(v) undercuts
    rng = np.random.default_rng(41)
    found = 0
    identity = {cols: GroupElement.identity(cols) for cols in range(2, 5)}
    for _ in range(80):
        cols = int(rng.integers(2, 5))
        v, w = random_pair_supports(rng, cols)
        inner, outer = weight_polytope(v), weight_polytope(w)
        pair = PairSpec.of(v, w)
        table = _weight_table(v, w)
        assert [lam for lam, _wv, _ww in table] == separating_functionals(outer)
        for lam, wv, ww in table:
            assert wv == support_min(inner, lam.exponents)
            assert ww == support_min(outer, lam.exponents)
        want = reference_destabilizer(outer, inner)
        assert (want is None) == contains(outer, inner) == semistable_diagonal(pair)
        assert _probe_trial(pair, identity[cols]) == want
        if want is not None:
            found += 1
            assert sum(want.exponents) == 0
            assert ops_weight(v, want) < ops_weight(w, want)
    assert 10 < found < 70


def reference_stable_search(pair, q, m_max, scheme, probe_trials, rng_seed):
    """The twist criterion as polytope containment, on every torus at every m."""
    qn = simplex_qn(pair.ambient)
    seeds = np.random.SeedSequence(rng_seed).spawn(probe_trials)
    tori = [GroupElement.identity(pair.ambient)] + [
        random_unimodular(pair.ambient, np.random.default_rng(s)) for s in seeds]

    @functools.cache
    def polytopes(i):
        v, w = (pair.v, pair.w) if i == 0 else (act(tori[i], pair.v), act(tori[i], pair.w))
        return weight_polytope(v), weight_polytope(w)

    def holds(i, m):
        k = m if scheme == "m:m+1" else m - 1
        wp_v, wp_w = polytopes(i)
        source = minkowski_sum(dilate(qn, q), dilate(wp_v, k))
        # (k+1) N(w) contains the source exactly when N(w) contains source / (k+1)
        return contains(wp_w, dilate(source, F(1, k + 1)))

    for m in range(1, m_max + 1):
        if all(holds(i, m) for i in range(len(tori))):
            return m
    return None


def test_stable_search_matches_containment_reference():
    rng = np.random.default_rng(43)
    results = []
    for _ in range(200):
        cols = int(rng.integers(2, 5))
        v, w = random_pair_supports(rng, cols)
        pair = PairSpec.of(v, w)
        q = int(rng.integers(1, 5))
        probe_trials = int(rng.integers(0, 3))
        seed = int(rng.integers(0, 10**6))
        for scheme in ("m:m+1", "m-1:m"):
            got = stable_search(pair, q=q, m_max=4, scheme=scheme,
                                probe_trials=probe_trials, rng_seed=seed)
            assert got == reference_stable_search(pair, q, 4, scheme, probe_trials, seed)
            results.append(got)
    assert 20 < sum(m is not None for m in results) < len(results)
