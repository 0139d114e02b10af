"""Sparse polynomials: supports, group action, evaluation, Gaussian sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stabpair import polyrep
from stabpair.polyrep import (
    BlackBoxPolynomial,
    FormalPower,
    GroupElement,
    MatrixShape,
    OnePSG,
    SparsePolynomial,
    act,
    constant,
    determinant_poly,
    gaussian_batch,
    gaussian_chunks,
    monomial,
    poly_from_json,
    poly_to_json,
    random_unimodular,
    support,
)
from stabpair.varieties import rnc_resultant

EULER_GAMMA = 0.5772156649015329


def disc2():
    # a1^2 - 4 a0 a2 on the 1x3 space
    return SparsePolynomial(MatrixShape(1, 3), {((0, 2, 0),): 1, ((1, 0, 1),): -4})


def random_sparse(rng, rows, cols, degree, nterms):
    terms = {}
    for _ in range(nterms):
        flat = rng.multinomial(degree, np.ones(rows * cols) / (rows * cols))
        exps = tuple(tuple(int(flat[i * cols + j]) for j in range(cols))
                     for i in range(rows))
        terms[exps] = int(rng.integers(1, 5)) * (1 if rng.integers(0, 2) else -1)
    return SparsePolynomial(MatrixShape(rows, cols), terms)


# -- structure -----------------------------------------------------------------

def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        SparsePolynomial(MatrixShape(1, 2), {((1, 0),): 1, ((1, 1),): 1})


def test_sum_of_different_degrees_rejected():
    shape = MatrixShape(1, 2)
    with pytest.raises(ValueError):
        monomial(shape, ((1, 0),)) + monomial(shape, ((1, 1),))
    # the zero polynomial adds to any degree
    assert (SparsePolynomial(shape, {}) + monomial(shape, ((1, 1),))).degree == 2


def test_zero_coefficients_dropped():
    p = SparsePolynomial(MatrixShape(1, 2), {((1, 0),): 0, ((0, 1),): 2})
    assert len(p.terms) == 1 and not p.is_zero


def test_support_examples():
    single = monomial(MatrixShape(1, 3), ((1, 0, 0),))
    assert support(single) == {(1, 0, 0)}
    assert support(disc2()) == {(0, 2, 0), (1, 0, 1)}
    with pytest.raises(ValueError):
        support(SparsePolynomial(MatrixShape(1, 2), {}))


@pytest.mark.parametrize("family", ["resultant", "hyperdiscriminant"])
def test_support_matches_per_term_column_degrees(family):
    # the support reads one stacked exponent array; the reference sums each
    # term's rows in Python
    from stabpair import varieties

    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        form = getattr(varieties, f"rnc_{family}")(d)
        for p in (form, act(random_unimodular(form.shape.cols, rng), form)):
            want = {tuple(sum(row[j] for row in exps) for j in range(p.shape.cols))
                    for exps in p.terms}
            got = support(p)
            assert got == want
            assert all(type(x) is int for c in got for x in c)


def test_character_projection():
    lam = OnePSG((1, 0, -1))
    assert lam.pair((0, 2, 0)) == 0
    assert lam.pair((3, 1, 0)) == 3
    # lam sums to zero, so a projected character pairs the same
    assert lam.pair((Fraction(5, 3), Fraction(-1, 3), Fraction(-4, 3))) == 3
    with pytest.raises(ValueError):
        lam.pair((1, 0))


# -- group action ----------------------------------------------------------------

def test_act_identity():
    p = disc2()
    assert act(GroupElement.identity(3), p) == p


def test_act_torus_scales_monomial_by_character():
    shape = MatrixShape(1, 3)
    p = monomial(shape, ((2, 1, 0),), coeff=3)
    sigma = GroupElement.diagonal((2, 5, 7))
    q = act(sigma, p)
    assert q.terms == {((2, 1, 0),): 3 * 2**2 * 5}


def test_act_reversal_swaps_discriminant_coefficients():
    # reversing the coordinates maps the quadratic a0 s^2 + a1 st + a2 t^2 to
    # the reversed quadratic, so the discriminant swaps a0 <-> a2 (fixed here)
    rev = GroupElement(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    q = act(rev, disc2())
    assert q == disc2()
    # an asymmetric cubic-style polynomial actually moves
    p = SparsePolynomial(MatrixShape(1, 3), {((2, 1, 0),): 1})
    assert act(rev, p).terms == {((0, 1, 2),): 1}


def test_act_composition_law():
    rng = np.random.default_rng(2)
    shape = MatrixShape(1, 3)
    for _ in range(5):
        p = random_sparse(rng, 1, 3, 3, 4)
        s1 = random_unimodular(3, rng)
        s2 = random_unimodular(3, rng)
        left = act(s1, act(s2, p))
        right = act(s1 @ s2, p)
        assert left == right


def test_act_composition_law_float_matrices():
    rng = np.random.default_rng(21)
    for _ in range(5):
        p = random_sparse(rng, 1, 3, 3, 4)
        m1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        left = act(GroupElement(m1), act(GroupElement(m2), p))
        right = act(GroupElement(m1 @ m2), p)
        assert set(left.terms) == set(right.terms)
        for exps, c in right.terms.items():
            assert abs(left.terms[exps] - c) <= 1e-10 * max(1.0, abs(c))


def test_act_permutation_covariance_on_support():
    rng = np.random.default_rng(8)
    perm = GroupElement(((0, 1, 0), (0, 0, 1), (1, 0, 0)))  # columns cycled
    p = random_sparse(rng, 2, 3, 4, 5)
    moved = support(act(perm, p))
    # substitution sends the column-l variable to the column-m(l) variable with
    # m = {0->2, 1->0, 2->1}, so degrees relocate as c' = (c[1], c[2], c[0])
    expected = {(c[1], c[2], c[0]) for c in support(p)}
    assert moved == expected


def random_patterned(rng, rows, cols):
    """Terms of one total degree split over the rows in up to two row-degree
    patterns (rows of degree 0 included), with int and Fraction coefficients."""
    total = int(rng.integers(0, 5))
    patterns = [tuple(int(x) for x in rng.multinomial(total, np.ones(rows) / rows))
                for _ in range(2)]
    terms = {}
    for _ in range(int(rng.integers(1, 7))):
        pattern = patterns[int(rng.integers(0, 2))]
        exps = tuple(tuple(int(x) for x in rng.multinomial(d, np.ones(cols) / cols))
                     for d in pattern)
        num = int(rng.integers(1, 6)) * (1 if rng.integers(0, 2) else -1)
        terms[exps] = num if rng.integers(0, 2) else Fraction(num, int(rng.integers(2, 7)))
    return SparsePolynomial(MatrixShape(rows, cols), terms)


def shear_pair(rng, n, steps=6):
    """A unimodular integer matrix and its exact inverse, as products of shears."""
    g = h = GroupElement.identity(n)
    for _ in range(steps):
        i, j = (int(x) for x in rng.choice(n, 2, replace=False))
        k = int(rng.integers(1, 3)) * (1 if rng.integers(0, 2) else -1)
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        f = [row[:] for row in e]
        e[i][j], f[i][j] = k, -k
        g, h = g @ GroupElement(e), GroupElement(f) @ h
    return g, h


def exact_product(a, g):
    n = len(g)
    return [[sum(row[k] * g[k][j] for k in range(n)) for j in range(n)] for row in a]


def test_act_against_substitution_on_random_pairs():
    # the oracle substitutes A . sigma into P; it never calls act
    rng = np.random.default_rng(606)
    cancelled = 0
    for _ in range(500):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        p = random_patterned(rng, rows, cols)
        g, g_inv = shear_pair(rng, cols)
        a = [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(cols)]
             for _ in range(rows)]
        moved = act(g, p)
        assert moved.has_exact_coefficients() and moved.degree == p.degree
        assert moved.evaluate_exact(a) == p.evaluate_exact(exact_product(a, g.entries))
        # composition, and the exact cancellation back to P
        s, _ = shear_pair(rng, cols, steps=3)
        assert act(s, moved) == act(s @ g, p)
        back = act(g_inv, moved)
        assert back == p
        cancelled += len(moved.terms) > len(p.terms)
        # complex sigma, against evaluation at A . sigma
        m = rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols))
        x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        lhs = act(GroupElement(m), p).evaluate_batch(x[None])[0]
        rhs = p.evaluate_batch((x @ m)[None])[0]
        size = SparsePolynomial(p.shape, {e: abs(c) for e, c in p.terms.items()})
        scale = size.evaluate_batch((abs(x) @ abs(m))[None])[0].real
        assert abs(lhs - rhs) <= 1e-12 * scale
    assert cancelled > 200


def test_act_shape_checks():
    with pytest.raises(ValueError):
        act(GroupElement.identity(2), disc2())
    with pytest.raises(ValueError):
        GroupElement(((1, 1), (1, 1)))  # singular


def test_act_exactness_with_unimodular_element():
    rng = np.random.default_rng(4)
    g = random_unimodular(3, rng)
    q = act(g, disc2())
    assert q.has_exact_coefficients()
    assert g.det == 1
    swap = GroupElement(((0, 1), (1, 0)))
    assert swap.is_exact and swap.det == -1 and isinstance(swap.det, Fraction)
    with pytest.raises(ValueError):
        GroupElement(((1, 2), (2, 4)))


def test_group_element_dtype_follows_entries():
    exact = GroupElement(((1, Fraction(1, 2)), (0, 2)))
    assert exact.is_exact and exact.matrix.dtype == object
    assert exact.det == 2 and isinstance(exact.det, Fraction)
    assert exact.entries == ((1, Fraction(1, 2)), (0, 2))
    assert [type(e) for row in exact.entries for e in row] == [int, Fraction, int, int]
    assert not exact.matrix.flags.writeable
    floats = (((1.0, 0.5), (0, 2)), np.array([[1, 1], [0, 2]]), np.array([[1j, 0], [0, 2]]))
    for raw in floats:
        g = GroupElement(raw)
        assert not g.is_exact and g.matrix.dtype == complex
        assert np.array_equal(g.matrix, np.asarray(raw, dtype=complex))
        assert g.det == complex(np.linalg.det(np.asarray(raw, dtype=complex)))
        assert not g.matrix.flags.writeable
    m = np.eye(2)
    g = GroupElement(m)
    m[0, 0] = 5.0  # the element holds its own copy
    assert g.matrix[0, 0] == 1


def test_group_element_products():
    a = GroupElement(((1, 2), (0, 1)))
    b = GroupElement(((1, 0), (Fraction(1, 3), 1)))
    prod = a @ b
    assert prod.is_exact
    assert prod.entries == ((Fraction(5, 3), 2), (Fraction(1, 3), 1))
    rng = np.random.default_rng(12)
    m1, m2 = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    assert np.array_equal((GroupElement(m1) @ GroupElement(m2)).matrix, m1 @ m2)
    mixed = a @ GroupElement(m2)
    assert not mixed.is_exact
    assert np.array_equal(mixed.matrix, np.array([[1, 2], [0, 1]], dtype=complex) @ m2)
    with pytest.raises(ValueError):
        a @ GroupElement.identity(3)


def test_act_on_raw_arrays():
    with pytest.raises(ValueError):
        act(np.ones((3, 3)), disc2())  # singular
    with pytest.raises(ValueError):
        act(np.ones((3, 2)), disc2())  # not square
    with pytest.raises(ValueError):
        act([[1, 0, 0], [0, 1]], disc2())  # ragged
    rng = np.random.default_rng(13)
    p = random_sparse(rng, 1, 3, 3, 4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert act(GroupElement(m), p) == act(m, p)
    assert act(((0, 1, 0), (1, 0, 0), (0, 0, 1)), p).has_exact_coefficients()


# -- evaluation -------------------------------------------------------------------

def test_evaluate_constant():
    c = constant(MatrixShape(2, 2), 5 - 2j)
    assert c.evaluate(np.zeros((2, 2))) == 5 - 2j


def test_evaluate_disc2():
    val = disc2().evaluate(np.array([[1.0, 0.0, -1.0]]))
    assert val == pytest.approx(4.0)


def test_evaluate_batch_matches_pointwise():
    rng = np.random.default_rng(3)
    p = random_sparse(rng, 2, 3, 4, 6)
    batch = gaussian_batch(p.shape, 32, rng)
    vals = p.evaluate_batch(batch)
    for i in range(0, 32, 7):
        assert vals[i] == p.evaluate(batch[i])


def test_evaluate_batch_is_chunk_invariant():
    # res:4 on 10,000 samples spans three chunks; a window across the first
    # chunk boundary, evaluated by itself, gives the same bits
    p = rnc_resultant(4)
    batch = gaussian_batch(p.shape, 10_000, np.random.default_rng(21))
    vals = p.evaluate_batch(batch)
    edge = polyrep.EVALUATION_CHUNK
    window = slice(edge - 700, edge + 900)
    assert vals[window].tobytes() == p.evaluate_batch(batch[window]).tobytes()
    assert vals[edge - 1] == p.evaluate(batch[edge - 1])
    assert vals[edge] == p.evaluate(batch[edge])


@pytest.mark.parametrize("make", [disc2, lambda: rnc_resultant(4), lambda: rnc_resultant(5)],
                         ids=["sparse", "res:4", "res:5"])
def test_every_kind_rejects_non_finite_points_and_misshapen_batches(make):
    # sparse forms, expanded RNC forms and black boxes share one front door
    p = make()
    with pytest.raises(ValueError, match="non-finite entries in argument"):
        p.evaluate(np.full(p.shape, np.nan))
    with pytest.raises(ValueError, match="non-finite entries in argument"):
        p(np.full(p.shape, np.inf))
    with pytest.raises(ValueError, match="batch shape mismatch"):
        p.evaluate_batch(np.zeros((3, p.shape.rows, p.shape.cols + 1)))
    with pytest.raises(ValueError, match="batch shape mismatch"):
        p.evaluate_batch(np.zeros(tuple(p.shape)))


def test_homogeneity_numeric():
    rng = np.random.default_rng(12)
    for _ in range(6):
        p = random_sparse(rng, 1, 4, int(rng.integers(1, 5)), 4)
        a = gaussian_batch(p.shape, 1, rng)[0]
        t = complex(rng.standard_normal() + 1j * rng.standard_normal())
        lhs = p.evaluate(t * a)
        rhs = t ** p.degree * p.evaluate(a)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_determinant_poly_matches_numpy():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        p = determinant_poly(n)
        assert len(p.terms) == math.factorial(n)
        a = gaussian_batch(MatrixShape(n, n), 1, rng)[0]
        assert p.evaluate(a) == pytest.approx(complex(np.linalg.det(a)), rel=1e-10)


# -- black boxes and formal powers --------------------------------------------------

def test_blackbox_homogeneity_check_rejects_wrong_degree():
    good = BlackBoxPolynomial(MatrixShape(2, 2), 2,
                              evaluator=np.linalg.det)
    assert good.degree == 2
    with pytest.raises(ValueError):
        BlackBoxPolynomial(MatrixShape(2, 2), 3,
                           evaluator=np.linalg.det)


def test_blackbox_evaluator_must_return_one_value_per_matrix():
    p = BlackBoxPolynomial(MatrixShape(2, 2), 2,
                           evaluator=lambda b: np.linalg.det(b)[:, None], check_samples=0)
    with pytest.raises(ValueError):
        p.evaluate_batch(np.eye(2, dtype=complex)[None].repeat(3, axis=0))


def test_formal_power_bookkeeping():
    fp = FormalPower(disc2(), 5)
    assert fp.degree == 10
    with pytest.raises(ValueError):
        FormalPower(disc2(), 0)
    # formal powers are never evaluated; their bases are
    assert not hasattr(fp, "evaluate") and not hasattr(fp, "evaluate_batch")


def test_formal_power_support_is_iterated_sumset():
    # never formed: weights and polytopes scale linearly in the exponent
    with pytest.raises(ValueError, match="formal power"):
        support(FormalPower(disc2(), 2))


# -- Gaussian sampling ---------------------------------------------------------------

def test_gaussian_moments():
    n = 10**6
    batch = gaussian_batch(MatrixShape(1, 1), n, rng_seed=7)[:, 0, 0]
    sq = np.abs(batch) ** 2
    mean_sq = sq.mean()
    se_sq = sq.std(ddof=1) / np.sqrt(n)
    assert abs(mean_sq - 1.0) < 3 * se_sq

    mean_z = batch.mean()
    se_z = batch.std(ddof=1) / np.sqrt(n)
    assert abs(mean_z) < 3 * se_z

    logs = np.log(sq)
    mean_log = logs.mean()
    se_log = logs.std(ddof=1) / np.sqrt(n)
    assert abs(mean_log - (-EULER_GAMMA)) < 3 * se_log


def test_gaussian_sampling_deterministic():
    a = gaussian_batch(MatrixShape(2, 3), 5, rng_seed=123)
    b = gaussian_batch(MatrixShape(2, 3), 5, rng_seed=123)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(1, 13), (2, 5), (3, 3)])
def test_gaussian_batch_is_the_complex_quotient_bit_for_bit(shape):
    # every seeded height depends on this stream, byte for byte, and a
    # streamed shard draws exactly the samples of its whole batch
    chunk = polyrep.EVALUATION_CHUNK
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 16 * chunk + 1):
        for seed in (0, 7, 2024):
            rng = np.random.default_rng(seed)
            re = rng.standard_normal((count, *shape))
            im = rng.standard_normal((count, *shape))
            want = (re + 1j * im) / np.sqrt(2.0)
            got = gaussian_batch(MatrixShape(*shape), count, np.random.default_rng(seed))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            parts = list(gaussian_chunks(MatrixShape(*shape), count,
                                         np.random.default_rng(seed)))
            assert [len(c) for c in parts] == [min(chunk, count - lo)
                                               for lo in range(0, count, chunk)]
            if parts:
                assert np.concatenate(parts).tobytes() == want.tobytes()


# -- serialization ---------------------------------------------------------------------

def test_json_roundtrip():
    p = disc2()
    q = poly_from_json(poly_to_json(p))
    assert q == p


def test_json_keeps_rational_coefficients_exact():
    shape = MatrixShape(1, 3)
    p = SparsePolynomial(shape, {((1, 1, 0),): Fraction(1, 3), ((0, 0, 2),): Fraction(-7, 4),
                                 ((2, 0, 0),): Fraction(6, 3), ((0, 2, 0),): 5})
    text = poly_to_json(p)
    assert '"q": "1/3"' in text and '"q": "-7/4"' in text
    q = poly_from_json(text)
    assert q == p and q.terms[((1, 1, 0),)] == Fraction(1, 3)
    assert q.has_exact_coefficients()
    # integer coefficients keep the re/im encoding
    assert poly_to_json(disc2()) == poly_to_json(poly_from_json(poly_to_json(disc2())))
    assert '"re": 2.0, "im": 0.0' in text


def test_json_schema_fields():
    import json as _json

    payload = _json.loads(poly_to_json(disc2()))
    assert payload["shape"] == [1, 3]
    assert payload["degree"] == 2
    assert {frozenset(t) for t in map(dict.keys, payload["terms"])} == \
        {frozenset({"exps", "re", "im"})}
