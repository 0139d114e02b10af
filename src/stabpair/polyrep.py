"""Sparse homogeneous polynomials on matrix variable spaces.

A polynomial lives on the space of k x (N+1) complex matrices.  Terms are
stored as a map from exponent matrices (k x (N+1) nonnegative integers) to
coefficients; coefficients stay exact (int / Fraction) whenever they were
constructed from exact data, so torus supports survive cancellation exactly.

The group SL(N+1, C) acts by substitution on columns:

    (sigma . P)(A) := P(A . sigma)

which composes as act(s1, act(s2, P)) = act(s1 s2, P).  Any consistent
one-sided convention yields the same orbit norms for the unitarily
invariant norms used downstream.  The action is a tensor action: terms
sharing a row-degree pattern (d_1, ..., d_k) form a dense coefficient
tensor in Sym^{d_1} (x) ... (x) Sym^{d_k} on a fixed monomial basis per
degree, and sigma maps it by one mode product per row with the matrix
S_d(sigma) of x^a -> prod_l (sum_k sigma[k, l] x_k)^{a_l}, built by the
degree recursion on the columns the input uses.  A group element is one
read-only matrix: an object array when every entry is a Python int or
Fraction, complex128 otherwise.  Exact group elements on exact
coefficients run on those objects, anything else in complex128.

Large resultants and hyperdiscriminants are never expanded; they enter as
black-box polynomials (one evaluator mapping a (count, rows, cols) stack to
count values, with a declared degree that is spot-checked for homogeneity),
and formal tensor powers defer to linearity rules for weights, polytopes
and log-norms.  Both evaluable kinds share one front door, which checks
shapes, rejects a point with non-finite entries and evaluates a point as a
batch of one; each kind supplies only its batch values.  A black box's come
from its evaluator, a sparse polynomial's from one term loop over
cache-sized sample chunks (the expanded rational-normal-curve forms of
`varieties` override that with their Bezout determinants).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .exactgeom import _rref

__all__ = [
    "MatrixShape",
    "SparsePolynomial",
    "GroupElement",
    "OnePSG",
    "BlackBoxPolynomial",
    "FormalPower",
    "support",
    "act",
    "gaussian_chunks",
    "gaussian_batch",
    "random_unimodular",
    "exact_gaussian_norm_sq",
    "poly_to_json",
    "poly_from_json",
    "monomial",
    "constant",
    "determinant_poly",
]

EVALUATION_CHUNK = 4096  # samples per chunk of batch evaluation, by terms or Bezout minors


class MatrixShape(NamedTuple):
    rows: int
    cols: int


@dataclass(frozen=True)
class OnePSG:
    """Algebraic one-parameter subgroup of the diagonal torus of SL(N+1).

    Identified with its integer exponent vector, which sums to zero; it is
    also the sum-zero integer functional that weights pair characters with.
    A torus character is a column-degree tuple, as `support` returns it:
    the torus scales column j by t_j, so a monomial transforms by
    prod t_j ** degrees[j].
    """

    exponents: tuple

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if exps != tuple(self.exponents):
            raise ValueError("one-parameter subgroup exponents must be integers")
        if sum(exps) != 0:
            raise ValueError("one-parameter subgroup exponents must sum to zero")
        object.__setattr__(self, "exponents", exps)

    def matrix(self, t: complex) -> np.ndarray:
        return np.diag([complex(t) ** e for e in self.exponents])

    def pair(self, character: tuple) -> int:
        """<character, lam>, exact; projecting the character to the sum-zero
        hyperplane first would not change it."""
        if len(character) != len(self.exponents):
            raise ValueError("character / one-parameter-subgroup length mismatch")
        return sum(a * l for a, l in zip(character, self.exponents))


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


def _column_degree_array(p: "SparsePolynomial") -> np.ndarray:
    """The column degrees of P's terms, one integer row per term in term order."""
    return np.array(list(p.terms), dtype=np.int64).reshape(len(p.terms), *p.shape).sum(axis=1)


class _Evaluated:
    """The evaluation front door of both polynomial kinds: each supplies only
    `_batch_values` on a checked (count, rows, cols) complex stack."""

    __slots__ = ()

    def evaluate(self, a) -> complex:
        """Value at a single matrix of finite entries: a batch of one."""
        a = np.asarray(a, dtype=complex)
        if a.shape != tuple(self.shape):
            raise ValueError("argument shape mismatch")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite entries in argument")
        return complex(self.evaluate_batch(a[None])[0])

    def evaluate_batch(self, batch: np.ndarray) -> np.ndarray:
        """Vectorized values on a (count, rows, cols) stack of matrices."""
        batch = np.asarray(batch, dtype=complex)
        if batch.ndim != 3 or batch.shape[1:] != tuple(self.shape):
            raise ValueError("batch shape mismatch")
        return self._batch_values(batch)

    __call__ = evaluate


class SparsePolynomial(_Evaluated):
    """Homogeneous polynomial in matrix entries, stored term-by-term.

    `terms` maps exponent matrices to nonzero coefficients; all terms share
    the same total degree.  Instances are immutable in use: arithmetic
    returns new objects and never mutates existing ones.
    """

    __slots__ = ("shape", "terms", "degree", "_plan")

    def __init__(self, shape: MatrixShape, terms: dict, degree: Optional[int] = None):
        shape = MatrixShape(*shape)
        clean = {}
        for exps, coeff in terms.items():
            if coeff == 0:
                continue
            exps = tuple(tuple(int(e) for e in row) for row in exps)
            if len(exps) != shape.rows or any(len(row) != shape.cols for row in exps):
                raise ValueError("exponent matrix does not match declared shape")
            if any(e < 0 for row in exps for e in row):
                raise ValueError("negative exponent")
            clean[exps] = coeff
        degrees = {sum(e for row in exps for e in row) for exps in clean}
        if len(degrees) > 1:
            raise ValueError(f"non-homogeneous term set with degrees {sorted(degrees)}")
        if degrees:
            inferred = degrees.pop()
            if degree is not None and degree != inferred:
                raise ValueError("declared degree disagrees with terms")
            degree = inferred
        elif degree is None:
            degree = 0
        self.shape = shape
        self.terms = clean
        self.degree = degree
        self._plan = None  # cached by act

    @classmethod
    def _trusted(cls, shape: MatrixShape, terms: dict, degree: int) -> "SparsePolynomial":
        """Wrap terms already known to be nonzero, well-shaped and of `degree`."""
        p = object.__new__(cls)
        p.shape, p.terms, p.degree, p._plan = shape, terms, degree, None
        return p

    # -- basic structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def has_exact_coefficients(self) -> bool:
        return all(_is_exact(c) for c in self.terms.values())

    def __eq__(self, other):
        return (isinstance(other, SparsePolynomial) and self.shape == other.shape
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.shape, frozenset(self.terms.items())))

    def __repr__(self):
        return (f"SparsePolynomial(shape={tuple(self.shape)}, degree={self.degree}, "
                f"terms={len(self.terms)})")

    # -- ring operations -------------------------------------------------------

    def _check_compatible(self, other: "SparsePolynomial"):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_compatible(other)
        if self.terms and other.terms and self.degree != other.degree:
            raise ValueError(f"non-homogeneous sum of degrees {self.degree}, {other.degree}")
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        deg = self.degree if self.terms or not other.terms else other.degree
        return SparsePolynomial._trusted(self.shape, out, deg)

    def __neg__(self):
        return SparsePolynomial._trusted(self.shape, {e: -c for e, c in self.terms.items()},
                                         self.degree)

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SparsePolynomial):
            self._check_compatible(other)
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    prod = c1 * c2
                    key = tuple(tuple(a + b for a, b in zip(r1, r2))
                                for r1, r2 in zip(e1, e2))
                    s = out.get(key, 0) + prod
                    if s == 0:
                        out.pop(key, None)
                    else:
                        out[key] = s
            return SparsePolynomial._trusted(self.shape, out, self.degree + other.degree)
        # scalar: a float product can underflow to zero, so the terms are checked
        if other == 0:
            return SparsePolynomial(self.shape, {}, self.degree)
        return SparsePolynomial(self.shape,
                                {e: c * other for e, c in self.terms.items()},
                                self.degree)

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------------

    def _term_sum(self, x, total, cast):
        """total + sum of cast(coeff) * prod x[i][j] ** e over the terms, where
        x[i][j] is a strided sample column (batch) or a Fraction (exact)."""
        power = lru_cache(maxsize=None)(lambda i, j, e: x[i][j] ** e)  # each x_ij^e once
        for exps, coeff in self.terms.items():
            term = cast(coeff)
            for i, row in enumerate(exps):
                for j, e in enumerate(row):
                    if e:
                        term = term * power(i, j, e)
            total += term
        return total

    def _batch_values(self, batch: np.ndarray) -> np.ndarray:
        """The term loop on a checked batch, over chunks of EVALUATION_CHUNK
        samples whose powers stay in cache."""
        out = np.empty(len(batch), dtype=complex)
        for lo in range(0, len(out), EVALUATION_CHUNK):
            x = np.moveaxis(batch[lo:lo + EVALUATION_CHUNK], 0, -1)
            out[lo:lo + EVALUATION_CHUNK] = self._term_sum(
                x, np.zeros(x.shape[-1], dtype=complex), complex)
        return out

    def evaluate_exact(self, a):
        """Value at a matrix of exact (int / Fraction) entries, exactly.

        Arbitrary-precision rational arithmetic: no rounding, so planted
        zeros really come out as zero regardless of coefficient growth.
        """
        if not self.has_exact_coefficients():
            raise ValueError("exact evaluation needs exact coefficients")
        rows = [[Fraction(x) for x in row] for row in a]
        if len(rows) != self.shape.rows or any(len(r) != self.shape.cols
                                               for r in rows):
            raise ValueError("argument shape mismatch")
        return self._term_sum(rows, Fraction(0), Fraction)


class GroupElement:
    """Invertible square matrix, stored once as the read-only array `matrix`.

    The dtype is `object` when every entry is a Python int or Fraction; the
    entries are then kept as they are, so exact group elements substitute
    exactly into polynomials.  Any other input (Python floats, numpy
    numeric arrays) is stored as complex128.  `det` is exact (a Fraction)
    for exact elements.
    """

    __slots__ = ("matrix", "det")

    def __init__(self, matrix):
        # a numpy array keeps its dtype; nested sequences keep their objects
        arr = np.array(matrix, dtype=None if isinstance(matrix, np.ndarray) else object)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("group element must be square")
        if arr.dtype == object and all(map(_is_exact, arr.flat)):
            det = _rref(arr, len(arr))[2]
        else:
            arr = arr.astype(complex, copy=False)
            det = complex(np.linalg.det(arr))
        if det == 0:
            raise ValueError("singular matrix is not a group element")
        arr.flags.writeable = False
        self.matrix, self.det = arr, det

    @property
    def is_exact(self) -> bool:
        return self.matrix.dtype == object

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def entries(self) -> tuple:
        """The rows as tuples: the original int / Fraction objects when exact."""
        return tuple(map(tuple, self.matrix.tolist()))

    @staticmethod
    def identity(n: int) -> "GroupElement":
        return GroupElement.diagonal((1,) * n)

    @staticmethod
    def diagonal(diag: Sequence) -> "GroupElement":
        n = len(diag)
        return GroupElement([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.size != self.size:
            raise ValueError("size mismatch")
        if self.is_exact and other.is_exact:
            return GroupElement(self.matrix @ other.matrix)
        return GroupElement(_complex(self) @ _complex(other))


def _complex(sigma: GroupElement) -> np.ndarray:
    """The complex128 matrix of sigma (a converted copy when sigma is exact)."""
    return np.asarray(sigma.matrix, dtype=complex)


def _group_element(sigma) -> GroupElement:
    """sigma itself if a GroupElement, else the GroupElement of that matrix."""
    return sigma if isinstance(sigma, GroupElement) else GroupElement(sigma)


@dataclass
class BlackBoxPolynomial(_Evaluated):
    """Evaluation-only polynomial with a declared degree.

    `evaluator` maps a (count, rows, cols) stack of matrices to its count
    values; `evaluate` is a batch of one.  The declared homogeneity degree
    is spot-checked on random samples at construction, in one batched call;
    weights and heights only ever evaluate these, they are never expanded.
    """

    shape: MatrixShape
    degree: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "blackbox"
    check_samples: int = 20

    def __post_init__(self):
        self.shape = MatrixShape(*self.shape)
        if self.check_samples:
            rng = np.random.default_rng(20151216)
            a = gaussian_batch(self.shape, self.check_samples, rng)
            t = np.exp(2j * np.pi * rng.random(self.check_samples))  # |t ** degree| = 1
            with np.errstate(over="ignore", invalid="ignore"):  # raised by name below
                vals = self.evaluate_batch(np.concatenate([t[:, None, None] * a, a]))
            if not np.all(np.isfinite(vals)):
                raise OverflowError(f"{self.name}: spot-check values are not finite")
            lhs, rhs = vals[:len(t)], t ** self.degree * vals[len(t):]
            scale = np.maximum(np.maximum(abs(lhs), abs(rhs)), 1e-300)
            if np.any(abs(lhs - rhs) / scale > 1e-8):
                raise ValueError(f"{self.name}: declared degree {self.degree} fails "
                                 "homogeneity spot-check")

    @property
    def is_zero(self) -> bool:
        return False

    def _batch_values(self, batch: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(batch), dtype=complex)
        if vals.shape != batch.shape[:1]:
            raise ValueError(f"{self.name}: evaluator shape {vals.shape} != {batch.shape[:1]}")
        return vals


@dataclass(frozen=True)
class FormalPower:
    """Formal tensor power base**(x) kept unexpanded.

    Weights, polytopes and log-norms all scale linearly in the exponent, so
    the power is never materialized.
    """

    base: Union[SparsePolynomial, BlackBoxPolynomial]
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("formal power exponent must be >= 1")

    @property
    def shape(self) -> MatrixShape:
        return self.base.shape

    @property
    def degree(self) -> int:
        return self.base.degree * self.exponent

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero


AnyPolynomial = Union[SparsePolynomial, BlackBoxPolynomial, FormalPower]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def monomial(shape: MatrixShape, exps, coeff=1) -> SparsePolynomial:
    exps = tuple(tuple(int(e) for e in row) for row in exps)
    return SparsePolynomial(MatrixShape(*shape), {exps: coeff})


def constant(shape: MatrixShape, value=1) -> SparsePolynomial:
    shape = MatrixShape(*shape)
    zero = tuple(tuple(0 for _ in range(shape.cols)) for _ in range(shape.rows))
    return SparsePolynomial(shape, {zero: value} if value != 0 else {}, 0)


def determinant_poly(n: int) -> SparsePolynomial:
    """Determinant of the n x n matrix space as an explicit n!-term polynomial."""
    if n < 1:
        raise ValueError("determinant size must be >= 1")
    terms = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        exps = tuple(tuple(int(j == perm[i]) for j in range(n)) for i in range(n))
        terms[exps] = (-1) ** inversions
    return SparsePolynomial(MatrixShape(n, n), terms, n)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def support(p: AnyPolynomial) -> set:
    """The torus characters of p: the column-degree tuples of its terms.

    A formal power's support is never formed (weights and polytopes scale
    linearly in the exponent), and a black box's is unknown."""
    if isinstance(p, FormalPower):
        raise ValueError("the support of a formal power is never formed; "
                         "weights and polytopes scale linearly in the exponent")
    if isinstance(p, BlackBoxPolynomial):
        raise ValueError(
            f"{p.name}: support of a black-box polynomial is unavailable; "
            "construct it symbolically or supply the support explicitly")
    if p.is_zero:
        raise ValueError("zero polynomial has no support")
    return set(map(tuple, _column_degree_array(p).tolist()))


def act(sigma: Union[GroupElement, np.ndarray, Sequence], p: AnyPolynomial):
    """Column substitution action (sigma . P)(A) = P(A . sigma).

    Exact when both the group element and the coefficients are exact;
    composes as act(s1, act(s2, P)) = act(s1 @ s2, P).
    """
    sigma = _group_element(sigma)
    if isinstance(p, FormalPower):
        return FormalPower(act(sigma, p.base), p.exponent)
    if sigma.size != p.shape.cols:
        raise ValueError("group element size must match the column count")
    if isinstance(p, BlackBoxPolynomial):
        mat, base = _complex(sigma), p.evaluator
        return BlackBoxPolynomial(shape=p.shape, degree=p.degree,
                                  evaluator=lambda b: base(b @ mat),
                                  name=f"{p.name}.acted", check_samples=0)
    exact = sigma.is_exact and p.has_exact_coefficients()
    terms = {}  # the nonzero entries of `_tensors` as terms
    for pattern, flat in _tensors(sigma.matrix if exact else _complex(sigma), p,
                                  object if exact else complex):
        nonzero = flat.nonzero()[0]
        bases = [_sym_basis(p.shape.cols, d)[0] for d in pattern]
        index = np.unravel_index(nonzero, [len(basis) for basis in bases])
        rows = ([basis[i] for i in axis.tolist()] for basis, axis in zip(bases, index))
        terms.update(zip(zip(*rows), flat[nonzero].tolist()))
    return SparsePolynomial._trusted(p.shape, terms, p.degree)


@lru_cache(maxsize=None)
def _sym_basis(n: int, d: int) -> tuple:
    """(basis, down): the degree-d monomials in n variables as exponent
    tuples, and down[k, i], the position of basis[i] - e_k one degree lower
    (or the size of that basis, a zero row, when basis[i] lacks x_k)."""
    basis = [tuple(combo.count(k) for k in range(n))
             for combo in itertools.combinations_with_replacement(range(n), d)]
    if not d:
        return basis, None
    lower = {a: i for i, a in enumerate(_sym_basis(n, d - 1)[0])}
    return basis, np.array([[lower.get(b[:k] + (b[k] - 1,) + b[k + 1:], len(lower))
                             for b in basis] for k in range(n)], dtype=np.intp)


def _action_plan(p: SparsePolynomial) -> tuple:
    """(links, groups), the part of `_tensors` that depends on P alone.

    The row exponents of each degree are numbered, inputs first, and closed
    under a -> a - e_l with l the first nonzero slot, the parent of a.
    links[d - 1] holds the flat positions that degree d gathers: at
    [k, i, j], row down[k, i] of its parent's column in the degree d - 1
    column array, and sigma[k, l] in sigma.  A group is a row-degree
    pattern, its tensor shape over the input numbers, and the flat cells
    and coefficients of its terms.
    """
    levels, by_pattern = {}, {}
    for exps, coeff in p.terms.items():
        pattern = tuple(map(sum, exps))
        by_pattern.setdefault(pattern, []).append((exps, coeff))
        for row, d in zip(exps, pattern):
            levels.setdefault(d, {}).setdefault(row, len(levels[d]))
    used = {d: len(level) for d, level in levels.items()}
    n = p.shape.cols
    links = []
    for d in range(max(levels, default=0), 0, -1):
        below = levels.setdefault(d - 1, {})
        slots = [next(k for k, e in enumerate(a) if e) for a in levels[d]]
        parents = [below.setdefault(a[:l] + (a[l] - 1,) + a[l + 1:], len(below))
                   for a, l in zip(levels[d], slots)]
        links.insert(0, (_sym_basis(n, d)[1][:, :, None] * len(below) + parents,
                         np.arange(0, n * n, n)[:, None, None] + slots))
    groups = []
    for pattern, items in by_pattern.items():
        shape = tuple(used[d] for d in pattern)
        cells = [np.ravel_multi_index([levels[d][row] for row, d in zip(exps, pattern)], shape)
                 for exps, _ in items]
        groups.append((pattern, shape, cells, [c for _, c in items]))
    return links, groups


def _tensors(sig: np.ndarray, p: SparsePolynomial, dtype) -> list:
    """The numeric stage of sigma . P: (pattern, flat tensor of sigma.P on
    the product of its rows' `_sym_basis` monomials) for each row-degree
    pattern of P, on `dtype` (object for exact int / Fraction, or complex).

    Column a of S_d(sigma), the image of x^a, is its parent's column times
    the linear form sum_k sigma[k, l] x_k, so the columns P uses are built
    degree by degree; each pattern's tensor then takes one mode product per
    row.  Column arrays carry a zero row last, for `down` to point at.
    """
    if p._plan is None:
        p._plan = _action_plan(p)
    links, groups = p._plan
    columns = [np.array([[1], [0]], dtype=dtype)]
    for rows, entries in links:
        cols = np.zeros((rows.shape[1] + 1, rows.shape[2]), dtype=dtype)
        cols[:-1] = (columns[-1].take(rows) * sig.take(entries)).sum(axis=0)
        columns.append(cols)
    tensors = []
    for pattern, shape, cells, coeffs in groups:
        tensor = np.zeros(math.prod(shape), dtype=dtype)
        tensor[cells] = coeffs
        for d, m in zip(reversed(pattern), reversed(shape)):
            tensor = columns[d][:-1, :m] @ tensor.reshape(-1, m).T
        tensors.append((pattern, tensor.ravel()))
    return tensors


def _moment_plan(p: SparsePolynomial, n: int) -> tuple:
    """(P, weights, targets, factors) on the dense basis of `_tensors(., P, .)`,
    exponent matrices a with rows from `_sym_basis`: the Gaussian weight a!,
    at [t, row, k, l] the position of a + e_{row,k} - e_{row,l} (a itself if
    a_{row,l} = 0), and at [t, row, l] the factor a_{row,l}."""
    if p.shape.cols != n:
        raise ValueError(f"the polynomial has {p.shape.cols} columns, not the column count {n}")
    basis = [a for pattern, _ in _tensors(np.eye(n), p, complex)
             for a in itertools.product(*(_sym_basis(n, d)[0] for d in pattern))]
    where = {a: t for t, a in enumerate(basis)}
    targets = [[[[where.get(a[:r] + (tuple(x + (m == k) - (m == l) for m, x in enumerate(row)),)
                            + a[r + 1:], t) for l in range(n)] for k in range(n)]
                 for r, row in enumerate(a)] for t, a in enumerate(basis)]
    weights = np.array([_monomial_weight(a) for a in basis], dtype=float)
    return p, weights, np.array(targets), np.array(basis)


def _coefficients(plan: tuple, sigma: np.ndarray) -> np.ndarray:
    """sigma.P on its plan's basis; P is nonzero, so sigma.P = 0 is underflow."""
    q = np.concatenate([flat for _, flat in _tensors(sigma, plan[0], complex)])
    if not q.any():
        raise FloatingPointError("sigma.P underflows to zero")
    return q


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def gaussian_chunks(shape: MatrixShape, count: int, rng_seed=0,
                    chunk: int = EVALUATION_CHUNK):
    """`count` draws of the standard complex Gaussian on the matrix space,
    yielded `chunk` samples at a time (none for count = 0): i.i.d. entries
    with E|z_ij|^2 = 1, so the density is exp(-|Z|^2) / pi^dim.

    All real parts are drawn first, then the imaginary parts one chunk at a
    time into the real parts' spent slice; each part is times 1/sqrt(2),
    bit for bit numpy's (re + 1j * im) / sqrt(2).  This order is the seeded
    stream, so any chunk size gives the same draws, and a caller holds
    8 * count * dim bytes plus its current chunk, not the whole batch."""
    rng = _as_rng(rng_seed)
    shape = MatrixShape(*shape)
    buf = rng.standard_normal((count, *shape))
    scale = 1.0 / np.sqrt(2.0)
    for lo in range(0, count, chunk):
        part = buf[lo:lo + chunk]
        out = np.empty(part.shape, dtype=complex)
        np.multiply(part, scale, out=out.real)
        rng.standard_normal(out=part)
        np.multiply(part, scale, out=out.imag)
        yield out


def gaussian_batch(shape: MatrixShape, count: int, rng_seed=0) -> np.ndarray:
    """`count` draws of `gaussian_chunks` as one (count, rows, cols) batch."""
    shape = MatrixShape(*shape)
    return next(gaussian_chunks(shape, count, rng_seed, chunk=max(count, 1)),
                np.empty((0, *shape), dtype=complex))


def random_unimodular(n: int, rng_seed=0) -> GroupElement:
    """Random integer matrix of determinant exactly 1: 12 shears row_i +=
    k * row_j, 1 <= |k| <= 2.  Exact entries keep conjugate-torus supports
    exact downstream."""
    rng = _as_rng(rng_seed)
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:  # SL(1) is trivial
        return GroupElement(mat)
    for _ in range(12):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        j = j if j < i else j + 1
        k = int(rng.integers(1, 3)) * (1 if rng.integers(0, 2) else -1)
        mat[i] = [a + k * b for a, b in zip(mat[i], mat[j])]
    return GroupElement(mat)


def _monomial_weight(exps) -> int:
    """Gaussian squared norm prod alpha_ij! of the monomial with exponents alpha."""
    return math.prod(math.factorial(e) for row in exps for e in row)


def exact_gaussian_norm_sq(p: SparsePolynomial):
    """E|P(Z)|^2 under the standard complex Gaussian, exactly.

    Monomials are orthogonal for this measure and a monomial with exponent
    matrix alpha has squared norm prod alpha_ij!.  Exact (Fraction) when the
    coefficients are exact, float otherwise.
    """
    if not isinstance(p, SparsePolynomial):
        raise TypeError("exact norms exist only for sparse polynomials")
    if p.is_zero:
        raise ValueError("zero polynomial has no norm")
    exact = p.has_exact_coefficients()
    total = Fraction(0) if exact else 0.0
    for exps, coeff in p.terms.items():
        square = Fraction(coeff) ** 2 if exact else abs(complex(coeff)) ** 2
        total += square * _monomial_weight(exps)
    return total


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def poly_to_json(p: SparsePolynomial) -> str:
    """JSON text of a sparse polynomial; a non-integer rational coefficient
    is written exactly as "q": "num/den", any other as "re" and "im"."""
    terms = []
    for exps, coeff in sorted(p.terms.items()):
        term = {"exps": [list(row) for row in exps]}
        if isinstance(coeff, Fraction) and coeff.denominator != 1:
            term["q"] = str(coeff)
        else:
            c = complex(coeff)
            term["re"], term["im"] = c.real, c.imag
        terms.append(term)
    return json.dumps({"shape": [p.shape.rows, p.shape.cols],
                       "degree": p.degree, "terms": terms})


def poly_from_json(text: str) -> SparsePolynomial:
    payload = json.loads(text)
    shape = MatrixShape(*payload["shape"])
    terms = {}
    for item in payload["terms"]:
        exps = tuple(tuple(int(e) for e in row) for row in item["exps"])
        if "q" in item:
            coeff = Fraction(item["q"])
        else:
            re, im = item.get("re", 0.0), item.get("im", 0.0)
            coeff = int(re) if im == 0 and float(re).is_integer() else complex(re, im)
        terms[exps] = coeff
    return SparsePolynomial(shape, terms, payload.get("degree"))
