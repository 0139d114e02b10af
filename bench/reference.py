"""Reference computations made apart from `stabpair`.

Nothing here imports `stabpair`: the benchmark checks the program's outputs
against these values, so they must not share its code paths.

- Heights and zeta values of monomials and determinants from the gamma and
  digamma closed forms (`math.lgamma`, `scipy.special.digamma`).
- Orbit minima of the pairs (1, w) from Kempf & Ness: the norm on the orbit
  closure of w is smallest where the moment map vanishes.
- Supports, characters and exact values of rational-normal-curve
  resultants and hyperdiscriminants through `sympy`.
- Exact planar convex hulls and containment on integer points, which decide
  the outcome of `stable_search` on pairs (v, v).

Polynomials here are plain dicts {exponent tuple: coefficient} over one row
of variables z_0, ..., z_{n-1}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from scipy.special import digamma

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# gamma and digamma closed forms
# ---------------------------------------------------------------------------

def monomial_height(exps, variables: int) -> float:
    """h(z^alpha) on a space of `variables` complex Gaussian entries.

    |z|^2 is Exp(1) for a standard complex Gaussian, so E|z^alpha|^2 =
    prod alpha_i! and E log|z^alpha|^2 = -EULER_GAMMA * d.  With
    Z(1) = Gamma(D)/Gamma(D+d) E|P|^2 and Z'(0) = E log|P|^2 - d psi(D),
    h = -log Z(1) + Z'(0).
    """
    d = sum(exps)
    D = variables
    log_z1 = math.lgamma(D) - math.lgamma(D + d) + sum(math.lgamma(e + 1) for e in exps)
    zp0 = -EULER_GAMMA * d - d * float(digamma(D))
    return -log_z1 + zp0


def det_log_moment(n: int, s: float) -> float:
    """log E|det_n(Z)|^(2s) = sum_k log Gamma(s+k) - log Gamma(k) (Z square)."""
    return sum(math.lgamma(s + k) - math.lgamma(k) for k in range(1, n + 1))


def det_zeta(n: int, s: float) -> float:
    """Z(det_n; s) = Gamma(D)/Gamma(D+ns) E|det_n|^(2s), D = n^2."""
    D = n * n
    return math.exp(math.lgamma(D) - math.lgamma(D + n * s) + det_log_moment(n, s))


def det_height(n: int) -> float:
    """h(det_n) = -log Z(det_n; 1) + sum_k psi(k) - n psi(n^2)."""
    D = n * n
    zp0 = sum(float(digamma(k)) for k in range(1, n + 1)) - n * float(digamma(D))
    return -math.log(det_zeta(n, 1.0)) + zp0


# ---------------------------------------------------------------------------
# Kempf-Ness minima
# ---------------------------------------------------------------------------

def gaussian_norm_sq(poly: dict) -> float:
    """E|P(z)|^2 = sum |c_alpha|^2 alpha! for the standard complex Gaussian."""
    return float(sum(abs(c) ** 2 * math.prod(math.factorial(e) for e in exps)
                     for exps, c in poly.items()))


def moment_map(poly: dict, n: int) -> list:
    """The SL(n) moment map of [P]: <z_j d_i P, P>/|P|^2 - (deg/n) delta_ij.

    Variable i pulls back to sum_k z_k sigma_ki, so the derivative of
    log|sigma.P|^2 at sigma = 1 in direction E_ji is 2 Re <z_j d_i P, P>.
    """
    norm = gaussian_norm_sq(poly)
    degree = sum(next(iter(poly)))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            moved = {}
            for exps, c in poly.items():
                if exps[i] == 0:
                    continue
                new = list(exps)
                new[i] -= 1
                new[j] += 1
                new = tuple(new)
                moved[new] = moved.get(new, 0) + c * exps[i]
            inner = sum(c * complex(poly.get(exps, 0)).conjugate()
                        * math.prod(math.factorial(e) for e in exps)
                        for exps, c in moved.items())
            row.append(inner / norm - (degree / n if i == j else 0.0))
        out.append(row)
    return out


def nu_infimum_closed(w: dict, n: int) -> float:
    """inf over SL(n) of nu for the pair (1, w); v = 1 is fixed by the group.

    nu(sigma) = log |sigma.w|^2/|w|^2, so the infimum is log of the smallest
    squared norm on the orbit closure over |w|^2.  Two cases are closed:

    - the moment map of w vanishes: w is a Kempf-Ness point, its norm is
      already minimal on the orbit, and the infimum is 0;
    - w = a z0^2 + b z0 z1 + c z1^2 with b^2 != 4ac: the discriminant is
      invariant, and among forms with |b^2 - 4ac| fixed the norm
      2|a|^2 + |b|^2 + 2|c|^2 is smallest at b z0 z1, so the infimum is
      log(|b^2 - 4ac| / |w|^2).
    """
    mu = moment_map(w, n)
    if all(abs(x) < 1e-12 for row in mu for x in row):
        return 0.0
    if n == 2 and all(sum(e) == 2 for e in w):
        a, b, c = (complex(w.get(e, 0)) for e in ((2, 0), (1, 1), (0, 2)))
        disc = abs(b * b - 4 * a * c)
        if disc == 0:
            raise ValueError("a square has no closed orbit minimum here")
        return math.log(disc / gaussian_norm_sq(w))
    raise ValueError("no closed Kempf-Ness minimum for this form")


# ---------------------------------------------------------------------------
# rational-normal-curve forms through sympy
# ---------------------------------------------------------------------------

def _sympy():
    import sympy  # deferred: importing sympy costs about 0.4 s

    return sympy


def _binary_form(coeffs, x):
    d = len(coeffs) - 1
    return sum(c * x ** (d - j) for j, c in enumerate(coeffs))


@lru_cache(maxsize=None)
def rnc_form(kind: str, d: int):
    """(sympy expression, variable rows) of res:d or disc:d.

    res:d is the Sylvester resultant of f = sum a_j s^(d-j) t^j and
    g = sum b_j s^(d-j) t^j on the 2 x (d+1) matrix space; disc:d is the
    discriminant of f on the 1 x (d+1) space.  Both are fixed only up to a
    nonzero constant, which leaves supports unchanged.
    """
    sp = _sympy()
    x = sp.Symbol("x")
    a = sp.symbols(f"a0:{d + 1}")
    if kind == "disc":
        return sp.expand(sp.discriminant(_binary_form(a, x), x)), (a,)
    if kind == "res":
        b = sp.symbols(f"b0:{d + 1}")
        return sp.expand(sp.resultant(_binary_form(a, x), _binary_form(b, x), x)), (a, b)
    raise ValueError(f"unknown form kind {kind!r}")


def acted_characters(kind: str, d: int, g) -> set:
    """Torus characters (column degree vectors) of (g . P)(A) = P(A g).

    Variable a_{i,l} pulls back to sum_k a_{i,k} g[k][l]; the expansion is
    exact in integers, so the support is exact.
    """
    return set(_acted_characters(kind, d, tuple(tuple(int(x) for x in row) for row in g)))


@lru_cache(maxsize=None)
def _acted_characters(kind: str, d: int, g: tuple) -> frozenset:
    sp = _sympy()
    expr, rows = rnc_form(kind, d)
    cols = d + 1
    identity = all(g[k][l] == (1 if k == l else 0) for k in range(cols) for l in range(cols))
    if not identity:
        subs = {row[l]: sum(row[k] * int(g[k][l]) for k in range(cols))
                for row in rows for l in range(cols)}
        expr = sp.expand(expr.xreplace(subs))
    gens = [v for row in rows for v in row]
    chars = set()
    for monom in sp.Poly(expr, *gens).monoms():
        chars.add(tuple(sum(monom[r * cols + c] for r in range(len(rows)))
                        for c in range(cols)))
    return frozenset(chars)


def diagonal_log_ratio(kind: str, d: int, t) -> float:
    """log |sigma.P|^2 / |P|^2 for sigma = diag(t), from the sympy form.

    The diagonal scales each monomial by prod_l t_l^(a_l), a its column
    degrees, and Gaussian norms are sums of |c|^2 alpha! over terms; the
    unknown overall constant of the form cancels in the ratio.
    """
    sp = _sympy()
    expr, rows = rnc_form(kind, d)
    cols = d + 1
    num = den = 0.0
    for monom, c in sp.Poly(expr, *[v for row in rows for v in row]).terms():
        mass = float(abs(c)) ** 2 * math.prod(math.factorial(e) for e in monom)
        scale = math.prod(t[col] ** (2 * sum(monom[r * cols + col] for r in range(len(rows))))
                          for col in range(cols))
        num += mass * scale
        den += mass
    return math.log(num / den)


def weight(chars, lam) -> int:
    """min over the characters of <a, lam>."""
    return min(sum(a * l for a, l in zip(ch, lam)) for ch in chars)


def _sylvester_rows(kind: str, d: int, matrix) -> tuple:
    """Coefficient vectors of the two forms whose resultant the black box takes."""
    if kind == "res":
        return list(matrix[0]), list(matrix[1])
    if kind == "disc":
        a = matrix[0]
        return [(d - j) * a[j] for j in range(d)], [(j + 1) * a[j + 1] for j in range(d)]
    raise ValueError(f"unknown form kind {kind!r}")


def exact_value(kind: str, d: int, matrix) -> tuple:
    """(exact integer value, Hadamard bound) of the unnormalized black-box form.

    res:d is the Sylvester resultant of the two rows; disc:d is the
    resultant of the two partials of the row form, as the black box
    computes it (without the constant that normalizes the symbolic form).
    The Hadamard bound, the product of the Sylvester rows' lengths, bounds
    the determinant and scales the rounding error of a float evaluation.
    """
    sp = _sympy()
    x = sp.Symbol("x")
    f, g = _sylvester_rows(kind, d, matrix)
    value = int(sp.resultant(_binary_form(f, x), _binary_form(g, x), x))
    bound = (math.hypot(*f) ** (len(g) - 1)) * (math.hypot(*g) ** (len(f) - 1))
    return value, bound


# ---------------------------------------------------------------------------
# planar hulls on integer points
# ---------------------------------------------------------------------------

def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points) -> list:
    """Counter-clockwise hull vertices of integer points (Andrew's chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_hull_2d(point, hull) -> bool:
    """Closed membership of an integer point in a counter-clockwise hull."""
    if len(hull) == 1:
        return tuple(point) == tuple(hull[0])
    if len(hull) == 2:
        a, b = hull
        if _cross(a, b, point) != 0:
            return False
        return (min(a[0], b[0]) <= point[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= point[1] <= max(a[1], b[1]))
    return all(_cross(hull[i], hull[(i + 1) % len(hull)], point) >= 0
               for i in range(len(hull)))


def simplex_in_newton_polygon(chars, q: int) -> bool:
    """Whether q Q lies in N(v) for characters of a ternary form of degree D.

    Q is the standard simplex centred at the origin of the sum-zero plane
    and N(v) the hull of the characters shifted by -(D/3)(1, 1, 1).  Both
    live in the plane sum = D after shifting back, where q Q has vertices
    q e_i + ((D - q)/3)(1, 1, 1).  Scaling by 3 keeps everything integral;
    dropping the last coordinate is an affine bijection of the plane.
    """
    degree = sum(next(iter(chars)))
    hull = hull_2d([(3 * a[0], 3 * a[1]) for a in chars])
    for i in range(3):
        vertex = [degree - q] * 3
        vertex[i] += 3 * q
        if not in_hull_2d((vertex[0], vertex[1]), hull):
            return False
    return True


def sum_zero(chars) -> list:
    """Characters shifted to the sum-zero plane, as exact fractions."""
    out = []
    for a in chars:
        shift = Fraction(sum(a), len(a))
        out.append(tuple(Fraction(x) - shift for x in a))
    return out
