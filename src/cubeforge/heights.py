"""Canonical heights of points on x^3 + y^3 = m0 z^3, with rigorous radii.

A point P of the cubic is read through its image on Y^2 = X^3 + b,
b = -432 m0^2 < 0 (see curves.weierstrass_image), and the canonical height
(normalised as hhat(P) = lim 4**-k h_x(2**k P) / 2) is the sum of local
heights, one per place (Silverman, "Computing heights on elliptic curves",
Math. Comp. 51, 1988), taken here without their (1/12) log|Delta|_v terms,
which cancel over all places.  Write Q = (a/e^2, c/e^3) in lowest terms.

Finite places.  Modulo a prime p the only singular point of Y^2 = X^3 + b
is (0, 0), and only the primes of 6 m0 are bad.  So when gcd(a, c, 6 m0) = 1
the point Q reduces to a nonsingular point everywhere, each local height is
max(0, log|X|_p)/2, and together they give log(e^2)/2.  The points of
nonsingular reduction form a subgroup of finite index, so some multiple nP
is of this kind, and hhat(P) = hhat(nP) / n^2.  The least such n is found
by adding P to itself with cubic_add and reading the integers a and c of
each multiple through weierstrass_image.  Points needing more than
GOOD_MULTIPLE_CAP multiples are refused.  Torsion here has order 2 or 3
only and gets exactly 0.

The archimedean place.  Tate's series, with t = 1/X and t_k = 1/X(2^k Q), is

    lambda_inf(Q) = log(X)/2 + (1/8) sum_{k>=0} 4**-k log z_k,
    z_k = 1 - 8 b t_k^3,    t_{k+1} = 4 t_k (1 + b t_k^3) / z_k.

On b < 0 the real locus has X >= |b|^(1/3), so 0 < t_k <= |b|^(-1/3) and
z_k lies in [1, 9]: the series converges geometrically, and after K terms
its tail lies in [0, (log 9)/6 * 4**-K].  Adding the two parts,

    hhat(Q) = log(a)/2 + (1/8) sum_{k<K} 4**-k log z_k + tail.

The t-recursion runs in integer fixed point with F fractional bits, F about
log2(1/tol) + log2(K |b|^(1/3)), and each iterate is clamped to the real
locus; the bound on the rounding error is proved at _fixed_point_error.
K and F grow linearly in log(1/tol), and no coordinate is ever doubled.
A tolerance below what a float enclosure of the result can carry raises
PrecisionBudgetError.

independence certifies points independent from the Gram matrix of the
height pairing <P, Q> = hhat(P + Q) - hhat(P) - hhat(Q): every pivot of
its elimination is certified positive, so the matrix is positive definite.
"""

from __future__ import annotations

import math

from .curves import (
    CubicPoint,
    CurveConfig,
    cubic_add,
    require_on_cubic,
    weierstrass_image,
)
from .numeric import (
    ApproxReal,
    _log_parts,
    _ratio_parts,
    _widen,
    icbrt,
    log_abs,
)

# hhat(P) - h_x(P)/2 <= h(b)/6 + OFFSET_ABOVE, with h_x the naive height of X
OFFSET_ABOVE = ApproxReal.from_decimal("1.576")

# largest n tried for a multiple nP of nonsingular reduction everywhere;
# cube-free m0 with small points need n <= 6, m0 = 7^4 needs 42
GOOD_MULTIPLE_CAP = 60

# upper bound of (log 9)/6 = 0.36620..., the tail of Tate's series at K = 0
_TAIL = 0.3663


class PrecisionBudgetError(Exception):
    """Raised when a tolerance is below what a float enclosure can carry."""

    def __init__(self, message: str, achievable_tol: float):
        super().__init__(message)
        self.achievable_tol = achievable_tol


def good_multiple(cfg: CurveConfig, p: CubicPoint) -> tuple[int, CubicPoint]:
    """Least n >= 1 with nP of nonsingular reduction at every prime, and nP.

    P must be a point of infinite order.  nP qualifies when X = a/e^2 and
    Y = c/e^3 have gcd(a, c, 6 m0) = 1: no bad prime sends it to (0, 0).
    The multiples take n - 1 calls of cubic_add; a point needing
    n > GOOD_MULTIPLE_CAP is a ValueError.
    """
    bad = 6 * cfg.m0
    q = p
    for n in range(1, GOOD_MULTIPLE_CAP + 1):
        a, _, c, _ = weierstrass_image(cfg, q)
        if math.gcd(a, c, bad) == 1:
            return n, q
        q = cubic_add(cfg, q, p)
    raise ValueError(
        f"({p.x}, {p.y}, {p.z}) has no multiple nP of nonsingular reduction "
        f"at every prime with n <= {GOOD_MULTIPLE_CAP}"
    )


def _fixed_point_error(c: int, terms: int) -> int:
    """An integer E with the rounding error of the weighted sum <= E / 2**F.

    Write u = c t^3 with c = -b, so the real locus is 0 <= t <= c^(-1/3),
    where u <= 1, and f(t) = 4t(1 - u)/(1 + 8u) is the t-recursion.  Then

        f'(t) = 4(1 - 20u - 8u^2) / (1 + 8u)^2,

    and |1 - 20u - 8u^2| <= (1 + 8u)^2 = 1 + 16u + 64u^2 for u in [0, 1]:
    the upper side is clear, and the lower side is 0 <= 2 - 4u + 56u^2,
    whose discriminant is negative.  So |f'| <= 4 on the real locus, and
    clamping to that interval moves no iterate away from the true one.

    With ulp = 2**-F, one step rounds u down (error < ulp, and
    |d f / d u| = 36t/(1 + 8u)^2 <= 36 c^(-1/3) < 4.8 since c >= 432),
    floors the quotient (< ulp) and clamps to the largest representable t
    inside the locus (< ulp), so it adds rho < 8 ulp.  With e_0 < ulp from
    t_0 = d/a, the errors obey e_k <= 4^k (e_0 + rho/3) < 4^(k+1) ulp.
    log z_k moves by at most 8 ulp from the rounding of u and by
    L e_k from e_k, where L = sup 24 c t^2/(1 + 8u) <= 24 c^(1/3).  The
    weighted sum (1/8) sum_{k<K} 4^-k (8 ulp + L e_k) is therefore below
    (4/3 + 12 c^(1/3) K) ulp, and c^(1/3) <= 2^ceil(bits(c)/3).
    """
    return 12 * terms * (1 << -(-c.bit_length() // 3)) + 2


def _good_height(c: int, a: int, d: int, tol: float) -> ApproxReal:
    """hhat(Q) for Q with X = a/d of nonsingular reduction everywhere.

    The series tail and the fixed-point error take at most tol/2 of the
    radius; the rest is float rounding.  Each term's enclosure of
    4^-k log(z_k) and its addition to the sum are numeric's value/radius
    rules (_ratio_parts, _log_parts, _widen), the ones from_ratio, log
    and interval addition wrap, so the sum is bit for bit the per-term
    interval sum, and only the result is an ApproxReal.
    """
    terms = 0
    while math.ldexp(_TAIL, -2 * terms) > 0.5 * tol:
        terms += 1
    err = _fixed_point_error(c, terms)
    # E / 2**F <= tol/4, with a bit of slack for the float log2
    bits = max(8, math.ceil(math.log2(err) - math.log2(tol)) + 3)
    one = 1 << bits
    t_max = icbrt((1 << 3 * bits) // c)[0]
    t = min((d << bits) // a, t_max)
    value = radius = 0.0
    for k in range(terms):
        u = (c * t * t * t) >> (2 * bits)
        z = one + 8 * u
        v, r = _log_parts(*_ratio_parts(z, one))
        value += math.ldexp(v, -2 * k)
        radius = _widen(value, radius + math.ldexp(r, -2 * k))
        t = min((4 * t * (one - u)) // z, t_max)
    series = ApproxReal(value, radius)
    e_fp = ApproxReal.from_int(err).ldexp(-bits).upper()
    tail = math.ldexp(_TAIL, -2 * terms)
    return (
        log_abs(a).ldexp(-1)
        + series.ldexp(-3)
        + ApproxReal.from_endpoints(-e_fp, tail + e_fp)
    )


def canonical_height(
    cfg: CurveConfig,
    p: CubicPoint,
    tol: float = 1e-3,
) -> ApproxReal:
    """Canonical height of P with error radius at most tol.

    The identity and torsion get the exact answer 0 with radius 0.  With
    b = -432 m0^2 the torsion subgroup is trivial, Z/2 or Z/3 (Z/6 needs b
    a sixth power): 2P = O is Y = 0, that is x = y, and 3P = O is
    X^3 = -4b, that is xy = 0.  A triple off the curve is a ValueError, as
    is a point whose least good multiple exceeds GOOD_MULTIPLE_CAP.  A tol
    below the float enclosure of the result raises PrecisionBudgetError.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    require_on_cubic(cfg, p)
    if p.z == 0 or p.x == p.y or p.x == 0 or p.y == 0:
        return ApproxReal(0.0, 0.0)
    n, q = good_multiple(cfg, p)
    a, d, _, _ = weierstrass_image(cfg, q)
    scale = n * n
    h = _good_height(-cfg.b, a, d, min(tol * scale, 1.0))
    if scale > 1:
        h = h / ApproxReal.from_int(scale)
    if h.radius > tol:
        # float rounding is then over half the radius, and a larger tol
        # barely moves it, so 4x the radius leaves room for the rest
        achievable = 4.0 * h.radius
        raise PrecisionBudgetError(
            f"tolerance {tol:g} is below the float enclosure of this "
            f"height; achievable tolerance is about {achievable:.3g}",
            achievable,
        )
    return h


def positive_definite(gram: list[list[ApproxReal]]) -> bool:
    """True only if every symmetric matrix inside the intervals is positive
    definite.

    Gaussian elimination on a copy with symmetric pivoting: each step takes
    for its pivot the remaining diagonal entry with the largest lower end
    and swaps its row and its column to the front.  That is elimination
    without exchanges on P^T A P for one permutation P, whose k-th pivot is
    D_k / D_(k-1), a ratio of its leading principal minors, enclosed for
    every matrix inside.  Every pivot certified positive gives every
    D_k > 0, so P^T A P is positive definite by Sylvester's criterion, and
    with it A.  Pivoting on the largest lower end certifies some
    near-singular interval matrices that elimination in the given order
    leaves undecided.
    """
    a = [list(row) for row in gram]
    n = len(a)
    for col in range(n):
        best = max(range(col, n), key=lambda k: a[k][k].lower())
        if best != col:
            a[col], a[best] = a[best], a[col]
            for row in a:
                row[col], row[best] = row[best], row[col]
        pivot = a[col][col]
        if pivot.lower() <= 0.0:
            return False
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            for c in range(col + 1, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return True


def independence(
    cfg: CurveConfig,
    points: list[CubicPoint],
    tol: float = 1e-3,
) -> tuple[list[list[ApproxReal]], bool]:
    """Gram matrix entries of the points plus a certified independence verdict.

    Entry (i, j) is the height pairing hhat(P_i + P_j) - hhat(P_i) - hhat(P_j),
    and the diagonal is 2 hhat(P_i).  Each sum is formed with cubic_add.  The
    verdict is positive_definite: a positive-definite pairing on the span of
    the points is their independence.  False means "not certified at this
    tolerance", which covers both genuine dependence and intervals too wide
    to decide.
    """
    if not points:
        raise ValueError("independence requires at least one point")
    n = len(points)
    heights = [canonical_height(cfg, p, tol) for p in points]
    entries: list[list[ApproxReal]] = [[None] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = heights[i].ldexp(1)
        for j in range(i + 1, n):
            hs = canonical_height(cfg, cubic_add(cfg, points[i], points[j]), tol)
            e = hs - heights[i] - heights[j]
            entries[i][j] = e
            entries[j][i] = e
    return entries, positive_definite(entries)
