"""The Fraction group law and the checks built on it, kept as references.

cubeforge has one group law, cubic_add, in integer projective coordinates on
x^3 + y^3 = m0 z^3.  This module keeps what the package used before:

- chord and tangent on the Weierstrass twin Y^2 = X^3 + b in Fraction
  coordinates (add, smul, neg), against which cubic_add and the lattice are
  compared;
- good_multiple and gram, the good multiples nP and the Gram matrix of
  cubeforge.heights formed with add, as the package formed them before; its
  own, formed with cubic_add, must match them bit for bit;
- cubic_smul, double-and-add over cubic_add, which the tests use to make
  multiples kP of a generator;
- the offset window of the doubling engine, hhat(P) - h_x(P)/2 between
  -h(b)/6 - 1.48 and h(b)/6 + 1.576 (see doubling_reference), with the
  naive height h_x it reads;
- torsion_probe, a double confirmation of torsion from the height and from
  the multiples kP with k <= 12.

None of these is on a production path, so none lives in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cubeforge.curves import (
    CUBIC_IDENTITY,
    INFINITY,
    CubicPoint,
    CurveConfig,
    WeierstrassPoint,
    cubic_add,
    to_weierstrass,
)
from cubeforge.heights import GOOD_MULTIPLE_CAP, OFFSET_ABOVE, canonical_height
from cubeforge.numeric import ApproxReal, log_abs

OFFSET_BELOW = ApproxReal.from_decimal("1.48")

_SIXTH = ApproxReal.from_fraction(Fraction(1, 6))

# torsion on these curves has order dividing a bound this small
_TORSION_ORDER_LIMIT = 12


def neg(p: WeierstrassPoint) -> WeierstrassPoint:
    if p.is_infinity:
        return p
    return WeierstrassPoint(p.x, -p.y)


def add(cfg: CurveConfig, p: WeierstrassPoint, q: WeierstrassPoint) -> WeierstrassPoint:
    """Chord-and-tangent addition, exact in Fraction arithmetic."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        lam = (3 * p.x * p.x) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return WeierstrassPoint(x3, y3)


def smul(cfg: CurveConfig, k: int, p: WeierstrassPoint) -> WeierstrassPoint:
    """Scalar multiple k*P by binary double-and-add."""
    if k < 0:
        return smul(cfg, -k, neg(p))
    acc = INFINITY
    base = p
    while k:
        if k & 1:
            acc = add(cfg, acc, base)
        k >>= 1
        if k:
            base = add(cfg, base, base)
    return acc


def cubic_smul(cfg: CurveConfig, k: int, p: CubicPoint) -> CubicPoint:
    """Scalar multiple k*P by binary double-and-add over cubic_add."""
    if k < 0:
        k, p = -k, p.neg()
    acc = CUBIC_IDENTITY
    while k:
        if k & 1:
            acc = cubic_add(cfg, acc, p)
        k >>= 1
        if k:
            p = cubic_add(cfg, p, p)
    return acc


def good_multiple(
    cfg: CurveConfig, p: WeierstrassPoint
) -> tuple[int, WeierstrassPoint]:
    """heights.good_multiple with the multiples nP formed by add."""
    bad = 6 * cfg.m0
    q = p
    for n in range(1, GOOD_MULTIPLE_CAP + 1):
        if math.gcd(q.x.numerator, q.y.numerator, bad) == 1:
            return n, q
        q = add(cfg, q, p)
    raise ValueError(
        f"({p.x}, {p.y}) has no multiple nP of nonsingular reduction at "
        f"every prime with n <= {GOOD_MULTIPLE_CAP}"
    )


def gram(
    cfg: CurveConfig, points: list[WeierstrassPoint], tol: float = 1e-3
) -> list[list[ApproxReal]]:
    """The Gram matrix of heights.independence with each sum formed by add.

    Entry (i, j) is hhat(P_i + P_j) - hhat(P_i) - hhat(P_j) and the diagonal
    2 hhat(P_i), by the package's canonical_height.
    """
    heights = [canonical_height(cfg, p, tol) for p in points]
    entries = [[h.ldexp(1) for h in heights] for _ in points]
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            hs = canonical_height(cfg, add(cfg, p, points[j]), tol)
            entries[i][j] = entries[j][i] = hs - heights[i] - heights[j]
    return entries


def naive_height(p: WeierstrassPoint) -> ApproxReal:
    """h_x(P) = log max(|numerator|, denominator) of X in lowest terms."""
    if p.is_infinity:
        return ApproxReal(0.0, 0.0)
    m = max(abs(p.x.numerator), p.x.denominator)
    return log_abs(m)


def offset_window(cfg: CurveConfig) -> tuple[ApproxReal, ApproxReal]:
    """Enclosures of the two window edges for hhat - h_x/2."""
    w = cfg.hb * _SIXTH
    return (-(w + OFFSET_BELOW), w + OFFSET_ABOVE)


def offset_window_holds(
    cfg: CurveConfig, p: WeierstrassPoint, tol: float = 1e-3
) -> bool:
    """Check hhat(P) - h_x(P)/2 against the window inflated by tol."""
    if p.is_infinity:
        raise ValueError("the offset window applies to affine points")
    diff = canonical_height(cfg, p, tol) - naive_height(p).ldexp(-1)
    lo, hi = offset_window(cfg)
    return lo.lower() - tol <= diff.value <= hi.upper() + tol


def torsion_probe(cfg: CurveConfig, p: CubicPoint, tol: float = 1e-3) -> bool:
    """Double confirmation that a point is torsion.

    True only when the canonical height is at most tol and some multiple
    k * P with k <= 12 is the identity.
    """
    if p.is_identity:
        return True
    height_small = canonical_height(cfg, to_weierstrass(cfg, p), tol).value <= tol
    multiple = p
    for _ in range(_TORSION_ORDER_LIMIT):
        if multiple.is_identity:
            return height_small
        multiple = cubic_add(cfg, multiple, p)
    return False
