"""The Weierstrass model, the Fraction group law and the checks built on
them, kept as references.

cubeforge has one group law, cubic_add, in integer projective coordinates on
x^3 + y^3 = m0 z^3, and computes heights on that model.  This module keeps
what the package used before:

- the Weierstrass twin W: Y^2 = X^3 + b, b = -432 m0^2, with Fraction
  points (WeierstrassPoint, INFINITY), membership (on_weierstrass) and the
  birational maps to_weierstrass and from_weierstrass;
- chord and tangent on W (add, smul, neg), against which cubic_add and the
  lattice are compared;
- canonical_height on W, the height engine the package replaced: torsion
  read off X and Y (is_torsion), the good multiple nP formed with add
  (good_multiple) and the same Tate series (heights._good_height); gram is
  the Gram matrix of heights.independence built from it.  The package's
  heights, read on the cubic, must match both bit for bit;
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
from collections import namedtuple
from fractions import Fraction

from cubeforge import heights
from cubeforge.curves import (
    CUBIC_IDENTITY,
    CubicPoint,
    CurveConfig,
    cubic_add,
)
from cubeforge.heights import (
    GOOD_MULTIPLE_CAP,
    OFFSET_ABOVE,
    PrecisionBudgetError,
    _good_height,
)
from cubeforge.numeric import ApproxReal, log_abs

OFFSET_BELOW = ApproxReal.from_decimal("1.48")

_SIXTH = ApproxReal.from_ratio(1, 6)

# torsion on these curves has order dividing a bound this small
_TORSION_ORDER_LIMIT = 12


class WeierstrassPoint(
    namedtuple("WeierstrassPoint", "x y", defaults=(None, None))
):
    """Affine rational point on Y^2 = X^3 + b, or the point at infinity.

    x and y are Fractions, both None at infinity.
    """

    __slots__ = ()

    @classmethod
    def affine(cls, x, y) -> "WeierstrassPoint":
        return cls(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = WeierstrassPoint()


def on_weierstrass(cfg: CurveConfig, p: WeierstrassPoint) -> bool:
    if p.is_infinity:
        return True
    return p.y * p.y == p.x**3 + cfg.b


def to_weierstrass(cfg: CurveConfig, p: CubicPoint) -> WeierstrassPoint:
    """Forward birational map.  Requires x + y != 0 off the identity."""
    if p.z == 0:
        return INFINITY
    s = p.x + p.y
    if s == 0:
        raise ValueError(
            f"({p.x}, {p.y}, {p.z}) has x + y = 0 and no affine image"
        )
    return WeierstrassPoint(
        Fraction(12 * cfg.m0 * p.z, s), Fraction(36 * cfg.m0 * (p.y - p.x), s)
    )


def from_weierstrass(cfg: CurveConfig, p: WeierstrassPoint) -> CubicPoint:
    """Inverse birational map, returning the primitive integer triple."""
    if p.is_infinity:
        return CUBIC_IDENTITY
    u = 36 * cfg.m0 - p.y
    v = 36 * cfg.m0 + p.y
    w = 6 * p.x
    scale = math.lcm(u.denominator, v.denominator, w.denominator)
    return CubicPoint.from_triple(
        int(u * scale), int(v * scale), int(w * scale)
    )


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


def is_torsion(cfg: CurveConfig, p: WeierstrassPoint) -> bool:
    """True for an affine point of finite order on Y^2 = X^3 + b.

    With b = -432 m0^2 < 0 the torsion subgroup is trivial, Z/2 or Z/3
    (Z/6 needs b a sixth power), so P is torsion exactly when 2P = O, that
    is Y = 0, or 3P = O, that is X a root of the 3-division polynomial
    3X(X^3 + 4b).
    """
    return p.y == 0 or p.x * (p.x**3 + 4 * cfg.b) == 0


def good_multiple(
    cfg: CurveConfig, p: WeierstrassPoint
) -> tuple[int, WeierstrassPoint]:
    """heights.good_multiple on W, with the multiples nP formed by add."""
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


def canonical_height(
    cfg: CurveConfig, p: WeierstrassPoint, tol: float = 1e-3
) -> ApproxReal:
    """heights.canonical_height as it was on W, over heights._good_height."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if p.is_infinity:
        return ApproxReal(0.0, 0.0)
    if not on_weierstrass(cfg, p):
        raise ValueError(f"({p.x}, {p.y}) is not on Y^2 = X^3 + ({cfg.b})")
    if is_torsion(cfg, p):
        return ApproxReal(0.0, 0.0)
    n, q = good_multiple(cfg, p)
    scale = n * n
    h = _good_height(-cfg.b, q.x.numerator, q.x.denominator, min(tol * scale, 1.0))
    if scale > 1:
        h = h / ApproxReal.from_int(scale)
    if h.radius > tol:
        achievable = 4.0 * h.radius
        raise PrecisionBudgetError(
            f"tolerance {tol:g} is below the float enclosure of this "
            f"height; achievable tolerance is about {achievable:.3g}",
            achievable,
        )
    return h


def gram(
    cfg: CurveConfig, points: list[WeierstrassPoint], tol: float = 1e-3
) -> list[list[ApproxReal]]:
    """The Gram matrix of heights.independence, formed on W.

    Entry (i, j) is hhat(P_i + P_j) - hhat(P_i) - hhat(P_j) and the diagonal
    2 hhat(P_i), each sum formed by add and each height by canonical_height
    above.
    """
    hs = [canonical_height(cfg, p, tol) for p in points]
    entries = [[h.ldexp(1) for h in hs] for _ in points]
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            h = canonical_height(cfg, add(cfg, p, points[j]), tol)
            entries[i][j] = entries[j][i] = h - hs[i] - hs[j]
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
    h = heights.canonical_height(cfg, from_weierstrass(cfg, p), tol)
    diff = h - naive_height(p).ldexp(-1)
    lo, hi = offset_window(cfg)
    return lo.lower() - tol <= diff.value <= hi.upper() + tol


def torsion_probe(cfg: CurveConfig, p: CubicPoint, tol: float = 1e-3) -> bool:
    """Double confirmation that a point is torsion.

    True only when the canonical height is at most tol and some multiple
    k * P with k <= 12 is the identity.
    """
    if p.is_identity:
        return True
    height_small = heights.canonical_height(cfg, p, tol).value <= tol
    multiple = p
    for _ in range(_TORSION_ORDER_LIMIT):
        if multiple.is_identity:
            return height_small
        multiple = cubic_add(cfg, multiple, p)
    return False
