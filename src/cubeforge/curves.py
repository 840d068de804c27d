"""The cubic curve x^3 + y^3 = m0 z^3 and its Weierstrass twin Y^2 = X^3 + b.

For a nonzero integer m0 the projective cubic C: x^3 + y^3 = m0 z^3 is
birationally equivalent to the short Weierstrass curve W: Y^2 = X^3 - 432 m0^2.
The forward map sends a cubic point [x, y, z] with x + y != 0 to

    X = 12 m0 z / (x + y),    Y = 36 m0 (y - x) / (x + y),

the identity [1, -1, 0] to the point at infinity, and the inverse recovers a
projective triple proportional to (36 m0 - Y, 36 m0 + Y, 6 X).  The one
group law is on C: the integer projective formulas of twisted Hessian curves
(cubic_add).  The map is a group isomorphism, so the heights, which read
Weierstrass coordinates, add on C and map each sum across.  Points on C are
kept primitive: gcd(x, y, z) = 1 and z > 0 off the identity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .numeric import ApproxReal, gcd3, log_abs, to_primitive


class CurveConfig:
    """One curve pair, determined by the nonzero integer m0.

    Immutable, compared and hashed by m0; hb is computed on first use.
    """

    __slots__ = ("m0", "_hb")

    def __init__(self, m0: int) -> None:
        if m0 == 0:
            raise ValueError("m0 must be a nonzero integer")
        object.__setattr__(self, "m0", m0)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m0 == other.m0

    def __hash__(self) -> int:
        return hash((self.m0,))

    def __reduce__(self):
        return CurveConfig, (self.m0,)

    def __repr__(self) -> str:
        return f"CurveConfig(m0={self.m0!r})"

    @property
    def b(self) -> int:
        return -432 * self.m0 * self.m0

    @property
    def hb(self) -> ApproxReal:
        """Naive height log|b| of the Weierstrass coefficient."""
        try:
            return self._hb
        except AttributeError:
            object.__setattr__(self, "_hb", log_abs(self.b))
            return self._hb


class CubicPoint(namedtuple("CubicPoint", "x y z")):
    """Primitive integer point [x : y : z] on the cubic model.

    Instances built through from_triple satisfy gcd(x, y, z) = 1 with z > 0,
    except the identity (1, -1, 0).
    """

    __slots__ = ()

    @classmethod
    def from_triple(cls, x: int, y: int, z: int) -> "CubicPoint":
        return cls(*to_primitive(x, y, z))

    @property
    def is_identity(self) -> bool:
        return self.z == 0

    def neg(self) -> "CubicPoint":
        """Group inverse: swapping x and y negates a point on the cubic."""
        return CubicPoint(self.y, self.x, self.z)

    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


CUBIC_IDENTITY = CubicPoint(1, -1, 0)


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


def on_cubic(cfg: CurveConfig, x: int, y: int, z: int) -> bool:
    """Exact membership test for the cubic model, including (1, -1, 0)."""
    return x**3 + y**3 == cfg.m0 * z**3


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


def cubic_add(cfg: CurveConfig, p: CubicPoint, q: CubicPoint) -> CubicPoint:
    """Group law on the cubic model, in integer projective coordinates.

    With (X : Y : Z) = (z : x : y) and a = -m0 the cubic is the twisted
    Hessian curve a X^3 + Y^3 + Z^3 = 0, whose identity (0 : -1 : 1) is
    [1 : -1 : 0].  The addition formulas of Bernstein, Chuengsatiansup, Kohel
    and Lange ("Twisted Hessian curves", LATINCRYPT 2015) give the sum unless
    they vanish, which includes doubling; the rotated formulas then give it.
    On the curve the two never vanish together.
    """
    x1, y1, z1 = p.x, p.y, p.z
    x2, y2, z2 = q.x, q.y, q.z
    # the paper's (X3, Y3, Z3) is (z3, x3, y3) here
    x3 = y1 * y1 * x2 * z2 - y2 * y2 * x1 * z1
    y3 = x1 * x1 * y2 * z2 - x2 * x2 * y1 * z1
    z3 = z1 * z1 * x2 * y2 - z2 * z2 * x1 * y1
    if not (x3 or y3 or z3):
        x3 = x2 * x2 * x1 * y1 + cfg.m0 * z1 * z1 * y2 * z2
        y3 = -cfg.m0 * z2 * z2 * x1 * z1 - y1 * y1 * x2 * y2
        z3 = y2 * y2 * y1 * z1 - x1 * x1 * x2 * z2
        if not (x3 or y3 or z3):
            raise ValueError(
                f"both addition formulas vanish on {p.triple()} and "
                f"{q.triple()}: the points are not on the curve"
            )
    return CubicPoint.from_triple(x3, y3, z3)


def is_primitive(p: CubicPoint) -> bool:
    """True when the stored triple is in primitive normal form."""
    if p.is_identity:
        return (p.x, p.y) == (1, -1)
    return p.z > 0 and gcd3(p.x, p.y, p.z) == 1
