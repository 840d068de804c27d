"""The cubic curve x^3 + y^3 = m0 z^3, its group law and its Weierstrass map.

For a nonzero integer m0 the projective cubic C: x^3 + y^3 = m0 z^3 is
birationally equivalent to the short Weierstrass curve W: Y^2 = X^3 - 432 m0^2,
by the map that sends a point [x, y, z] of C with x + y != 0 to

    X = 12 m0 z / (x + y),    Y = 36 m0 (y - x) / (x + y)

and the identity [1, -1, 0] to the point at infinity.  The map is a group
isomorphism.  The one group law is on C: the integer projective formulas of
twisted Hessian curves (cubic_add).  Everything else reads W through
weierstrass_image, which gives X and Y as integer ratios in lowest terms.
Points on C are kept primitive: gcd(x, y, z) = 1 and z > 0 off the identity.
CubicPoint.from_triple is the one place an integer triple is put in that form,
and the one place that knows the point at infinity of C.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .numeric import ApproxReal, log_abs


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
        """The point of the projective triple (x, y, z), in primitive normal form.

        The one place a triple becomes a point: the gcd is divided out,
        negated where z < 0 so that z > 0.  On the line z = 0 only a scaling
        of (1, -1, 0) is on the curve, and it gives the identity; any other
        triple there, (0, 0, 0) included, is a ValueError.
        """
        if z:
            g = math.gcd(x, y, z) if z > 0 else -math.gcd(x, y, z)
            return tuple.__new__(cls, (x // g, y // g, z // g))
        if x and x + y == 0:
            return CUBIC_IDENTITY
        raise ValueError(f"({x}, {y}, 0) is not on the curve at infinity")

    @property
    def is_identity(self) -> bool:
        return self.z == 0

    def neg(self) -> "CubicPoint":
        """Group inverse: swapping x and y negates a point on the cubic."""
        return CubicPoint(self.y, self.x, self.z)

    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


CUBIC_IDENTITY = CubicPoint(1, -1, 0)


def on_cubic(cfg: CurveConfig, x: int, y: int, z: int) -> bool:
    """Exact membership test for the cubic model, including (1, -1, 0).

    (0, 0, 0) solves the equation but is no projective point.
    """
    return x**3 + y**3 == cfg.m0 * z**3 and (x, y, z) != (0, 0, 0)


def require_on_cubic(cfg: CurveConfig, p: CubicPoint) -> None:
    if not on_cubic(cfg, *p):
        raise ValueError(f"{p.triple()} is not on x^3 + y^3 = {cfg.m0} z^3")


def weierstrass_image(cfg: CurveConfig, p: CubicPoint) -> tuple[int, int, int, int]:
    """(a, d, c, e) with X = a/d and Y = c/e the image of P on W.

    Both ratios are in lowest terms with d, e > 0.  P must have x + y != 0,
    which on the curve excludes only the identity.
    """
    x, y, z = p
    s = x + y
    if s == 0:
        raise ValueError(f"({x}, {y}, {z}) has x + y = 0 and no affine image")
    if s < 0:
        x, y, z, s = -x, -y, -z, -s
    xn = 12 * cfg.m0 * z
    yn = 36 * cfg.m0 * (y - x)
    g = math.gcd(xn, s)
    h = math.gcd(yn, s)
    return xn // g, s // g, yn // h, s // h


def cubic_add(cfg: CurveConfig, p: CubicPoint, q: CubicPoint) -> CubicPoint:
    """Group law on the cubic model, in integer projective coordinates.

    With (X : Y : Z) = (z : x : y) and a = -m0 the cubic is the twisted
    Hessian curve a X^3 + Y^3 + Z^3 = 0, whose identity (0 : -1 : 1) is
    [1 : -1 : 0].  The addition formulas of Bernstein, Chuengsatiansup, Kohel
    and Lange ("Twisted Hessian curves", LATINCRYPT 2015) give the sum unless
    they vanish, which includes doubling; the rotated formulas then give it.
    On the curve the two never vanish together.

    In this model's coordinates the first formulas are

        x3 = y1^2 x2 z2 - y2^2 x1 z1 = (y1 x2)(y1 z2) - (x1 y2)(z1 y2),
        y3 = x1^2 y2 z2 - x2^2 y1 z1 = (x1 y2)(x1 z2) - (y1 x2)(z1 x2),
        z3 = z1^2 x2 y2 - z2^2 x1 y1 = (z1 x2)(z1 y2) - (x1 z2)(y1 z2),

    so six cross products and six products of them give the sum: twelve
    multiplications where the monomials take eighteen, and the same
    integers.  The sum leaves through from_triple, which divides out the
    gcd and signs it so that z > 0.
    """
    x1, y1, z1 = p
    x2, y2, z2 = q
    a = x1 * y2
    b = x1 * z2
    c = y1 * x2
    d = y1 * z2
    e = z1 * x2
    f = z1 * y2
    x3, y3, z3 = c * d - a * f, a * b - c * e, e * f - b * d
    if not (x3 or y3 or z3):
        # the paper's (X3, Y3, Z3) is (z3, x3, y3) here
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
    return p.z > 0 and math.gcd(p.x, p.y, p.z) == 1
