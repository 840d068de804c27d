"""Exact integer kernels and a small outward-rounded interval type.

Everything downstream follows two rules.  Algebra on curve points is exact:
arbitrary-precision integers, never floats; a rational enters an interval
only as an integer ratio (from_ratio, from_decimal).  Every approximate real
(a height, a logarithm, a bound) is an ApproxReal, a float value paired with
an error radius that is guaranteed to contain the true real number.
Interval operations round outward, so a certified comparison such as
``a.upper() < b.lower()`` is a proof, not a heuristic.

Decimal text from outside the program (a JSON number, a point coordinate,
an integer option, a decimal literal's mantissa or exponent) becomes an int
in one place, read_decimal.  Some integers the package and its callers
print in decimal run far past CPython's default int<->str limit of 4,300
digits: the CLI's phi prints X = 12 m0 z / (x + y), some 8,600 digits from
4,300-digit inputs, and perfbench/worker.py counts a certificate's m in
len(str(m)), 13,294 digits at m0 = 91, N = 12.  So the package lifts that
limit at import, beside read_decimal.  Decimal conversion takes quadratic
time, so read_decimal keeps the default bound, and a certificate's integers
are written and echoed in hex.
"""

from __future__ import annotations

import math
import sys

_LN2 = math.log(2.0)

_DECIMAL_DIGITS = 4300
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(
        max(sys.get_int_max_str_digits(), 20_000_000)
    )

# float(n) is exact for |n| below this
_EXACT_FLOAT_BOUND = 1 << 53


def gcd3(a: int, b: int, c: int) -> int:
    """Positive gcd of three integers.  (0, 0, 0) has no well-defined gcd."""
    if a == 0 and b == 0 and c == 0:
        raise ValueError("gcd of (0, 0, 0) is undefined")
    return math.gcd(a, b, c)


def to_primitive(x: int, y: int, z: int) -> tuple[int, int, int]:
    """Scale a projective integer triple to its primitive normal form.

    The common gcd is divided out and the sign is fixed so that z > 0.  A
    triple with z = 0 is accepted only when it is a scaling of (1, -1, 0),
    the point at infinity of x^3 + y^3 = m0 z^3; anything else on the line
    at infinity is rejected.
    """
    g = gcd3(x, y, z)
    x, y, z = x // g, y // g, z // g
    if z == 0:
        if x + y != 0:
            raise ValueError(f"({x}, {y}, 0) is not on the curve at infinity")
        return (1, -1, 0)
    if z < 0:
        x, y, z = -x, -y, -z
    return (x, y, z)


def icbrt(n: int) -> tuple[int, bool]:
    """Integer cube root with exactness flag.

    Returns (r, exact) where r = floor(n ** (1/3)) for n >= 0, extended to
    negative n by icbrt(-n) = -icbrt(n), and exact says whether r**3 == n.
    """
    if n < 0:
        r, exact = icbrt(-n)
        return -r, exact
    if n == 0:
        return 0, True
    if n.bit_length() <= 120:
        # float seed is within +-1 of the true root at this size
        r = round(float(n) ** (1.0 / 3.0))
    else:
        # Newton iteration from a power-of-two overestimate
        r = 1 << -((-n.bit_length()) // 3)
        while True:
            nxt = (2 * r + n // (r * r)) // 3
            if nxt >= r:
                break
            r = nxt
    while r > 0 and r * r * r > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r, r * r * r == n


def read_decimal(text: str) -> int:
    """int(text), refused unconverted past 4,300 digits, sign and spaces aside."""
    if len(text.strip().lstrip("+-")) > _DECIMAL_DIGITS:
        raise ValueError(f"an integer has more than {_DECIMAL_DIGITS} digits")
    return int(text)


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _nudge_down(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def _nudge_up(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


class ApproxReal:
    """A real number known to lie within ``radius`` of ``value``.

    The enclosure is maintained under every operation by adding the exact
    propagated radius plus a few ulps of outward slack to absorb the float
    rounding of the operation itself.  Instances are immutable and compare
    and hash by (value, radius); they are not tuples, so no ordering, len or
    concatenation applies to an interval by accident.
    """

    __slots__ = ("value", "radius")

    def __init__(self, value: float, radius: float = 0.0) -> None:
        if not (math.isfinite(value) and math.isfinite(radius)):
            raise ValueError("ApproxReal requires finite value and radius")
        if radius < 0.0:
            raise ValueError("ApproxReal radius must be nonnegative")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "radius", radius)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.radius == other.radius

    def __hash__(self) -> int:
        return hash((self.value, self.radius))

    def __reduce__(self):
        return ApproxReal, (self.value, self.radius)

    # -- construction ------------------------------------------------------

    @classmethod
    def exact(cls, v: float) -> "ApproxReal":
        return cls(float(v), 0.0)

    @classmethod
    def from_int(cls, n: int) -> "ApproxReal":
        if abs(n) < _EXACT_FLOAT_BOUND:
            return cls(float(n), 0.0)
        try:
            v = float(n)
        except OverflowError:
            raise ValueError(
                f"a {n.bit_length()}-bit integer is beyond float range"
            ) from None
        return cls(v, 2.0 * math.ulp(abs(v)))

    @classmethod
    def from_ratio(cls, num: int, den: int) -> "ApproxReal":
        """num/den, correctly rounded, with radius 0 when the float is exact."""
        try:
            v = num / den
        except OverflowError:
            raise ValueError("a rational beyond float range") from None
        p, q = v.as_integer_ratio()
        if p * den == num * q:
            return cls(v, 0.0)
        return cls(v, 2.0 * math.ulp(abs(v)))

    @classmethod
    def from_decimal(cls, text: str) -> "ApproxReal":
        """The literal [+-]digits[.digits][e[+-]digits], read exactly.

        Its size is read off the digit count before any power of ten is
        formed, so a huge exponent costs nothing: above float range it is a
        ValueError, and below 1e-324 the float is 0, as from_ratio gives.
        """
        mantissa, e, exp = text.lower().partition("e")
        sign = mantissa[:1] if mantissa[:1] in ("+", "-") else ""
        whole, dot, frac = mantissa[len(sign):].partition(".")
        power = exp[1:] if exp[:1] in ("+", "-") else exp
        if not (
            _is_digits(whole)
            and (_is_digits(frac) or not dot)
            and (_is_digits(power) or not e)
        ):
            raise ValueError(f"{text!r} is not a decimal literal")
        digits = whole + frac
        shift = (read_decimal(exp) if e else 0) - len(frac)
        num = read_decimal(sign + digits)
        if num == 0:
            return cls(0.0, 0.0)
        # 10**(top - 1) <= |value| < 10**top
        top = len(digits.lstrip("0")) + shift
        if top > 309:
            raise ValueError(f"the decimal {text!r} is beyond float range")
        if top <= -324:
            return cls(math.copysign(0.0, num), 2.0 * math.ulp(0.0))
        if shift >= 0:
            return cls.from_ratio(num * 10**shift, 1)
        return cls.from_ratio(num, 10**-shift)

    @classmethod
    def from_endpoints(cls, lo: float, hi: float) -> "ApproxReal":
        if lo > hi:
            raise ValueError("empty interval")
        v = 0.5 * (lo + hi)
        r = max(v - lo, hi - v)
        return cls(v, _nudge_up(r, 2) if r > 0.0 else 2.0 * math.ulp(abs(v)))

    # -- enclosure queries -------------------------------------------------

    def lower(self) -> float:
        if self.radius == 0.0:
            return self.value
        return _nudge_down(self.value - self.radius)

    def upper(self) -> float:
        if self.radius == 0.0:
            return self.value
        return _nudge_up(self.value + self.radius)

    def contains(self, x: float) -> bool:
        return self.lower() <= x <= self.upper()

    def intersects(self, other: "ApproxReal") -> bool:
        return self.lower() <= other.upper() and other.lower() <= self.upper()

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ApproxReal":
        return ApproxReal(-self.value, self.radius)

    def __add__(self, other) -> "ApproxReal":
        other = _coerce(other)
        v = self.value + other.value
        r = self.radius + other.radius
        return _outward(v, r)

    __radd__ = __add__

    def __sub__(self, other) -> "ApproxReal":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ApproxReal":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "ApproxReal":
        other = _coerce(other)
        v = self.value * other.value
        r = (
            abs(self.value) * other.radius
            + abs(other.value) * self.radius
            + self.radius * other.radius
        )
        return _outward(v, r, steps=4)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ApproxReal":
        other = _coerce(other)
        lo2, hi2 = other.lower(), other.upper()
        if lo2 <= 0.0 <= hi2:
            raise ZeroDivisionError("divisor interval contains zero")
        lo1, hi1 = self.lower(), self.upper()
        quotients = (lo1 / lo2, lo1 / hi2, hi1 / lo2, hi1 / hi2)
        return ApproxReal.from_endpoints(
            _nudge_down(min(quotients)), _nudge_up(max(quotients))
        )

    def ldexp(self, k: int) -> "ApproxReal":
        """Multiply by 2**k exactly."""
        return ApproxReal(math.ldexp(self.value, k), math.ldexp(self.radius, k))

    def log(self) -> "ApproxReal":
        lo, hi = self.lower(), self.upper()
        if lo <= 0.0:
            raise ValueError("log of an interval touching zero")
        return ApproxReal.from_endpoints(
            _nudge_down(math.log(lo), 3), _nudge_up(math.log(hi), 3)
        )

    def exp(self) -> "ApproxReal":
        lo, hi = self.lower(), self.upper()
        return ApproxReal.from_endpoints(
            _nudge_down(math.exp(lo), 3), _nudge_up(math.exp(hi), 3)
        )

    def pow_ratio(self, num: int, den: int) -> "ApproxReal":
        """self ** (num/den) for an interval with positive lower end."""
        return (self.log() * ApproxReal.from_ratio(num, den)).exp()

    def __repr__(self) -> str:  # pragma: no cover
        return f"ApproxReal({self.value!r} +- {self.radius:.3g})"


def _coerce(x) -> ApproxReal:
    if isinstance(x, ApproxReal):
        return x
    if isinstance(x, int):
        return ApproxReal.from_int(x)
    if isinstance(x, float):
        return ApproxReal(x, 0.0)
    raise TypeError(f"cannot mix ApproxReal with {type(x).__name__}")


def _outward(v: float, r: float, steps: int = 2) -> ApproxReal:
    return ApproxReal(v, r + steps * math.ulp(abs(v) + r))


def interval_max(a: ApproxReal, b: ApproxReal) -> ApproxReal:
    """Enclosure of max(x, y) over x in a, y in b."""
    return ApproxReal.from_endpoints(
        max(a.lower(), b.lower()), max(a.upper(), b.upper())
    )


def log_abs(n: int) -> ApproxReal:
    """Natural log of |n| for a nonzero integer of any size.

    The relative error radius stays below 1e-12 regardless of bit length:
    the top 53 bits carry the mantissa and the rest contributes at most
    2**-52 through the truncated remainder.
    """
    if n == 0:
        raise ValueError("log_abs(0) is undefined")
    a = abs(n)
    if a == 1:
        return ApproxReal(0.0, 0.0)
    nb = a.bit_length()
    if nb <= 53:
        v = math.log(a)
        return ApproxReal(v, 4.0 * math.ulp(v))
    shift = nb - 53
    top = a >> shift
    v = math.log(top) + shift * _LN2
    radius = 2.0**-52 + 1.5e-14 + abs(v) * 1e-15
    return ApproxReal(v, radius)
