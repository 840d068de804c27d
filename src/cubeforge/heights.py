"""Naive and canonical heights on Y^2 = X^3 + b with rigorous error radii.

The canonical height is computed straight from its doubling-limit definition
hhat(P) = lim 4**-k * h_x(2**k P) / 2.  On curves of this shape the offset
hhat - h_x/2 obeys an explicit two-sided window

    -h(b)/6 - 1.48  <=  hhat(P) - h_x(P)/2  <=  h(b)/6 + 1.576,

so after k doublings the truncation error of 4**-k * h_x(2**k P) / 2 is at
most C / 4**k with C = h(b)/6 + 1.576.  That turns the limit into a
terminating algorithm with a certified radius: pick k with C / 4**k below the
requested tolerance, double k times exactly, and take the scaled naive height.

The doublings act on X alone, held as coprime integers A/B with B > 0:

    X(2P) = (A^4 - 8 b A B^3) / (4 B (A^3 + b B^3)).

When gcd(A, B) = 1 the common factor of these two forms divides their
resultant R = 2^8 3^6 b^4, so gcd(R, num mod R, den mod R) is the full gcd
and each step is reduced without a gcd on coordinates of full size.  The
result is X(2^k P) in lowest terms, the same number the group law gives.
Coordinate digits grow fourfold per doubling, so a digit budget caps the work
and a too-tight tolerance fails loudly instead of thrashing.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .curves import CurveConfig, WeierstrassPoint, add, on_weierstrass
from .numeric import ApproxReal, log_abs

OFFSET_BELOW = ApproxReal.from_decimal("1.48")
OFFSET_ABOVE = ApproxReal.from_decimal("1.576")

_SIXTH = ApproxReal.from_fraction(Fraction(1, 6))

DEFAULT_DIGIT_BUDGET = 2_000_000
DIGIT_BUDGET_ENV = "CUBEFORGE_DIGIT_BUDGET"

# safety margin so the chosen k strictly beats the tolerance after padding
_TOL_MARGIN = 0.999


class PrecisionBudgetError(Exception):
    """Raised when a tolerance needs more coordinate digits than allowed."""

    def __init__(self, message: str, achievable_tol: float):
        super().__init__(message)
        self.achievable_tol = achievable_tol


def digit_budget() -> int:
    raw = os.environ.get(DIGIT_BUDGET_ENV)
    if raw is None:
        return DEFAULT_DIGIT_BUDGET
    value = int(raw)
    if value <= 0:
        raise ValueError(f"{DIGIT_BUDGET_ENV} must be positive")
    return value


def naive_height(p: WeierstrassPoint) -> ApproxReal:
    """h_x(P) = log max(|numerator|, denominator) of X in lowest terms."""
    if p.is_infinity:
        return ApproxReal(0.0, 0.0)
    m = max(abs(p.x.numerator), p.x.denominator)
    return log_abs(m)


def tail_constant(cfg: CurveConfig) -> ApproxReal:
    """C = h(b)/6 + 1.576, the one-step truncation bound of the limit."""
    return cfg.hb * _SIXTH + OFFSET_ABOVE


def offset_window(cfg: CurveConfig) -> tuple[ApproxReal, ApproxReal]:
    """Enclosures of the two window edges for hhat - h_x/2."""
    w = cfg.hb * _SIXTH
    return (-(w + OFFSET_BELOW), w + OFFSET_ABOVE)


def _decimal_digits(num: int, den: int) -> int:
    bits = max(num.bit_length(), den.bit_length())
    return int(bits * 0.30103) + 1


def doubling_resultant(b: int) -> int:
    """Resultant of the two forms of the X-doubling map on Y^2 = X^3 + b."""
    return 2**8 * 3**6 * b**4


def double_x(a: int, d: int, b: int) -> tuple[int, int]:
    """X(2P) in lowest terms from X(P) = a/d in lowest terms with d > 0.

    A returned denominator of 0 means 2P is the point at infinity.
    """
    a3 = a * a * a
    bd3 = b * d * d * d
    num = a * (a3 - 8 * bd3)
    # 4 d (a^3 + b d^3) = 4 d^4 Y^2 >= 0 on the curve, zero only when Y = 0
    den = 4 * d * (a3 + bd3)
    r = doubling_resultant(b)
    g = math.gcd(r, num % r, den % r)
    return num // g, den // g


def canonical_height(
    cfg: CurveConfig,
    p: WeierstrassPoint,
    tol: float = 1e-3,
) -> ApproxReal:
    """Canonical height of P with error radius at most tol.

    A point whose doubling chain reaches infinity is torsion and gets the
    exact answer 0 with radius 0.  An affine P off the curve is a ValueError:
    the X-only doubling formula holds only on Y^2 = X^3 + b.  The digit
    budget is read from CUBEFORGE_DIGIT_BUDGET (see digit_budget).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if p.is_infinity:
        return ApproxReal(0.0, 0.0)
    if not on_weierstrass(cfg, p):
        raise ValueError(f"({p.x}, {p.y}) is not on Y^2 = X^3 + ({cfg.b})")
    budget = digit_budget()

    tail = tail_constant(cfg)
    tail_upper = tail.upper()
    k = 0
    while tail_upper * 0.25**k > _TOL_MARGIN * tol:
        k += 1

    def achievable(steps: int) -> float:
        return tail_upper * 0.25**steps / _TOL_MARGIN

    a, d = p.x.numerator, p.x.denominator
    start_digits = _decimal_digits(a, d)
    if start_digits * 4**k > budget:
        k_ok = 0
        while start_digits * 4 ** (k_ok + 1) <= budget:
            k_ok += 1
        raise PrecisionBudgetError(
            f"precision budget exceeded: tolerance {tol:g} needs about "
            f"{start_digits * 4 ** k} digits but the budget is {budget}; "
            f"achievable tolerance is about {achievable(k_ok):.3g}",
            achievable(k_ok),
        )

    for step in range(k):
        a, d = double_x(a, d, cfg.b)
        if d == 0:
            return ApproxReal(0.0, 0.0)
        if _decimal_digits(a, d) > budget:
            raise PrecisionBudgetError(
                f"precision budget exceeded after {step + 1} doublings "
                f"(budget {budget} digits); achievable tolerance is about "
                f"{achievable(step + 1):.3g}",
                achievable(step + 1),
            )

    scaled = log_abs(max(abs(a), d)).ldexp(-(2 * k + 1))
    truncation = tail.ldexp(-2 * k).upper()
    return ApproxReal(scaled.value, scaled.radius + truncation)


def pairing(
    cfg: CurveConfig,
    p: WeierstrassPoint,
    q: WeierstrassPoint,
    tol: float = 1e-3,
) -> ApproxReal:
    """Height pairing <P, Q> = hhat(P+Q) - hhat(P) - hhat(Q), radius <= 3 tol."""
    hs = canonical_height(cfg, add(cfg, p, q), tol)
    return hs - canonical_height(cfg, p, tol) - canonical_height(cfg, q, tol)


def _interval_det(a: list[list[ApproxReal]]) -> ApproxReal | None:
    """Interval determinant, eliminating in place; None when a pivot cannot
    be signed."""
    n = len(a)
    det = ApproxReal.exact(1.0)
    for col in range(n):
        pivot_row = None
        best = 0.0
        for r in range(col, n):
            e = a[r][col]
            if (e.lower() > 0.0 or e.upper() < 0.0) and abs(e.value) > best:
                best = abs(e.value)
                pivot_row = r
        if pivot_row is None:
            return None
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det


def independence(
    cfg: CurveConfig,
    points: list[WeierstrassPoint],
    tol: float = 1e-3,
) -> tuple[list[list[ApproxReal]], bool]:
    """Gram matrix entries of the points plus a certified independence verdict.

    The verdict is True only when the interval determinant is strictly
    positive after all error propagation.  False means "not certified at
    this tolerance", which covers both genuine dependence and intervals too
    wide to decide.
    """
    if not points:
        raise ValueError("independence requires at least one point")
    n = len(points)
    heights = [canonical_height(cfg, p, tol) for p in points]
    entries: list[list[ApproxReal]] = [[None] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = heights[i].ldexp(1)
        for j in range(i + 1, n):
            hs = canonical_height(cfg, add(cfg, points[i], points[j]), tol)
            e = hs - heights[i] - heights[j]
            entries[i][j] = e
            entries[j][i] = e
    det = _interval_det([list(row) for row in entries])
    return entries, det is not None and det.lower() > 0.0


def offset_window_holds(
    cfg: CurveConfig, p: WeierstrassPoint, tol: float = 1e-3
) -> bool:
    """Check hhat(P) - h_x(P)/2 against the window inflated by tol."""
    if p.is_infinity:
        raise ValueError("the offset window applies to affine points")
    diff = canonical_height(cfg, p, tol) - naive_height(p).ldexp(-1)
    lo, hi = offset_window(cfg)
    return lo.lower() - tol <= diff.value <= hi.upper() + tol
