"""The X-only doubling height engine, kept as a reference for the tests.

This is the engine cubeforge used before local heights: hhat(P) straight from
its doubling-limit definition hhat(P) = lim 4**-k h_x(2**k P) / 2.  On curves
Y^2 = X^3 + b the offset hhat - h_x/2 obeys an explicit two-sided window

    -h(b)/6 - 1.48  <=  hhat(P) - h_x(P)/2  <=  h(b)/6 + 1.576,

so after k doublings the truncation error of 4**-k h_x(2**k P) / 2 is at
most C / 4**k with C = h(b)/6 + 1.576.  Pick k with C / 4**k below the
requested tolerance, double k times exactly, and take the scaled naive
height.

The doublings act on X alone, held as coprime integers A/B with B > 0:

    X(2P) = (A^4 - 8 b A B^3) / (4 B (A^3 + b B^3)).

When gcd(A, B) = 1 the common factor of these two forms divides their
resultant R = 2^8 3^6 b^4, so gcd(R, num mod R, den mod R) is the full gcd.
Coordinate digits grow fourfold per doubling, so the cost is exponential in
log(1/tol); a digit budget, read from CUBEFORGE_DIGIT_BUDGET by this module
only, caps it.  The engine shares nothing with cubeforge.heights but the
interval type and PrecisionBudgetError, so the two check each other.

The module also keeps lattice_height_bound_check, which computes N^r
heights of lattice points with the package's engine and so stays off the
production path.
"""

from __future__ import annotations

import math
import os
from functools import reduce

from cubeforge import construct, heights
from cubeforge.curves import CubicPoint, CurveConfig
from cubeforge.heights import OFFSET_ABOVE, PrecisionBudgetError
from cubeforge.numeric import ApproxReal, interval_max, log_abs
from tests.group_reference import WeierstrassPoint, on_weierstrass

_SIXTH = ApproxReal.from_ratio(1, 6)

DEFAULT_DIGIT_BUDGET = 2_000_000
DIGIT_BUDGET_ENV = "CUBEFORGE_DIGIT_BUDGET"

# safety margin so the chosen k strictly beats the tolerance after padding
_TOL_MARGIN = 0.999


def digit_budget() -> int:
    raw = os.environ.get(DIGIT_BUDGET_ENV)
    if raw is None:
        return DEFAULT_DIGIT_BUDGET
    value = int(raw)
    if value <= 0:
        raise ValueError(f"{DIGIT_BUDGET_ENV} must be positive")
    return value


def tail_constant(cfg: CurveConfig) -> ApproxReal:
    """C = h(b)/6 + 1.576, the one-step truncation bound of the limit."""
    return cfg.hb * _SIXTH + OFFSET_ABOVE


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
    """Canonical height of P with error radius at most tol, by doubling.

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


def lattice_height_bound_check(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    box_size: int,
    indices: list[tuple[int, ...]] | None = None,
    tol: float = 1e-3,
) -> bool:
    """Certify hhat(Q_n) <= A N^2 hhat over an index set in the box.

    A is the height factor 3 * 2^(r-1) - 2, and the index set is the one
    build chooses unless one is given.  The check passes when no lattice
    point refutes the inequality after error propagation.  Heights come
    from cubeforge.heights, not from the doubling engine above.
    """
    rank = len(generators)
    if indices is None:
        gram, _ = heights.independence(cfg, generators, tol)
        indices = construct.index_set(gram, box_size)
    hs = [heights.canonical_height(cfg, p, tol) for p in generators]
    hhat_bar = reduce(interval_max, hs)
    bound = (
        ApproxReal.from_int(construct.height_factor(rank) * box_size * box_size)
        * hhat_bar
    )
    for _, q in construct.generate_lattice_points(cfg, generators, indices):
        hq = heights.canonical_height(cfg, q, tol)
        if hq.lower() > bound.upper():
            return False
    return True
