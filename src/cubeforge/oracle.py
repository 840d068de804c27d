"""Independent exhaustive oracle for sum-of-two-cubes counts.

count_reps shares no code with the construction machinery, so its answers
can arbitrate any claim a certificate makes about representation counts.
It runs over the divisors s = x + y of m instead of over x:

    x^3 + y^3 = s * q,   s = x + y,   q = x^2 - x y + y^2,

and 4 q - s^2 = 3 (x - y)^2 >= 0, while q > 0 for every (x, y) != (0, 0).
So for m != 0 the sum s is a divisor of m with the sign of m, and
|s|^3 = |s| * s^2 <= |s| * 4 q = 4 |m|.  For each such s the product is
x y = (s^2 - m / s) / 3 and (x - y)^2 = s^2 - 4 x y, so one divisibility
test and one integer square root decide whether s yields a solution.  The
scan over |s| <= icbrt(4 |m|) is therefore exhaustive and costs O(|m|^(1/3))
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .curves import CubicPoint, CurveConfig, cubic_add, to_weierstrass
from .heights import canonical_height
from .numeric import gcd3, icbrt

# torsion on these curves has order dividing a bound this small
_TORSION_ORDER_LIMIT = 12


@dataclass(frozen=True)
class RepCensus:
    """Exhaustive ordered census of x^3 + y^3 = m.

    scan_bound is the proven bound on |x + y|, icbrt(4 |m|): every solution
    has x + y dividing m with |x + y|^3 <= 4 |m| (see the module docstring).
    """

    m: int
    ordered_count: int
    pairs: tuple[tuple[int, int], ...]
    scan_bound: int

    def unordered_pairs(self) -> tuple[tuple[int, int], ...]:
        """One representative (x, y) with x <= y per unordered solution."""
        return tuple(sorted({(min(x, y), max(x, y)) for x, y in self.pairs}))


def count_reps(m: int) -> RepCensus:
    """Every ordered integer solution of x^3 + y^3 = m, m nonzero, ascending x.

    Scans the sums s = x + y: s divides m, has the sign of m and satisfies
    |s|^3 <= 4 |m|.  For each such s, x and y are the roots of
    t^2 - s t + (s^2 - m / s) / 3, which are integers exactly when the
    division by 3 is exact and the discriminant is a perfect square.
    """
    if m == 0:
        raise ValueError(
            "m = 0 has the infinite family (t, -t); census is undefined"
        )
    bound = icbrt(4 * abs(m))[0]
    sign = 1 if m > 0 else -1
    pairs = []
    for a in range(1, bound + 1):
        if m % a:
            continue
        s = sign * a
        xy, rem = divmod(s * s - m // s, 3)
        disc = s * s - 4 * xy  # (x - y)^2
        if rem or disc < 0:
            continue
        d = isqrt(disc)
        if d * d != disc:
            continue
        # d^2 = s^2 - 4 xy gives d = s (mod 2), so both halves are exact
        x, y = (s + d) // 2, (s - d) // 2
        pairs.append((x, y))
        if d:
            pairs.append((y, x))
    pairs.sort()
    return RepCensus(
        m=m,
        ordered_count=len(pairs),
        pairs=tuple(pairs),
        scan_bound=bound,
    )


def search_points(cfg: CurveConfig, zmax: int) -> list[CubicPoint]:
    """All primitive points on x^3 + y^3 = m0 z^3 with 1 <= z <= zmax.

    Found by running the census on m0 * z^3 for each z, keeping coprime
    triples.  Sorted by (z, x) for determinism.
    """
    if zmax < 1:
        raise ValueError("zmax must be at least 1")
    found = []
    for z in range(1, zmax + 1):
        for x, y in count_reps(cfg.m0 * z**3).pairs:
            if gcd3(x, y, z) == 1:
                found.append(CubicPoint(x, y, z))
    found.sort(key=lambda p: (p.z, p.x))
    return found


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
