"""The O(|m|^(1/3)) divisor scan, kept as a reference census for the tests.

This is the census cubeforge ran before it factored m: it tries every
|s| <= icbrt(4 |m|) as the sum s = x + y, keeps those that divide m, and
applies the same root test as cubeforge.oracle's coprime kernel.  It shares
that test but none of the factoring, the coprime-sum selection or the
g^3 | m split, so the two check each other on every m the scan can reach.
search_reference is the point search cubeforge ran before it factored m0
once: the scan on m0 z^3 for every z, keeping the primitive triples.
"""

from __future__ import annotations

from math import gcd, isqrt

from cubeforge import CubicPoint, icbrt


def divisor_scan(m: int) -> tuple[tuple[int, int], ...]:
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
    return tuple(pairs)


def points_at(m0: int, z: int) -> list[CubicPoint]:
    """The primitive points (x, y, z) on x^3 + y^3 = m0 z^3 at this z."""
    return [
        CubicPoint(x, y, z)
        for x, y in divisor_scan(m0 * z**3)
        if gcd(x, y, z) == 1
    ]


def search_reference(m0: int, zmax: int) -> list[CubicPoint]:
    """All primitive points with 1 <= z <= zmax, sorted by (z, x)."""
    found = [p for z in range(1, zmax + 1) for p in points_at(m0, z)]
    found.sort(key=lambda p: (p.z, p.x))
    return found
