"""The O(|m|^(1/3)) divisor scan, kept as a reference census for the tests.

This is the census cubeforge ran before it factored m: it tries every
|s| <= icbrt(4 |m|) as the sum s = x + y, keeps those that divide m, and
applies the same root test as cubeforge.oracle.count_reps.  It shares that
test but none of the factoring, so the two check each other on every m the
scan can reach.
"""

from __future__ import annotations

from math import isqrt

from cubeforge import icbrt


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
