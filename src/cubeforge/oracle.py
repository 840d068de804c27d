"""Independent exhaustive oracle for sum-of-two-cubes counts.

The module shares no code with the construction machinery: it imports the
point and curve types from curves, icbrt from numeric, and nothing from
heights, construct or certificate.  So its answers can arbitrate any claim a
certificate makes about representation counts.  count_reps runs over the
divisors s = x + y of m instead of over x:

    x^3 + y^3 = s * q,   s = x + y,   q = x^2 - x y + y^2,

and 4 q - s^2 = 3 (x - y)^2 >= 0, while q > 0 for every (x, y) != (0, 0).
So for m != 0 the sum s is a divisor of m with the sign of m, and
|s|^3 = |s| * s^2 <= |s| * 4 q = 4 |m|.  For each such s the product is
x y = (s^2 - m / s) / 3 and (x - y)^2 = s^2 - 4 x y, so one divisibility
test and one integer square root decide whether s yields a solution.

The census factors m itself (factorize: trial division by the 168 primes
below 1000, Brent's rho and a proof of primality for every prime it
returns).  A solution with gcd(x, y) = g is g times a coprime solution for
m / g^3, and for coprime x, y the sum s and q share no prime but 3, and no
prime p = 2 (mod 3) divides q at all.  So the full power of each such
prime of m goes into s, and each prime p = 1 (mod 3) goes wholly into s or
wholly into q (_coprime_pairs has the proof).  One kernel tests at most
2^(number of primes p = 1 (mod 3) of m / g^3) sums for each g with
g^3 | m, not every divisor of m up to icbrt(4 |m|).  census_work bounds
those sums from the exponents of m alone, and count_reps refuses an m past
CENSUS_BUDGET before the kernel runs.  search_points runs the same kernel
on (m0 / g^3) z^3.  It factors m0 once, reads the primes of every z off one
least-prime-factor table, and refuses a zmax past SEARCH_BUDGET before it
builds the table.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import count
from math import gcd, isqrt

from .curves import CubicPoint, CurveConfig
from .numeric import icbrt

# trial division takes every prime below this, so a cofactor left below its
# square has no proper factor
_TRIAL_LIMIT = 1000
# Miller-Rabin on the primes 2..41 is deterministic below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981
# rho steps multiplied together between two gcds
_RHO_BATCH = 128
# count_reps refuses an m whose census_work exceeds this.  W bounds the
# kernel's sums from above: the m of the m0 = 1729, N = 3 certificate
# (62 digits, W = 6,839,568) tries 88,434 sums and counts in about 0.3 s,
# and the product of the first 20 primes p = 1 (mod 3) (W = 2^20 + 1)
# tries 84,272 in 0.15 s, against 24,354 for the first 18 (CPython 3.11,
# one core)
CENSUS_BUDGET = 1 << 23
# search_points refuses a zmax past this: its least-prime-factor table holds
# zmax + 1 entries of 8 bytes, and each z runs the kernel once per cube
# divisor of m0.  At the budget, m0 = 91 takes about 5.5 s and 16 MB
# (CPython 3.11, one core)
SEARCH_BUDGET = 1 << 20


class RepCensus(
    namedtuple("RepCensus", "m ordered_count pairs scan_bound sums_tried")
):
    """Exhaustive ordered census of x^3 + y^3 = m.

    scan_bound is the proven bound on |x + y|, icbrt(4 |m|): every solution
    has x + y dividing m with |x + y|^3 <= 4 |m| (see the module docstring).
    It bounds the sums, not the work.  sums_tried is the work: the number of
    candidate sums x + y the kernel put through the root test, over every g
    with g^3 | m.  pairs is a tuple of ordered (x, y) pairs.
    """

    __slots__ = ()

    def unordered_pairs(self) -> tuple[tuple[int, int], ...]:
        """One representative (x, y) with x <= y per unordered solution."""
        return tuple(sorted({(min(x, y), max(x, y)) for x, y in self.pairs}))


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    return tuple(p for p, is_prime in enumerate(sieve) if is_prime)


_TRIAL_PRIMES = _primes_below(_TRIAL_LIMIT)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on every base in _MR_BASES; n odd and above 41."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n by Brent's rho (BIT 20, 1980).

    Iterates y -> y^2 + c mod n with Brent's cycle finding and one gcd per
    _RHO_BATCH steps.  When a batch's product collapses to n the batch is
    retraced one step at a time; c = 1, 2, ... until some c splits n.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g < n:
            return g


def _prime_or_factor(n: int) -> int | None:
    """None when n is proved prime, else a proper factor of n.

    n is at least _TRIAL_LIMIT^2 and has no prime factor below _TRIAL_LIMIT.
    Below psi_13 Miller-Rabin decides.  Above it a probable prime gets the
    Lucas n - 1 test: if for each prime q | n - 1 some a has a^(n-1) = 1 mod n
    and gcd(a^((n-1)/q) - 1, n) = 1, then n - 1 divides p - 1 for every prime
    p | n, so n is prime.  On a composite n some q is never witnessed, and
    gcd(a, n) > 1 at the least prime p | n at the latest, so the search over
    a always ends, with a factor.
    """
    if not _strong_probable_prime(n):
        return _rho(n)
    if n < _PSI_13:
        return None
    for q in factorize(n - 1):
        for a in count(2):
            g = gcd(a, n)
            if g > 1:
                return g
            b = pow(a, (n - 1) // q, n)
            g = gcd(b - 1, n)
            if 1 < g < n:
                return g
            if pow(b, q, n) != 1:  # a^(n-1) != 1
                return _rho(n)
            if g == 1:
                break
    return None


def _trial_division(n: int) -> tuple[dict[int, int], int]:
    """Trial division of n >= 1 by the primes below _TRIAL_LIMIT.

    Returns the factorization found and the cofactor left, which is 1 or
    at least _TRIAL_LIMIT^2 with no prime factor below _TRIAL_LIMIT.  What
    the loop leaves below _TRIAL_LIMIT^2 is prime and goes into the
    factorization: it has no prime factor below the last p tried, and when
    the loop stopped early it is below that p's square.
    """
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    if 1 < n < _TRIAL_LIMIT**2:
        factors[n] = 1
        n = 1
    return factors, n


def _split_cofactor(factors: dict[int, int], n: int) -> dict[int, int]:
    """factors with the primes of the cofactor n of _trial_division added.

    Brent's rho splits n until each part is proved prime; a part below
    _TRIAL_LIMIT^2 has no prime factor below _TRIAL_LIMIT, so it is prime.
    """
    pending = [n] if n > 1 else []
    while pending:
        c = pending.pop()
        d = None if c < _TRIAL_LIMIT**2 else _prime_or_factor(c)
        if d is None:
            factors[c] = factors.get(c, 0) + 1
        else:
            pending += (d, c // d)
    return factors


def factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of |n|, n nonzero; every p is proved.

    Trial division takes the primes below _TRIAL_LIMIT, and Brent's rho
    splits what is left.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    return _split_cofactor(*_trial_division(abs(n)))


def census_work(factors: dict[int, int]) -> int:
    """W, a bound on the work of count_reps on an m with this factorization.

    W is the number of cube divisors g (g^3 | m) plus, summed over them,
    2 to the number of primes other than 3 left in m / g^3, or none when
    v_3(m / g^3) = 1.  That is an upper bound on the sums x + y the kernel
    forms for m / g^3: it doubles its list only at the primes p = 1 (mod 3)
    and forms none once the forced part of s is past the bound
    (_coprime_pairs), so RepCensus.sums_tried never exceeds W less the g's.
    g runs over prod p^k_p with k_p <= e_p // 3, so the sum is a product
    over the primes: for p != 3 the factor sum_k (2 - [e_p = 3 k_p]) =
    2 (e_p // 3 + 1) - [3 | e_p], and for 3 the number of k_3 with
    e_3 - 3 k_3 != 1.  Every factor for a prime other than 3 is at least 1
    and does not fall as e_p grows, so W only grows as such primes are
    added; 3's exponent is final after trial division.
    """
    divisors = sums = 1
    for p, e in factors.items():
        divisors *= e // 3 + 1
        if p == 3:
            sums *= e // 3 + 1 - (e % 3 == 1)
        else:
            sums *= 2 * (e // 3 + 1) - (e % 3 == 0)
    return divisors + sums


def _within_budget(factors: dict[int, int]) -> None:
    work = census_work(factors)
    if work > CENSUS_BUDGET:
        raise ValueError(
            f"the census of m takes at least {work:,} steps, past the "
            f"census budget of {CENSUS_BUDGET:,}"
        )


def _coprime_pairs(
    m: int, factors: dict[int, int], bound: int
) -> tuple[list[tuple[int, int]], int]:
    """The coprime solutions of x^3 + y^3 = m, and the number of sums tried.

    factors is the factorization of |m|, m nonzero, and bound is
    icbrt(4 |m|), the bound on |x + y| (module docstring).  For coprime
    x, y let s = x + y and q = x^2 - x y + y^2 = s^2 - 3 x y, so m = s q.
    Then gcd(s, x) = gcd(y, x) = 1 and likewise gcd(s, y) = 1, so
    gcd(s, x y) = 1 and gcd(s, q) = gcd(s, 3 x y) = gcd(s, 3) divides 3.
    Hence:

    - each prime p != 3 of m divides only one of s and q, so v_p(s) is 0
      or v_p(m);
    - a prime p = 2 (mod 3) never divides q, so v_p(s) = v_p(m).  q is odd,
      since x and y are not both even.  For odd p write
      4 q = (2 x - y)^2 + 3 y^2.  If p divided q and not y, then -3 would be
      a square mod p, so p = 1 (mod 3); if p divided q and y, it would
      divide 2 x - y, hence x, against gcd(x, y) = 1;
    - if 3 does not divide s, then q = s^2 (mod 3) is prime to 3 as well
      and v_3(m) = 0;
    - if 3 divides s, then 3 does not divide x y, so v_3(3 x y) = 1 while
      v_3(s^2) >= 2, which gives v_3(q) = 1 and v_3(s) = v_3(m) - 1 >= 1.

    So m with v_3(m) = 1 has no coprime solution, and otherwise |s| is the
    forced part, 3^(v_3(m) - 1) (or 1 when 3 does not divide m) times the
    full power of every prime p = 2 (mod 3) of m, times the full prime
    powers of a subset of the primes p = 1 (mod 3): at most 2^(number of
    those primes) sums, cut at |s| <= bound, and none when the forced part
    is past the bound.  s has the sign of m, and x, y are the roots of
    t^2 - s t + (s^2 - m / s) / 3, integers exactly when the division by 3
    is exact and the discriminant is a perfect square.
    Every pair found is coprime: a prime p dividing x and y divides s and
    p^2 divides q, so 0 < v_p(s) < v_p(m) for p != 3 and v_3(q) >= 2, which
    no sum above allows.

    The callers reach every solution through this kernel.  A solution of
    x^3 + y^3 = m with gcd(x, y) = g is g times a coprime solution for
    m / g^3.  A primitive point (x, y, z) on x^3 + y^3 = m0 z^3 with
    gcd(x, y) = g has gcd(g, z) = 1, so g^3 divides m0 and (x / g, y / g) is
    a coprime solution for (m0 / g^3) z^3; conversely g times such a
    solution is primitive whenever gcd(g, z) = 1.
    """
    e3 = factors.get(3, 0)
    if e3 == 1:
        return [], 0
    forced = 3 ** (e3 - 1) if e3 else 1
    split = []
    for p, e in factors.items():
        if p % 3 == 2:
            forced *= p**e
        elif p != 3:
            split.append(p**e)
    if forced > bound:
        return [], 0
    sums = [forced]
    for pe in split:
        for a in sums[:]:
            if a * pe <= bound:
                sums.append(a * pe)
    sign = 1 if m > 0 else -1
    pairs = []
    for a in sums:
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
    return pairs, len(sums)


def _cube_divisors(
    factors: dict[int, int]
) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield each g >= 1 with g^3 | n, with the factorization of n / g^3.

    factors is the factorization of n.  A depth-first walk multiplies g by
    one prime at a time, never by one that comes before the last it used,
    so each g comes once.  Its stack holds about omega(n) entries for each
    prime factor of g, counted with multiplicity, not all prod(e_p // 3 + 1)
    entries.  The first entry is (1, factors), the dict itself, so callers
    must not mutate what they get.
    """
    stack = [(1, factors, list(factors))]
    while stack:
        g, rest, primes = stack.pop()
        yield g, rest
        for i, p in enumerate(primes):
            if rest.get(p, 0) >= 3:
                left = dict(rest)
                left[p] -= 3
                if not left[p]:
                    del left[p]
                stack.append((g * p, left, primes[i:]))


def count_reps(m: int) -> RepCensus:
    """Every ordered integer solution of x^3 + y^3 = m, m nonzero, ascending x.

    A solution with gcd(x, y) = g is g times a coprime solution for m / g^3,
    so the census factors m once and runs the coprime kernel _coprime_pairs
    on m / g^3 for every g with g^3 | m.  An m whose census_work exceeds
    CENSUS_BUDGET is a ValueError.  The work is checked on the trial
    division part first: Brent's rho only adds primes above _TRIAL_LIMIT,
    which never lower it, so an m past the budget is refused before rho
    runs, and checked again on the whole factorization.
    """
    if m == 0:
        raise ValueError(
            "m = 0 has the infinite family (t, -t); census is undefined"
        )
    factors, cofactor = _trial_division(abs(m))
    _within_budget(factors)
    factors = _split_cofactor(factors, cofactor)
    _within_budget(factors)
    bound = icbrt(4 * abs(m))[0]
    pairs = []
    tried = 0
    for g, rest in _cube_divisors(factors):
        # icbrt(4 |m| / g^3) = floor(cbrt(4 |m|) / g) = bound // g
        found, n = _coprime_pairs(m // g**3, rest, bound // g)
        for x, y in found:
            pairs.append((g * x, g * y))
        tried += n
    pairs.sort()
    return RepCensus(
        m=m,
        ordered_count=len(pairs),
        pairs=tuple(pairs),
        scan_bound=bound,
        sums_tried=tried,
    )


def search_points(cfg: CurveConfig, zmax: int) -> list[CubicPoint]:
    """All primitive points on x^3 + y^3 = m0 z^3 with 1 <= z <= zmax.

    Found by running the census kernel _coprime_pairs on (m0 / g^3) z^3 for
    each g with g^3 | m0 and gcd(g, z) = 1, and scaling its pairs by g.  m0
    is factored once.  The primes of each z are read off one table of least
    prime factors for 0..zmax, filled by one slice per prime up to
    isqrt(zmax) from its square on, the largest first, so that the least
    prime of each composite is written last; an entry left 0 marks a
    prime.  The kernel's
    factorization of (m0 / g^3) z^3 is put together from the two.  A zmax
    past SEARCH_BUDGET is a ValueError, raised before the table is built.
    Sorted by (z, x) for determinism.
    """
    if zmax < 1:
        raise ValueError("zmax must be at least 1")
    if zmax > SEARCH_BUDGET:
        raise ValueError(
            f"zmax is past the search budget of {SEARCH_BUDGET:,}"
        )
    m0 = cfg.m0
    cube_divisors = list(_cube_divisors(factorize(m0)))
    least = [0] * (zmax + 1)
    for p in reversed(_primes_below(isqrt(zmax) + 1)):
        least[p * p::p] = [p] * ((zmax - p * p) // p + 1)
    found = []
    for z in range(1, zmax + 1):
        cube_factors: dict[int, int] = {}
        rest_z = z
        while rest_z > 1:
            p = least[rest_z] or rest_z
            cube_factors[p] = cube_factors.get(p, 0) + 3
            rest_z //= p
        cube = z**3
        for g, rest in cube_divisors:
            if gcd(g, z) != 1:
                continue
            factors = dict(rest)
            for p, e in cube_factors.items():
                factors[p] = factors.get(p, 0) + e
            m = m0 // g**3 * cube
            pairs, _ = _coprime_pairs(m, factors, icbrt(4 * abs(m))[0])
            found += [CubicPoint(g * x, g * y, z) for x, y in pairs]
    found.sort(key=lambda p: (p.z, p.x))
    return found
