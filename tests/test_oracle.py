"""Exhaustive census: the coprime-sum kernel against two reference censuses.

count_reps factors m and, for each g with g^3 | m, tries only the sums
x + y that a coprime solution for m / g^3 allows.  It is checked against
the sqrt(|m|) cube-root scan below on small m, and against the
O(|m|^(1/3)) divisor scan it replaced (tests/census_reference.py) up to
|m| near 5e16; search_points is checked against the per-z scan it
replaced.  TestFactor covers the factoring and primality proofs on the
classical hard cases: Carmichael numbers, strong pseudoprimes to many
bases, and numbers past the range where Miller-Rabin alone decides.
"""

import ast
import random
import time
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubeforge import (
    CubicPoint,
    CurveConfig,
    build_certificate,
    count_reps,
    icbrt,
    search_points,
)
from cubeforge import oracle
from cubeforge.oracle import _strong_probable_prime, factorize
from tests.census_reference import divisor_scan, points_at, search_reference
from tests.group_reference import torsion_probe

TA4 = 6963472309248
TA5 = 48988659276962496
# least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def sqrt_scan(m):
    """Reference census: scan |x| <= isqrt(|m|) + 1 and cube-test m - x^3.

    Exhaustive because a solution with x, y of one sign has |x|^3 <= |m|,
    and one with opposite signs has x^2 - x y + y^2 >= x^2 while x + y is a
    nonzero integer, so |m| >= x^2.  Too slow beyond small |m|.
    """
    bound = isqrt(abs(m)) + 1
    pairs = []
    for x in range(-bound, bound + 1):
        y, exact = icbrt(m - x * x * x)
        if exact:
            pairs.append((x, y))
    return pairs


def strong_probable_prime(n, base):
    """One Miller-Rabin round on odd n > base, written out for the tests."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_by_trial(p):
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


PRIMES_2_MOD_3 = [
    p for p in range(2, 100) if p % 3 == 2 and is_prime_by_trial(p)
]


def seeded_cube_sums(count, lo, hi, seed):
    """count values m = x^3 + y^3 with lo <= |m| <= hi, half of each sign."""
    rng = random.Random(seed)
    reach = round(hi ** (1 / 3))
    found = []
    while len(found) < count:
        sign = 1 if len(found) % 2 else -1
        x = rng.randint(-reach, reach)
        rest = sign * rng.uniform(lo, hi) - x**3
        y = round(abs(rest) ** (1 / 3)) * (1 if rest > 0 else -1)
        m = x**3 + y**3
        if lo <= abs(m) <= hi and (m > 0) == (sign > 0):
            found.append(m)
    return found


class TestCountReps:
    def test_taxicab_values(self):
        assert count_reps(1729).ordered_count == 4
        assert count_reps(91).ordered_count == 4
        assert count_reps(2).ordered_count == 1
        # 4104 = 2^3 + 16^3 = 9^3 + 15^3 = (-12)^3 + 18^3
        assert count_reps(4104).ordered_count == 6
        # the three classical positive pairs plus (-513, 606)
        assert count_reps(87539319).ordered_count == 8

    def test_pairs_listing(self):
        census = count_reps(1729)
        assert census.pairs == ((1, 12), (9, 10), (10, 9), (12, 1))
        assert census.scan_bound == icbrt(4 * 1729)[0]
        assert census.unordered_pairs() == ((1, 12), (9, 10))

    def test_sums_tried(self):
        # 27 * 1729 = 3^3 * 7 * 13 * 19, scan_bound 57.  g = 1: v_3 = 3 puts
        # 3^2 in every coprime sum, and 9 * 7 > 57, so only s = 9 is tried
        # (it gives (46, -37)).  g = 3: m / 27 = 1729, bound 19, sums 1, 7,
        # 13 and 19 (13 and 19 give 3 * (1, 12) and 3 * (9, 10)).
        census = count_reps(27 * 1729)
        assert census.scan_bound == 57
        assert census.sums_tried == 5
        assert census.unordered_pairs() == ((-37, 46), (3, 36), (27, 30))
        # 5187 = 3 * 1729: v_3 = 1 leaves no coprime sum to try
        assert count_reps(5187).sums_tried == 0
        # 1000 * 1729, scan_bound 190: g = 1, 2, 5, 10 leave m / g^3 with
        # bounds 190, 95, 38 and 19.  2 and 5 are 2 (mod 3), so their full
        # powers are forced into every sum: at g = 1 and g = 2 the forced
        # 2^3 * 5^3 and 5^3 are past the bound and no sum is tried, at
        # g = 5 the one sum is 8 (8 * 7 > 38), and at g = 10 the sums are
        # 1, 7, 13 and 19 of 1729 (not 91 or 133)
        assert count_reps(1000 * 1729).sums_tried == 5

    @given(
        x=st.integers(-10**6, 10**6),
        y=st.integers(-10**6, 10**6),
    )
    def test_primes_2_mod_3_never_divide_q(self, x, y):
        # the lemma behind _coprime_pairs' forced part: for coprime x, y no
        # prime p = 2 (mod 3) divides q = x^2 - x y + y^2
        assume(gcd(x, y) == 1)
        q = x * x - x * y + y * y
        for p in PRIMES_2_MOD_3:
            assert q % p, (x, y, p)

    def test_mixed_sign_pairs(self):
        assert count_reps(91).pairs == ((-5, 6), (3, 4), (4, 3), (6, -5))

    def test_single_and_double(self):
        assert count_reps(1).pairs == ((0, 1), (1, 0))
        assert count_reps(16).pairs == ((2, 2),)

    def test_negative_m_duality(self):
        plus = count_reps(91).pairs
        minus = count_reps(-91).pairs
        assert sorted((-x, -y) for x, y in plus) == sorted(minus)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            count_reps(0)

    def test_exhaustive_against_double_loop(self):
        limit = 12
        for m in range(-60, 61):
            if m == 0:
                continue
            brute = sorted(
                (x, y)
                for x in range(-limit, limit + 1)
                for y in range(-limit, limit + 1)
                if x**3 + y**3 == m
            )
            assert list(count_reps(m).pairs) == brute

    @given(st.integers(-10**7, 10**7))
    @settings(max_examples=200, deadline=None)
    def test_identity_and_symmetry(self, m):
        if m == 0:
            return
        census = count_reps(m)
        xs = [x for x, _ in census.pairs]
        assert xs == sorted(xs)
        for x, y in census.pairs:
            assert x**3 + y**3 == m
            assert abs(x + y) <= census.scan_bound
            assert (y, x) in census.pairs
        assert census.scan_bound == icbrt(4 * abs(m))[0]

    def test_fourth_taxicab(self):
        census = count_reps(TA4)
        assert census.ordered_count == 10
        assert census.unordered_pairs() == (
            (-40884, 42228),
            (2421, 19083),
            (5436, 18948),
            (10200, 18072),
            (13322, 16630),
        )

    def test_fifth_taxicab(self):
        census = count_reps(TA5)
        assert census.ordered_count == 14
        assert census.unordered_pairs() == (
            (-681184, 714700),
            (-576920, 622316),
            (38787, 365757),
            (107839, 362753),
            (205292, 342952),
            (221424, 336588),
            (231518, 331954),
        )
        assert all(x**3 + y**3 == TA5 for x, y in census.pairs)


# (2 * 3 * ... * 61)^3: 70 digits with 2^18 cube divisors
PRIMORIAL_61_CUBED = prod(oracle._primes_below(62)) ** 3
# the squarefree product of the first 28 primes other than 3: one cube
# divisor and 2^28 sums
SQUAREFREE_28 = prod([p for p in oracle._primes_below(200) if p != 3][:28])


def _certificate_m(box_size, m0=91):
    generators = {
        6: [CubicPoint(17, 37, 21)],
        91: [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)],
        1729: [CubicPoint(1, 12, 1), CubicPoint(9, 10, 1)],
    }
    cert = build_certificate(CurveConfig(m0), generators[m0], box_size)
    return cert.m


def _work_by_walk(factors):
    """census_work spelled out: one step per cube divisor g, and per g a
    bound on the sums _coprime_pairs forms, none when v_3(m / g^3) = 1,
    else 2 to the number of primes other than 3 in m / g^3."""
    work = 0
    for _, rest in oracle._cube_divisors(factors):
        others = sum(1 for p in rest if p != 3)
        work += 1 + (0 if rest.get(3) == 1 else 2**others)
    return work


# the values measured on the m of each case; the m0 = 91, N = 4 and the
# m0 = 6, N = 5 m are refused on their trial-division part, before rho
_REFUSED = [
    pytest.param(lambda: _certificate_m(4), "653,006,880", id="m0=91,N=4"),
    pytest.param(lambda: PRIMORIAL_61_CUBED, "258,542,470",
                 id="primorial-61-cubed"),
    pytest.param(lambda: SQUAREFREE_28, "268,435,457", id="squarefree-28"),
    pytest.param(lambda: _certificate_m(5, 6), "8,757,288", id="m0=6,N=5"),
]


class TestCensusBudget:
    """count_reps bounds its work before it runs the kernel."""

    def test_cube_divisors_are_yielded(self):
        factors = factorize(2**7 * 5**3 * 7**2 * 11**6)
        entries = oracle._cube_divisors(factors)
        assert iter(entries) is entries
        entries = list(entries)
        assert len(entries) == 3 * 2 * 1 * 3
        assert entries[0] == (1, factors)
        assert len({g for g, _ in entries}) == len(entries)
        n = prod(p**e for p, e in factors.items())
        for g, rest in entries:
            assert g**3 * prod(p**e for p, e in rest.items()) == n
            assert 0 not in rest.values()

    def test_certificate_m_within_the_budget(self):
        # the 41-digit m of m0 = 91 at N = 3 still counts: 9 representations
        # and their swaps, with 3,072 cube divisors
        m = _certificate_m(3)
        factors = factorize(m)
        assert prod(e // 3 + 1 for e in factors.values()) == 3072
        assert oracle.census_work(factors) == 275_232
        census = count_reps(m)
        assert census.ordered_count == 18
        assert census.sums_tried + 3072 <= 275_232

    def test_largest_certificate_m_within_the_budget(self):
        # the 62-digit m of m0 = 1729 at N = 3, the largest certificate m of
        # the pool curves at N <= 4 that counts
        m = _certificate_m(3, 1729)
        assert oracle.census_work(factorize(m)) == 6_839_568
        assert 6_839_568 <= oracle.CENSUS_BUDGET == 2**23
        assert count_reps(m).ordered_count == 18

    @pytest.mark.parametrize("make_m, work", _REFUSED)
    def test_refused_at_once(self, make_m, work, monkeypatch):
        # refused on the trial-division part: rho never runs
        m = make_m()
        monkeypatch.setattr(oracle, "_rho", _refuse_rho)
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            count_reps(m)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            f"the census of m takes at least {work} steps, past the census"
            " budget of 8,388,608"
        )

    def test_budget_is_inclusive(self, monkeypatch):
        # 1000 = 2^3 5^3 has the cube divisors 1, 2, 5 and 10, whose
        # kernels form 4, 2, 2 and 1 sums: 13 steps
        assert oracle.census_work(factorize(1000)) == 13
        monkeypatch.setattr(oracle, "CENSUS_BUDGET", 13)
        assert count_reps(1000).pairs == ((0, 10), (10, 0))
        monkeypatch.setattr(oracle, "CENSUS_BUDGET", 12)
        with pytest.raises(ValueError, match="at least 13 steps"):
            count_reps(1000)

    def test_full_factorization_is_checked_too(self, monkeypatch):
        # 2^6 times a product of two primes past the trial limit, which rho
        # splits: 3 cube divisors and 5 sums on the trial-division part,
        # and the two primes double the sums twice
        m = 2**6 * 1009 * 1013
        assert oracle._trial_division(m) == ({2: 6}, 1009 * 1013)
        assert oracle.census_work({2: 6}) == 3 + 5
        assert oracle.census_work(factorize(m)) == 3 + 5 * 2 * 2
        monkeypatch.setattr(oracle, "CENSUS_BUDGET", 22)
        with pytest.raises(ValueError, match="at least 23 steps"):
            count_reps(m)

    @settings(max_examples=300, deadline=None)
    @given(
        exponents=st.dictionaries(
            st.sampled_from([2, 3, 5, 7, 1009]), st.integers(0, 11),
            max_size=5,
        ).map(lambda d: {p: e for p, e in d.items() if e}),
        extra=st.integers(1, 7),
    )
    def test_work_is_the_walk_and_only_grows(self, exponents, extra):
        # the closed form against the walk over the cube divisors, and a
        # prime other than 3 added, or raised, never lowers it
        work = oracle.census_work(exponents)
        assert work == _work_by_walk(exponents)
        for p in (2, 1013):
            grown = {**exponents, p: exponents.get(p, 0) + extra}
            assert oracle.census_work(grown) >= work

    @pytest.mark.parametrize(
        "n", [3, 2**5 * 3, 997, 997**2, 1009, 1009 * 1013, 2 * 1009**2]
    )
    def test_trial_division_leaves_no_small_prime(self, n):
        # what is left is 1 or past _TRIAL_LIMIT^2 with no trial prime in
        # it, so 3's exponent is final and rho adds only larger primes
        factors, rest = oracle._trial_division(n)
        assert rest == 1 or (
            rest >= oracle._TRIAL_LIMIT**2
            and gcd(rest, prod(oracle._TRIAL_PRIMES)) == 1
        )
        assert prod(p**e for p, e in factors.items()) * rest == n
        assert factorize(n) == oracle._split_cofactor(factors, rest)

    def test_sums_tried_within_the_work(self):
        # the kernel's sums after the cut never exceed W less the g's
        for m in (1000, 1729, 91 * 8**3, -2 * 3**9, 2**9 * 7 * 27):
            factors = factorize(m)
            g_count = len(list(oracle._cube_divisors(factors)))
            assert count_reps(m).sums_tried + g_count <= (
                oracle.census_work(factors)
            )


def _refuse_rho(n):
    raise AssertionError("rho ran")


class TestKernelAgreement:
    @given(st.integers(-10**5, 10**5))
    @settings(max_examples=300, deadline=None)
    def test_matches_sqrt_scan(self, m):
        if m == 0:
            return
        assert list(count_reps(m).pairs) == sqrt_scan(m)

    def test_matches_sqrt_scan_on_cube_sums(self):
        sums = {x**3 + y**3 for x in range(-40, 41) for y in range(-40, 41)}
        sums.discard(0)
        for m in sums:
            pairs = count_reps(m).pairs
            assert list(pairs) == sqrt_scan(m)
            assert pairs == divisor_scan(m)

    def test_matches_sqrt_scan_spot_checks(self):
        for m in (1729, 4104, 87539319, -87539319, 10**7 + 3, -(10**7) - 3):
            assert list(count_reps(m).pairs) == sqrt_scan(m)

    @given(st.integers(-10**7, 10**7))
    @settings(max_examples=300, deadline=None)
    def test_matches_divisor_scan(self, m):
        if m == 0:
            return
        assert count_reps(m).pairs == divisor_scan(m)

    def test_matches_divisor_scan_on_seeded_draws(self):
        draws = seeded_cube_sums(200, 10**11, 10**12, seed=20171340)
        assert sum(m > 0 for m in draws) == 100
        for m in draws:
            assert count_reps(m).pairs == divisor_scan(m)

    def test_matches_divisor_scan_on_taxicabs(self):
        for m in (TA4, TA5, -TA5):
            assert count_reps(m).pairs == divisor_scan(m)

    @pytest.mark.parametrize(
        "m", [8 * 1729, 27 * 1729, 1000 * 1729, 3**7, -2 * 3**9, 2**9 * 7]
    )
    def test_matches_divisor_scan_on_cubes_and_powers_of_3(self, m):
        assert count_reps(m).pairs == divisor_scan(m)

    @given(
        st.integers(1, 60),
        st.integers(-200, 200),
        st.integers(-200, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_divisor_scan_on_scaled_cube_sums(self, g, x, y):
        # (g x, g y) solves m = g^3 (x^3 + y^3) with a gcd that g divides, so
        # only the g^3 | m split reaches it; g and x + y cover v_3(m) = 0, 1
        # and above
        m = g**3 * (x**3 + y**3)
        if m == 0:
            return
        pairs = count_reps(m).pairs
        assert (g * x, g * y) in pairs
        assert pairs == divisor_scan(m)

    @pytest.mark.parametrize("m0", [6, 7, 91, 1729])
    def test_matches_divisor_scan_on_curve_values(self, m0):
        # m0 z^3 is smooth: many divisors fall below the bound
        for z in range(1, 101):
            m = m0 * z**3
            assert count_reps(m).pairs == divisor_scan(m)


class TestFactor:
    def test_trial_primes(self):
        primes = [
            p for p in range(2, 1000) if all(p % d for d in range(2, isqrt(p) + 1))
        ]
        assert oracle._TRIAL_PRIMES == tuple(primes)
        assert len(primes) == 168

    @pytest.mark.parametrize(
        "n, factors",
        [
            # Carmichael numbers
            (561, {3: 1, 11: 1, 17: 1}),
            (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
            (825265, {5: 1, 7: 1, 17: 1, 19: 1, 73: 1}),
            (321197185, {5: 1, 19: 1, 23: 1, 29: 1, 37: 1, 137: 1}),
            # strong pseudoprimes to base 2, to bases 2..7 and to 2..23
            (2047, {23: 1, 89: 1}),
            (3215031751, {151: 1, 751: 1, 28351: 1}),
            (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
            (PSI_12, {399165290221: 1, 798330580441: 1}),
            (PSI_13, {1287836182261: 1, 2575672364521: 1}),
            (10**25 + 13, {10**25 + 13: 1}),
            # prime powers past trial division
            (1009**3, {1009: 3}),
            ((10**6 + 3) ** 2, {10**6 + 3: 2}),
            (1, {}),
            (-12, {2: 2, 3: 1}),
        ],
    )
    def test_known_factorizations(self, n, factors):
        assert factorize(n) == factors
        assert factorize(-n) == factors

    def test_psi_12_caught_by_base_41(self):
        assert all(strong_probable_prime(PSI_12, b) for b in range(2, 41)
                   if is_prime_by_trial(b))
        assert not strong_probable_prime(PSI_12, 41)
        assert not _strong_probable_prime(PSI_12)

    def test_lucas_cases_pass_every_base(self):
        # so only the n - 1 proof splits psi_13 and proves 10^25 + 13
        for n in (PSI_13, 10**25 + 13):
            assert n >= PSI_13 and _strong_probable_prime(n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(-10**12, 10**12).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_factors_are_prime_and_multiply_back(self, n):
        factors = factorize(n)
        assert prod(p**e for p, e in factors.items()) == abs(n)
        assert all(e >= 1 and is_prime_by_trial(p) for p, e in factors.items())


# cube factors (216, 728 = 8 * 91, 189 = 27 * 7), 3-adic cases (-9, 189,
# 657, 5187) and the rank-3 curve 657
REFERENCE_CURVES = [1, 2, 6, 7, -9, 91, 189, 216, 657, -657, 728, 1729, 5187]
# curves with a primitive point at z = 1009 or 2018; on 69544 = 2^3 * 8693
# the point has gcd(x, y) = 2, and 25515 = 3^6 * 35
WIDE_Z_CURVES = {
    8693: [CubicPoint(22680, -13987, 1009)],
    69544: [CubicPoint(45360, -27974, 1009)],
    25515: [CubicPoint(59347, 8693, 2018)],
    -8084: [CubicPoint(-122093, 120589, 2018)],
}


class TestSearchPoints:
    def test_finds_known_generator(self, cfg6):
        points = search_points(cfg6, 25)
        assert CubicPoint(17, 37, 21) in points
        assert CubicPoint(37, 17, 21) in points
        for p in points:
            assert p.x**3 + p.y**3 == 6 * p.z**3

    def test_empty_below_first_z(self, cfg6):
        assert search_points(cfg6, 1) == []

    def test_small_curve(self, cfg7):
        assert search_points(cfg7, 2) == [
            CubicPoint(-1, 2, 1),
            CubicPoint(2, -1, 1),
        ]

    def test_primitive_only(self, cfg7):
        # (4, -2, 2) solves the equation but is a scaled copy of (2, -1, 1)
        points = search_points(cfg7, 4)
        assert CubicPoint(4, -2, 2) not in points
        assert all(gcd(p.x, p.y, p.z) == 1 for p in points)

    def test_sorted_deterministic(self, cfg6):
        points = search_points(cfg6, 25)
        assert points == sorted(points, key=lambda p: (p.z, p.x))

    def test_zmax_validation(self, cfg6):
        with pytest.raises(ValueError):
            search_points(cfg6, 0)

    @pytest.mark.parametrize("m0", REFERENCE_CURVES)
    def test_matches_reference(self, m0):
        # each small zmax puts at the table's last entry a prime (2, 3, 5),
        # a prime square, where a slice starts (4, 9, 25, 49), or 8
        reference = search_reference(m0, 100)
        for zmax in (1, 2, 3, 4, 5, 8, 9, 25, 49, 100):
            assert search_points(CurveConfig(m0), zmax) == [
                p for p in reference if p.z <= zmax
            ], zmax

    def test_factors_only_m0(self, monkeypatch):
        # every z is read off the least-prime-factor table
        calls = []
        original = oracle.factorize

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(oracle, "factorize", counting)
        assert len(search_points(CurveConfig(91), 100)) == 12
        assert calls == [91]

    def test_refused_past_the_budget(self, cfg6):
        # refused before the table is allocated, so at once
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            search_points(cfg6, 10**12)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "zmax is past the search budget of 1,048,576"
        )

    def test_refused_past_the_budget_in_kernel_runs(self):
        # 1,024 cube divisors: zmax = 1,024 is 2^20 kernel runs at most,
        # the budget, and 1,025 is past it, refused after factoring m0 and
        # before the table is built
        m0 = prod((2, 5, 7, 11, 13, 17, 19, 23, 29, 31)) ** 3
        for zmax in (1025, 2000):
            start = time.perf_counter()
            with pytest.raises(ValueError) as info:
                search_points(CurveConfig(m0), zmax)
            assert time.perf_counter() - start < 1.0
            assert str(info.value) == (
                "zmax times the 1,024 cube divisors of m0 is past the search "
                "budget of 1,048,576"
            )

    def test_kernel_run_budget_is_inclusive(self, monkeypatch):
        # 56 = 2^3 * 7 has the cube divisors 1 and 2
        monkeypatch.setattr(oracle, "SEARCH_BUDGET", 4)
        assert search_points(CurveConfig(56), 2) == search_reference(56, 2)
        with pytest.raises(ValueError, match="2 cube divisors of m0 is past"):
            search_points(CurveConfig(56), 3)

    def test_zmax_is_refused_before_factoring(self, monkeypatch):
        def refuse(n):
            raise AssertionError("m0 was factored")

        monkeypatch.setattr(oracle, "factorize", refuse)
        with pytest.raises(ValueError, match="^zmax is past the search"):
            search_points(CurveConfig(91), 10**12)

    def test_budget_is_inclusive(self, cfg7, monkeypatch):
        monkeypatch.setattr(oracle, "SEARCH_BUDGET", 2)
        assert search_points(cfg7, 2) == search_reference(7, 2)
        with pytest.raises(ValueError, match="search budget of 2$"):
            search_points(cfg7, 3)

    @pytest.mark.parametrize("m0", [*REFERENCE_CURVES, *WIDE_Z_CURVES])
    def test_matches_reference_above_wheel(self, m0):
        # 1009 and 1013 are primes past trial division
        zs = (1009, 1013, 2018)
        points = [p for p in search_points(CurveConfig(m0), 2018) if p.z in zs]
        assert points == [p for z in zs for p in points_at(m0, z)]
        for p in WIDE_Z_CURVES.get(m0, ()):
            assert p in points


class TestTorsionProbe:
    def test_three_torsion(self, cfg1):
        assert torsion_probe(cfg1, CubicPoint(1, 0, 1))
        assert torsion_probe(cfg1, CubicPoint(0, 1, 1))

    def test_two_torsion(self):
        assert torsion_probe(CurveConfig(2), CubicPoint(1, 1, 1))

    def test_identity(self, cfg6):
        assert torsion_probe(cfg6, CubicPoint(1, -1, 0))

    def test_nontorsion_rejected(self, cfg6, gen6):
        assert not torsion_probe(cfg6, gen6)

    def test_nontorsion_small_height_rejected(self, cfg7, gen7):
        # hhat is about 0.13 here: the height test alone would need care,
        # but no multiple up to 12 vanishes
        assert not torsion_probe(cfg7, gen7, tol=0.5)


def package_imports(path):
    """{module: names} for every import of a cubeforge module in a file."""
    found = {}
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("cubeforge"):
                    continue
                module = module.removeprefix("cubeforge").lstrip(".")
            names = {alias.name for alias in node.names}
            found.setdefault(module, set()).update(names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cubeforge"):
                    found.setdefault(alias.name, set()).add("*")
    return found


class TestIndependentOracle:
    """The census arbitrates the construction, so it must not share its code."""

    def test_imports(self):
        imports = package_imports(oracle.__file__)
        for module in ("heights", "construct", "certificate", "cli", ""):
            assert module not in imports, module
        assert imports["curves"] == {"CubicPoint", "CurveConfig"}
        assert set(imports) <= {"curves", "numeric"}
