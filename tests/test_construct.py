"""Divisor control, chain constants, lattice generation, certificates."""

import hashlib
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge import construct, curves, heights
from cubeforge import (
    CubicPoint,
    CurveConfig,
    GeneratorDependenceError,
    build_certificate,
    certificate_to_json,
    density_constant,
    generate_lattice_points,
    minimal_box_size,
    verify_certificate,
    z_size_constant,
)
from cubeforge.construct import (
    CHECK_NAMES,
    derive_lattice,
    divisor_records,
    evaluate_checks,
    height_factor,
    index_set,
    index_set_screen,
    log_m,
    m_factor,
    product_tree,
    representations_from_lattice,
    z_factor,
)
from cubeforge.curves import (
    CUBIC_IDENTITY,
    chord_sums,
    cubic_add,
    is_primitive,
    on_cubic,
)
from cubeforge.heights import canonical_height, independence
from cubeforge.numeric import ApproxReal, log_abs
from tests.conftest import (
    KNOWN_GENERATORS,
    M4253,
    chosen_indices,
    lattice_entries,
    line,
    pool_draws,
)
from tests import loop_reference
from tests.doubling_reference import lattice_height_bound_check
from tests.schema7_reference import schema7_json
from tests.schema9_reference import schema9_json
from tests.schema10_reference import schema10_json

ELKIES_M0 = 13293998056584952174157235


@lru_cache(maxsize=1)
def _full_certificate_6():
    """The m0=6, (17, 37, 21), N=4 certificate: every check true."""
    return build_certificate(CurveConfig(6), [KNOWN_GENERATORS[6]], 4)


class TestDivisorCheck:
    def test_worked_example(self, cfg6):
        d = divisor_records(cfg6, [CubicPoint(17, 37, 21)])[0]
        assert d == 54
        # the cofactors a consumer divides for: d a = 12 m0 z, d b = x + y
        a, b = 12 * 6 * 21 // d, (17 + 37) // d
        assert (a, b) == (28, 1)
        assert d * a == 12 * 6 * 21
        assert d * b == 17 + 37
        # d^2 = 2916 divides 3 * 12^3 * 36 * 1 = 186624 = 64 * 2916, which
        # is the check's d^3 | 5184 * 36 * (17 + 37)
        assert (3 * 12**3 * 36 * b) % d**2 == 0
        assert (5184 * 36 * (17 + 37)) % d**3 == 0
        # the paper's bound 3^(1/3) * 12 * 6^(5/2) * sqrt(21), at 60 digits
        with mpmath.workdps(60):
            bound = mpmath.cbrt(3) * 12 * mpmath.mpf(6) ** 2.5 * mpmath.sqrt(21)
            assert abs(bound - mpmath.mpf("6993.7392707726857")) < 1e-12
            assert d < bound
        # and the exact form the check decides: d^6 < 9 * 12^6 * 6^15 * 21^3
        assert 54**6 < 9 * 12**6 * 6**15 * 21**3

    def test_record_is_exact(self, cfg6, gen6):
        # a divisor record is its gcd: one exact int per point
        records = divisor_records(cfg6, [gen6])
        assert [type(d) for d in records] == [int]

    def test_trivial_gcd(self, cfg7):
        assert divisor_records(cfg7, [CubicPoint(2, -1, 1)]) == [1]

    def test_identity_rejected(self, cfg6):
        with pytest.raises(ValueError):
            divisor_records(cfg6, [CubicPoint(1, -1, 0)])[0]

    def test_cofactors_coprime(self, cfg6, gen6):
        # d is the greatest common divisor: what is left of 12 m0 z and of
        # x + y shares no factor
        for _, q in generate_lattice_points(cfg6, [gen6], line(4)):
            d = divisor_records(cfg6, [q])[0]
            assert d > 0
            assert math.gcd(12 * 6 * q.z // d, (q.x + q.y) // d) == 1

    @pytest.mark.parametrize("m0", [91, 1729])
    def test_records_match_the_formulas(self, m0):
        # the divisor_records docstring, spelled out per point
        cfg = CurveConfig(m0)
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        points = [
            q for _, q in generate_lattice_points(
                cfg, gens, chosen_indices(cfg, gens, 12)
            )
        ]
        expected = [math.gcd(12 * m0 * p.z, p.x + p.y) for p in points]
        assert len(points) == 144
        assert divisor_records(cfg, points) == expected
        assert [divisor_records(cfg, [p])[0] for p in points] == expected

    def test_records_refuse_the_identity(self, cfg6, gen6):
        with pytest.raises(ValueError):
            divisor_records(cfg6, [gen6, CubicPoint(1, -1, 0)])

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 10**7),
        b=st.integers(-(2**64), 2**64),
        x=st.integers(-(2**64), 2**64),
        z=st.integers(1, 10**6),
    )
    def test_lemmas_are_the_papers_forms(self, cfg6, d, b, x, z):
        # the checks on one derived entry (x, y, z) with x + y = d b, its d
        # handed to them in place of divisor_records', beside the paper's
        # forms: d^2 | 3 * 12^3 * m0^2 * b, and
        # d < 3^(1/3) * 12 * |m0|^(5/2) * z^(1/2) at 60 digits
        cert = _full_certificate_6()
        derived = cert._replace(
            lattice_points=[((1,), CubicPoint(x, d * b - x, z))]
        )
        screen = construct._generator_checks(cfg6, cert.generators)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(construct, "divisor_records", lambda *args: [d])
            checks = evaluate_checks(cfg6, cert, screen, True, derived)
        assert checks["divisor_divisibility"] is (
            3 * 12**3 * 6**2 * b % d**2 == 0
        )
        with mpmath.workdps(60):
            bound = mpmath.cbrt(3) * 12 * mpmath.mpf(6) ** 2.5 * mpmath.sqrt(z)
            assert checks["divisor_bound"] is bool(d < bound)

    def test_inflated_d_fails_both_lemmas(self, cfg6, monkeypatch):
        # the lemma checks read the d's of the derived triples: the last
        # one times a 4,253-bit prime divides no 5184 m0^2 (x + y) and
        # passes no bound, and no other check reads a d
        cert = _full_certificate_6()
        assert cert.all_checks_pass

        def inflated(cfg, points):
            *divisors, last = divisor_records(cfg, points)
            return [*divisors, last * M4253]

        monkeypatch.setattr(construct, "divisor_records", inflated)
        screen = construct._generator_checks(cfg6, cert.generators)
        checks = evaluate_checks(cfg6, cert, screen, True, cert)
        assert list(checks) == list(CHECK_NAMES)
        assert [name for name, ok in checks.items() if not ok] == [
            "divisor_divisibility",
            "divisor_bound",
        ]


class TestZSizeConstant:
    def test_frozen_values(self, cfg6, cfg1):
        assert abs(z_size_constant(cfg6).value - 18.462316284596385) < 1e-10
        assert abs(z_size_constant(cfg1).value - 10.698025251274813) < 1e-10

    def test_large_coefficient_curve(self):
        cfg = CurveConfig(ELKIES_M0)
        assert abs(cfg.hb.value - 121.76713537082230) < 1e-9
        assert abs(z_size_constant(cfg).value - 261.37856311352756) < 1e-9


class TestChainFactors:
    def test_rank_one(self):
        assert height_factor(1) == 1
        assert z_factor(1) == 5
        assert m_factor(1) == 16

    def test_rank_eleven(self):
        assert height_factor(11) == 3070
        assert z_factor(11) == 12281
        assert m_factor(11) == 36844

    def test_factor_inequality(self):
        # 4 * height_factor = 3*2^(r+1) - 8 never exceeds z_factor
        for r in range(1, 40):
            assert 4 * height_factor(r) <= z_factor(r) + 1
            assert z_factor(r) < m_factor(r)


def _stepped_absorbs(cfg, rank, hhat_bar, n):
    p, q = hhat_bar.lower().as_integer_ratio()
    cn, cd = z_size_constant(cfg).upper().as_integer_ratio()
    ln, ld = log_abs(cfg.m0).upper().as_integer_ratio()
    return n * n * p * cd >= cn * q and n ** (rank + 2) * p * ld >= ln * q


def _stepped_box_size(cfg, rank, hhat_bar):
    """The step loop minimal_box_size ran before it bisected and then took
    its closed form, kept as the reference: the first n from 1 up that
    absorbs both constants."""
    n = 1
    while not _stepped_absorbs(cfg, rank, hhat_bar, n):
        n += 1
    return n


class TestMinimalBoxSize:
    def test_m0_six(self, cfg6, gen6):
        h = canonical_height(cfg6, gen6, 1e-3)
        assert minimal_box_size(z_size_constant(cfg6), h) == 4

    def test_requires_positive_height(self, cfg6):
        with pytest.raises(ValueError):
            minimal_box_size(z_size_constant(cfg6), ApproxReal(0.001, 0.01))

    def test_decided_exactly(self, cfg6):
        # the float 25 h rounds up to the upper end of c, while the exact
        # product stays below it: N = 5 does not absorb c, N = 6 does
        h = 0.7384926513838569
        c = z_size_constant(cfg6)
        c_up = c.upper()
        assert 25 * h == c_up
        p, q = h.as_integer_ratio()
        a, b = c_up.as_integer_ratio()
        assert 25 * p * b < a * q <= 36 * p * b
        assert minimal_box_size(c, ApproxReal(h, 0.0)) == 6

    @settings(max_examples=150, deadline=None)
    @given(
        m0=st.sampled_from([6, 91, 1729]),
        rank=st.integers(1, 11),
        value=st.floats(1e-5, 1e3),
        relative=st.floats(0.0, 0.5),
    )
    def test_closed_form_matches_the_step_loop(self, m0, rank, value, relative):
        # the step loop decides both conditions, so this also checks that
        # c <= N^2 hhat implies log |m0| <= N^(r+2) hhat
        cfg = CurveConfig(m0)
        hhat_bar = ApproxReal(value, value * relative)
        assert minimal_box_size(
            z_size_constant(cfg), hhat_bar
        ) == _stepped_box_size(cfg, rank, hhat_bar)

    def test_tiny_height_answers_at_once(self, cfg6):
        # the doubling search stopped at a cap of 10^6 here; N is about
        # 10^151, far past any box the step loop could reach
        h = ApproxReal(1e-300, 0.0)
        start = time.perf_counter()
        n = minimal_box_size(z_size_constant(cfg6), h)
        assert time.perf_counter() - start < 0.01
        assert _stepped_absorbs(cfg6, 2, h, n)
        assert not _stepped_absorbs(cfg6, 2, h, n - 1)

    def test_answer_at_the_cap(self, cfg6):
        # 10^6 was the largest N the doubling search returned; one more
        # is now an answer too
        c = z_size_constant(cfg6)
        at_cap = ApproxReal(c.upper() / 10**12, 0.0)
        assert _stepped_absorbs(cfg6, 1, at_cap, 10**6)
        assert not _stepped_absorbs(cfg6, 1, at_cap, 10**6 - 1)
        assert minimal_box_size(c, at_cap) == 10**6
        below_cap = ApproxReal(c.upper() / 10**12 * (1 - 1e-6), 0.0)
        assert _stepped_absorbs(cfg6, 1, below_cap, 10**6 + 1)
        assert not _stepped_absorbs(cfg6, 1, below_cap, 10**6)
        assert minimal_box_size(c, below_cap) == 10**6 + 1

    def test_chain_constants_bundle(self, cfg6, gen6):
        # the values schema "10" stored as its constants object, each from
        # the function verify calls for it
        h = canonical_height(cfg6, gen6, 1e-3)
        assert (height_factor(1), z_factor(1), m_factor(1)) == (1, 5, 16)
        assert minimal_box_size(z_size_constant(cfg6), h) == 4
        assert z_size_constant(cfg6).contains(18.462316284596385)


class TestDensityConstant:
    def test_corollary_value(self):
        from cubeforge.numeric import ApproxReal, log_abs

        c = density_constant(11, ApproxReal.from_decimal("60.1755"))
        assert c.contains(4.2705947526153380e-06)
        assert c.lower() >= 4.2e-06
        assert c.radius < 1e-15


class TestLatticeGeneration:
    def test_lex_order_and_values(self, cfg6, gen6):
        lattice = generate_lattice_points(cfg6, [gen6], line(3))
        assert [idx for idx, _ in lattice] == [(1,), (2,), (3,)]
        assert lattice[0][1] == gen6
        assert lattice[1][1] == CubicPoint(2237723, -1805723, 960540)
        for _, q in lattice:
            assert q.z > 0

    def test_torsion_hits_identity(self, cfg1):
        with pytest.raises(GeneratorDependenceError):
            generate_lattice_points(cfg1, [CubicPoint(1, 0, 1)], line(3))

    def test_dependent_pair_collides(self, cfg6, gen6):
        # with generators 2P and P the combinations (1, 1) and (2, -1) both
        # land on 3P; no index in [1..3] x [-1..1] reaches the identity
        double = CubicPoint(2237723, -1805723, 960540)
        indices = list(itertools.product(range(1, 4), range(-1, 2)))
        with pytest.raises(GeneratorDependenceError, match="collide"):
            generate_lattice_points(cfg6, [double, gen6], indices)

    def test_dependent_pair_hits_identity(self, cfg6, gen6):
        # combination (2, -1) of P and 2P is the identity
        double = CubicPoint(2237723, -1805723, 960540)
        with pytest.raises(GeneratorDependenceError, match="identity"):
            generate_lattice_points(cfg6, [gen6, double], [(1, 0), (2, -1)])

    @pytest.mark.parametrize(
        "order, indices",
        [
            ("2P,P", list(itertools.product(range(1, 4), range(-1, 2)))),
            ("P,2P", list(itertools.product(range(-1, 2), range(1, 4)))),
            ("P,2P", [(1, 0), (2, -1)]),
            ("P,2P", [(1, 1), (0, 1), (-2, 1)]),
            ("P,2P", [(4, -2), (2, -1)]),
        ],
        ids=["collide", "collide-flipped", "identity", "identity-negated",
             "identity-from-the-tables"],
    )
    def test_dependence_message_is_the_references(self, cfg6, gen6, order,
                                                  indices):
        # P with 2P, in both orders: the collision above and its mirror,
        # the identity above, its negation, and (4, -2), which sums the
        # tables' 4P and -4P; each raises with the message of the
        # reduce(cubic_add) reference
        double = CubicPoint(2237723, -1805723, 960540)
        gens = [double, gen6] if order == "2P,P" else [gen6, double]
        with pytest.raises(GeneratorDependenceError) as info:
            generate_lattice_points(cfg6, gens, indices)
        with pytest.raises(GeneratorDependenceError) as expected:
            loop_reference.lattice_points(cfg6, gens, indices)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize(
        "m0, box_size",
        [(91, 8), (91, 12), (1729, 8), (1729, 12), (657, 4), (152551, 3)],
    )
    def test_matches_the_reduce_reference(self, m0, box_size):
        # the pass against one reduce(cubic_add) per index, on the chosen
        # index set and on its negation; cubic_add's first formulas give
        # sums with z of either sign (115 of the 253 at N = 12 on the two
        # pool curves have z < 0)
        cfg = CurveConfig(m0)
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        indices = chosen_indices(cfg, gens, box_size)
        for idx in (indices, [tuple(-k for k in n) for n in indices]):
            assert generate_lattice_points(cfg, gens, idx) == (
                loop_reference.lattice_points(cfg, gens, idx)
            )

    def test_rank_two_box_shape(self, cfg6, gen6):
        from tests.group_reference import cubic_smul

        # P and 3P collide nowhere on these indices, so the mechanics of a
        # rank-2 index list (its order kept, zero coordinates skipped,
        # negative multiples) can be exercised on a rank-1 curve
        other = cubic_smul(cfg6, 3, gen6)
        indices = [(2, -1), (0, 1), (1, -1), (1, 0), (0, 2)]
        lattice = generate_lattice_points(cfg6, [gen6, other], indices)
        assert [idx for idx, _ in lattice] == indices
        assert [q for _, q in lattice] == [
            cubic_smul(cfg6, k, gen6) for k in (-1, 3, -2, 1, 6)
        ]

    def test_one_addition_per_point_at_rank_two(self, monkeypatch):
        # the tables of multiples reach the largest |n_i| used, and each
        # point adds only its nonzero coordinates: every addition, in the
        # tables or in the pass, is one cubic_add
        cfg = CurveConfig(91)
        indices = chosen_indices(cfg, _POOL_91, 8)
        reach = [max(abs(n[i]) for n in indices) for i in range(2)]
        both = sum(1 for n in indices if all(n))
        calls = Counter()
        original = curves.cubic_add

        def counting(*args):
            calls["cubic_add"] += 1
            return original(*args)

        monkeypatch.setattr(curves, "cubic_add", counting)
        monkeypatch.setattr(construct, "cubic_add", counting)
        generate_lattice_points(cfg, list(_POOL_91), indices)
        assert calls["cubic_add"] == both + sum(max(k - 1, 0) for k in reach)
        assert both <= len(indices) == 64

    @pytest.mark.parametrize(
        "m0, box_size, memoized, term_by_term",
        [(657, 4, 61, 86), (152551, 3, 77, 140), (152551, 6, 1314, 3046)],
    )
    def test_partial_sums_are_shared_by_prefix(
        self, monkeypatch, m0, box_size, memoized, term_by_term
    ):
        # the tables, one addition per distinct prefix n_1..n_j (2 <= j < r)
        # whose n_j and an earlier coordinate are nonzero, and one per point
        # whose n_r and an earlier coordinate are nonzero; adding each point
        # term by term would take one per nonzero coordinate but the first
        cfg = CurveConfig(m0)
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        indices = chosen_indices(cfg, gens, box_size)
        rank = len(gens)
        tables = sum(
            max(max(abs(n[i]) for n in indices) - 1, 0) for i in range(rank)
        )
        prefixes = {n[:j] for n in indices for j in range(2, rank)}
        joins = sum(1 for p in prefixes if p[-1] and any(p[:-1]))
        ends = sum(1 for n in indices if n[-1] and any(n[:-1]))
        each = sum(max(sum(1 for k in n if k) - 1, 0) for n in indices)
        calls = Counter()
        original = curves.cubic_add

        def counting(*args):
            calls["cubic_add"] += 1
            return original(*args)

        monkeypatch.setattr(construct, "cubic_add", counting)
        lattice = generate_lattice_points(cfg, gens, indices)
        assert calls["cubic_add"] == tables + joins + ends == memoized
        assert tables + each == term_by_term
        assert lattice == loop_reference.lattice_points(cfg, gens, indices)

    def test_zero_index_is_refused(self, cfg6, gen6):
        with pytest.raises(ValueError, match="zero index"):
            generate_lattice_points(cfg6, [gen6], [(1,), (0,)])

    @pytest.mark.parametrize("box_size", [1, 2, 3, 4, 7, 8])
    def test_index_set(self, box_size):
        # on real Gram matrices of rank 1 to 4 (rank 4 up to N = 3, where
        # the Fraction brute force stays cheap): the brute-force sort, N^r
        # indices in lex order, every one passing the verifier's screen, and
        # no larger a summed height than schema "5"'s centred set or random
        # valid sets (up to the rounding of the float terms ranked)
        rng = random.Random(box_size)
        curves = (6, 91, 657, 152551) if box_size <= 3 else (6, 91, 657)
        for m0 in curves:
            gram = real_gram(m0)
            rank = len(gram)
            chosen = index_set(gram, box_size)
            assert chosen == brute_index_set(gram, box_size)
            assert len(chosen) == box_size**rank
            assert chosen == sorted(chosen)
            assert index_set_screen(chosen, box_size)
            best = set_height(gram, chosen) * (1 - Fraction(1, 10**12))
            assert best <= set_height(gram, centred_set(rank, box_size))
            half = half_space(rank, box_size)
            for _ in range(5):
                assert best <= set_height(gram, rng.sample(half, box_size**rank))

    @pytest.mark.parametrize(
        "indices, passes",
        [
            ([(1, 0), (0, 1), (1, 1), (1, -1)], True),
            ([(1, 0), (0, 0), (1, 1), (1, -1)], False),  # zero
            ([(1, 0), (-1, 0), (1, 1), (1, -1)], False),  # a pair n, -n
            ([(1, 0), (1, 0), (1, 1), (1, -1)], False),  # repeated
            ([(1, 0), (0, 1), (3, 1), (1, -1)], False),  # |n_i| = N + 1
            ([(1, 0), (0, 1), (1, 1), (1, -3)], False),
        ],
        ids=["valid", "zero", "pair", "repeated", "beyond-N", "beyond-minus-N"],
    )
    def test_index_set_screen(self, indices, passes):
        assert index_set_screen(indices, 2) is passes

    def test_representations_identity(self, cfg6, gen6):
        lattice = generate_lattice_points(cfg6, [gen6], line(2))
        z_total = product_tree([q.z for _, q in lattice])
        reps = representations_from_lattice(lattice, z_total)
        m = cfg6.m0 * z_total**3
        assert m == 6 * 20171340**3 == 49244246842992972624000
        assert reps == [(16329180, 35539980), (46992183, -37920183)]
        for x, y in reps:
            assert x**3 + y**3 == m


class TestProductTree:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 7, 16, 17])
    def test_equals_sequential_product(self, length):
        factors = [(-1) ** k * (3**k + 2 * k + 1) for k in range(length)]
        assert product_tree(factors) == math.prod(factors)

    @pytest.mark.parametrize("box_size", [1, 2, 5, 12])
    def test_lattice_z_product(self, box_size):
        # N^r factors of growing size, one negated to cover the sign
        cfg = CurveConfig(91)
        lattice = generate_lattice_points(
            cfg, list(_POOL_91), chosen_indices(cfg, _POOL_91, box_size)
        )
        zs = [q.z for _, q in lattice]
        zs[len(zs) // 2] *= -1
        assert len(zs) == box_size**2
        assert product_tree(zs) == math.prod(zs)


class TestBuildCertificate:
    def test_small_box_below_threshold(self, cfg6, gen6):
        cert = build_certificate(cfg6, [gen6], 2)
        assert cert.m == 49244246842992972624000
        assert cert.representations == [
            (16329180, 35539980),
            (46992183, -37920183),
        ]
        assert minimal_box_size(z_size_constant(cfg6), cert.hhat_bar) == 4
        assert not cert.checks["theorem_preconditions"]
        failing = {k for k, v in cert.checks.items() if not v}
        assert failing == {"theorem_preconditions"}

    @pytest.mark.parametrize("box_size", [20, 24])
    def test_large_boxes_certify(self, cfg6, gen6, box_size):
        # z of 20P already exceeds e^1418, past any float
        cert = build_certificate(cfg6, [gen6], box_size)
        assert list(cert.checks) == list(CHECK_NAMES)
        assert cert.all_checks_pass
        report = verify_certificate(certificate_to_json(cert))
        assert report.all_checks_pass
        assert report.checks == cert.checks

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-3])
    def test_rejects_a_tol_the_parser_refuses(self, cfg6, gen6, tol):
        # JSON has no Infinity, so a certificate built at tol=inf could
        # never be verified
        with pytest.raises(ValueError, match="tol must be positive"):
            build_certificate(cfg6, [gen6], 4, tol)

    def test_box_at_threshold_all_pass(self, cfg6, gen6):
        cert = build_certificate(cfg6, [gen6], 4)
        assert cert.all_checks_pass
        assert cert.checks["final_inequality"]
        bound = density_constant(
            cert.rank, ApproxReal.exact(cert.hhat_bar.upper())
        ) * log_m(cert.m0, cert.Z).pow_ratio(cert.rank, cert.rank + 2)
        assert cert.box_size ** cert.rank > bound.upper()
        assert len(cert.representations) == 4

    def test_rejects_empty(self, cfg6):
        with pytest.raises(ValueError):
            build_certificate(cfg6, [], 2)

    def test_rejects_identity(self, cfg6):
        with pytest.raises(ValueError):
            build_certificate(cfg6, [CubicPoint(1, -1, 0)], 2)

    def test_rejects_off_curve(self, cfg6):
        with pytest.raises(ValueError):
            build_certificate(cfg6, [CubicPoint(1, 1, 1)], 2)

    def test_rejects_imprimitive(self, cfg6):
        with pytest.raises(ValueError):
            build_certificate(cfg6, [CubicPoint(34, 74, 42)], 2)

    def test_rejects_bad_box(self, cfg6, gen6):
        with pytest.raises(ValueError):
            build_certificate(cfg6, [gen6], 0)

    def test_rejects_torsion(self, cfg1):
        with pytest.raises(GeneratorDependenceError):
            build_certificate(cfg1, [CubicPoint(1, 0, 1)], 2)


# generator sets by curve: the benchmark pool, the rank-3 set and the two
# rank-4 sets of the cube-free-part sieve
_SETS = {
    91: ((-5, 6, 1), (3, 4, 1)),
    1729: ((1, 12, 1), (9, 10, 1)),
    657: ((-7, 10, 1), (7, 17, 2), (-2890, 2971, 147)),
    152551: ((54, -17, 1), (55, -24, 1), (226, -225, 1), (705, -668, 7)),
    526535: ((207, -167, 2), (323, -3, 4), (363, 262, 5), (633, -418, 7)),
}


class TestLatticeHeightBound:
    def test_holds_for_small_boxes(self, cfg6, gen6):
        assert lattice_height_bound_check(cfg6, [gen6], 3)

    def test_holds_on_second_curve(self, cfg7, gen7):
        assert lattice_height_bound_check(cfg7, [gen7], 3)

    def test_holds_at_rank_two(self):
        gens = [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)]
        assert lattice_height_bound_check(CurveConfig(91), gens, 2)

    # schema "5"'s centred index set: the bound holds on any set in the box
    @pytest.mark.parametrize(
        "m0, box_size",
        [(91, 4), (657, 4), (152551, 2)],
        ids=["rank2", "rank3", "rank4"],
    )
    def test_holds_on_the_centred_set(self, m0, box_size):
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        assert lattice_height_bound_check(
            CurveConfig(m0), gens, box_size, centred_set(len(gens), box_size)
        )

    # the chosen index set, whose negative indices the box never had
    @pytest.mark.parametrize(
        "m0, box_size",
        [(91, 4), (657, 4), (152551, 2)],
        ids=["rank2", "rank3", "rank4"],
    )
    def test_holds_on_the_chosen_set(self, m0, box_size):
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        indices = chosen_indices(CurveConfig(m0), gens, box_size)
        assert any(min(idx) < 0 for idx in indices)
        assert lattice_height_bound_check(CurveConfig(m0), gens, box_size)

    def test_refuted_by_a_zero_bound(self, cfg6, gen6, monkeypatch):
        # with height factor 0 every nonzero lattice point exceeds the bound
        monkeypatch.setattr(construct, "height_factor", lambda rank: 0)
        assert not lattice_height_bound_check(cfg6, [gen6], 3)


class TestChainOnTheIndexSet:
    """z_factor's bound on real lattices over the chosen index set."""

    @pytest.mark.parametrize(
        "m0, box_size, tol",
        [(91, 12, 1e-3), (91, 8, 1e-4), (1729, 12, 1e-3), (1729, 8, 1e-4),
         (657, 6, 1e-3), (152551, 6, 1e-3), (526535, 6, 1e-3)],
    )
    def test_z_sum_bound(self, m0, box_size, tol):
        # sum log z_n <= z_factor N^(r+2) hhat, against the lower end of
        # hhat, at N >= n_min on the set build chooses
        cfg = CurveConfig(m0)
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        rank = len(gens)
        gram, _ = heights.independence(cfg, gens, tol)
        hhat_bar = max((gram[i][i].ldexp(-1) for i in range(rank)),
                       key=lambda h: h.upper())
        assert box_size >= minimal_box_size(z_size_constant(cfg), hhat_bar)
        lattice = generate_lattice_points(
            cfg, gens, index_set(gram, box_size)
        )
        z_sum = sum(
            (log_abs(q.z) for _, q in lattice), start=ApproxReal(0.0, 0.0)
        )
        bound = ApproxReal.from_int(z_factor(rank) * box_size ** (rank + 2))
        assert z_sum.upper() <= (bound * hhat_bar).lower()


class TestDerivedOnce:
    """Build and verify each run the derivation once per process."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = Counter()
        for module, name in (
            (heights, "canonical_height"),
            (construct, "generate_lattice_points"),
            (construct, "_generator_checks"),
            (construct, "independence"),
        ):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_rank_two_build_and_verify(self, calls):
        # rank 2 needs hhat(P1), hhat(P2) and hhat(P1 + P2), nothing more;
        # the generator checks screen the run and enter its check map from
        # one call
        cfg = CurveConfig(91)
        cert = build_certificate(
            cfg, [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], 2
        )
        # N = 2 is below the minimal box size 8, which is all that fails
        failing = {k for k, ok in cert.checks.items() if not ok}
        assert failing == {"theorem_preconditions"}
        assert calls == {
            "canonical_height": 3,
            "generate_lattice_points": 1,
            "_generator_checks": 1,
            "independence": 1,
        }
        calls.clear()
        report = verify_certificate(certificate_to_json(cert))
        assert report.checks == cert.checks
        # the stored lattice passes the chord proof, so verify derives none
        assert calls == {
            "canonical_height": 3,
            "_generator_checks": 1,
            "independence": 1,
        }
        # after a failed chord (the last entry negated) it derives once
        doc = json.loads(certificate_to_json(cert))
        with lattice_entries(doc) as lattice:
            lattice[-1]["point"][:2] = lattice[-1]["point"][1::-1]
        calls.clear()
        report = verify_certificate(doc)
        assert not report.checks["lattice_points_match"]
        assert calls == {
            "canonical_height": 3,
            "generate_lattice_points": 1,
            "_generator_checks": 1,
            "independence": 1,
        }

    def test_rank_two_verify_adds_only_for_the_tables(self, monkeypatch):
        # verify's cubic_add calls at rank 2 are the tables of multiples,
        # sum of max(max|n_i| - 1, 0), and independence's own: no lattice
        # point is added
        cfg = CurveConfig(91)
        cert = build_certificate(cfg, list(_POOL_91), 12)
        text = certificate_to_json(cert)
        calls = Counter()

        def counting(*args, _original=curves.cubic_add):
            calls["cubic_add"] += 1
            return _original(*args)

        for module in (curves, construct, heights):
            monkeypatch.setattr(module, "cubic_add", counting)
        independence(cfg, list(_POOL_91), cert.tol)
        own = calls["cubic_add"]
        calls.clear()
        assert verify_certificate(text).all_checks_pass
        indices = [idx for idx, _ in cert.lattice_points]
        tables = sum(
            max(max(abs(n[i]) for n in indices) - 1, 0) for i in range(2)
        )
        assert calls["cubic_add"] == tables + own == 24

    @pytest.mark.parametrize(
        "m0, box_size, failing",
        [
            (657, 4, set()),
            # N = 3 is below this curve's n_min = 6, which is all that fails
            (152551, 3, {"theorem_preconditions"}),
            (152551, 6, set()),
        ],
    )
    def test_ranks_three_and_four_verify_without_deriving(
        self, calls, m0, box_size, failing
    ):
        cfg = CurveConfig(m0)
        cert = build_certificate(
            cfg, [CubicPoint(*g) for g in _SETS[m0]], box_size
        )
        calls.clear()
        report = verify_certificate(certificate_to_json(cert))
        assert report.checks == cert.checks
        assert {k for k, ok in report.checks.items() if not ok} == failing
        assert calls["generate_lattice_points"] == 0


def _derivation_checks(cfg, cert):
    """verify_checks with the chord proof refused: the derivation path,
    which derives the lattice with cubic_add and compares."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "lattice_proved_by_chords", _refuse)
        return construct.verify_checks(cfg, cert)


def _refuse(*args):
    return False


# the documents the verdict-equivalence test tampers with: the pool pairs
# in all four draws at N = 2..4, the rank-1 m0=6 line and the rank-3 set
_EQUIVALENCE_BASES = [
    (m0, tuple(map(tuple, draw)), box_size)
    for m0 in (91, 1729)
    for draw in pool_draws(_SETS[m0])
    for box_size in (2, 3, 4)
] + [(6, ((17, 37, 21),), box_size) for box_size in (2, 3, 4)] + [
    (657, _SETS[657], box_size) for box_size in (2, 3)
]

_TAMPERS = (
    "swap-x-y", "copy-entry", "identity", "double", "negate-index",
    "swap-generator", "repeat-first-generator",
)


@lru_cache(maxsize=None)
def _equivalence_base(m0, generators, box_size):
    return build_certificate(
        CurveConfig(m0), [CubicPoint(*g) for g in generators], box_size
    )


def _tampered(cert, tamper, entry, other, coordinate):
    """cert with one tamper applied to its lattice entry or generators,
    each picked by the integers given, modulo the counts."""
    lattice, gens = list(cert.lattice_points), list(cert.generators)
    rank = len(gens)
    entry, other = entry % len(lattice), other % len(lattice)
    idx, q = lattice[entry]
    if tamper == "swap-x-y":
        lattice[entry] = (idx, q.neg())
    elif tamper == "copy-entry":
        lattice[entry] = (idx, lattice[other][1])
    elif tamper == "identity":
        lattice[entry] = (idx, CUBIC_IDENTITY)
    elif tamper == "double":
        lattice[entry] = (idx, CubicPoint(*(2 * c for c in q)))
    elif tamper == "negate-index":
        flipped = list(idx)
        flipped[coordinate % rank] *= -1
        lattice[entry] = (tuple(flipped), q)
    elif tamper == "swap-generator":
        gens[coordinate % rank] = gens[coordinate % rank].neg()
    elif rank > 1:  # the first generator repeated in another slot
        gens[1 + coordinate % (rank - 1)] = gens[0]
    return cert._replace(generators=gens, lattice_points=lattice, checks={})


def _with_stored_sums(cfg, generators, indices):
    """A rank-r, N = 2 certificate whose lattice holds the sums of each
    index's lattice_terms, formed whether or not derivation would raise."""
    gram, _ = independence(cfg, generators, 1e-3)
    lattice = [
        (idx, b if a is None else a if b is None else cubic_add(cfg, a, b))
        for idx, a, b in zip(
            indices, *construct.lattice_terms(cfg, generators, indices)
        )
    ]
    with pytest.raises(GeneratorDependenceError):
        generate_lattice_points(cfg, generators, indices)
    cert = derive_lattice(cfg, generators, gram, indices, 2, 1e-3)
    return cert._replace(lattice_points=lattice, Z=1)


class TestChordProof:
    """verify takes the stored lattice as the derived one only when the
    chord proof holds, and every check map is the derivation's."""

    @pytest.fixture()
    def derivations(self, monkeypatch):
        counts = Counter()
        original = construct.generate_lattice_points

        def counting(*args):
            counts["generate_lattice_points"] += 1
            return original(*args)

        monkeypatch.setattr(construct, "generate_lattice_points", counting)
        return counts

    @given(
        st.sampled_from(_EQUIVALENCE_BASES),
        st.sampled_from(_TAMPERS),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdicts_equal_the_derivation_path(
        self, base, tamper, entry, other, coordinate
    ):
        cert = _tampered(_equivalence_base(*base), tamper, entry, other,
                         coordinate)
        cfg = CurveConfig(cert.m0)
        assert construct.verify_checks(cfg, cert) == _derivation_checks(
            cfg, cert
        )

    def _named(self, case):
        """The certificate of one named case, and whether the chord proof
        holds on it."""
        if case == "equal-terms":
            # generators P, P: the entry (1, 1) has A = B = P, and its
            # stored 2P is right, but no line is defined, so verify derives;
            # the derived lattice has no collision and matches
            cfg = CurveConfig(91)
            gens = [_POOL_91[0], _POOL_91[0]]
            indices = [(1, 1), (1, 2), (2, 2), (1, -2)]
            gram, _ = independence(cfg, gens, 1e-3)
            return derive_lattice(cfg, gens, gram, indices, 2, 1e-3), False
        if case.startswith("identity-partial-sum"):
            # generators P1, -P1, P3: the prefix (1, 1) sums to O, and the
            # line through O and P3 proves O + P3 = P3; the negated entry
            # fails the chord and is derived
            cfg = CurveConfig(657)
            p1, _, p3 = (CubicPoint(*g) for g in _SETS[657])
            gens = [p1, p1.neg(), p3]
            indices = [(1, 1, 1), (1, 1, 2), (1, 0, 1), (2, 0, 1),
                       (1, 0, 2), (2, 0, 2), (1, 0, -1), (2, 0, -1)]
            gram, _ = independence(cfg, gens, 1e-3)
            cert = derive_lattice(cfg, gens, gram, indices, 2, 1e-3)
            assert cert.lattice_points[0][1] == p3
            if case.endswith("negated"):
                return _tampered(cert, "swap-x-y", 0, 0, 0), False
            return cert, True
        if case == "collision":
            # generators P, 2P: (2, 0) and (0, 1) both sum to 2P, and each
            # stored sum is right, but two equal triples fail the screen,
            # and derivation raises on the collision
            cfg = CurveConfig(6)
            p = KNOWN_GENERATORS[6]
            gens = [p, cubic_add(cfg, p, p)]
            return _with_stored_sums(cfg, gens, [(1, 0), (2, 0), (0, 1),
                                                 (1, 1)]), False
        if case == "torsion-identity":
            # (1, 1, 1) has order 2 on x^3 + y^3 = 2 z^3: the stored O at
            # (2,) is the derived term, but z = 0 fails the screen, and
            # derivation raises on the identity
            return _with_stored_sums(
                CurveConfig(2), [CubicPoint(1, 1, 1)], [(1,), (2,)]
            ), False
        cert = _equivalence_base(91, _SETS[91], 2)
        assert cert.lattice_points[-1][0] == (1, 1)
        if case == "minus-q-is-a-term":
            # (1, 1) stored as -P1: -Q = P1 = A lies on the line AB
            return cert._replace(lattice_points=cert.lattice_points[:-1] + [
                ((1, 1), _POOL_91[0].neg())
            ]), False
        # a stored identity fails the screen z > 0
        return _tampered(cert, "identity", -1, 0, 0), False

    @pytest.mark.parametrize(
        "case",
        ["equal-terms", "minus-q-is-a-term", "identity-partial-sum",
         "identity-partial-sum-negated", "stored-identity", "collision",
         "torsion-identity"],
    )
    def test_named_fallbacks(self, derivations, case):
        cert, proved = self._named(case)
        cfg = CurveConfig(cert.m0)
        derivations.clear()
        checks = construct.verify_checks(cfg, cert)
        assert derivations["generate_lattice_points"] == (0 if proved else 1)
        assert checks == _derivation_checks(cfg, cert)
        assert checks["lattice_points_match"] is (
            case in ("equal-terms", "identity-partial-sum")
        )

    def test_a_huge_point_on_the_chord_is_refused_by_its_size(self):
        # the swap of C = A + 2^2,000,000 B lies on the line AB with z > 0,
        # is no stored triple and no term, so only the size screen refuses
        # it; cubing it for lattice_on_curve would take most of a second
        cfg = CurveConfig(91)
        cert = build_certificate(cfg, list(_POOL_91), 8, 1e-4)
        assert cert.all_checks_pass
        indices = [idx for idx, _ in cert.lattice_points]
        entry = next(k for k, n in enumerate(indices) if all(n))
        heads, lasts = construct.lattice_terms(cfg, cert.generators, indices)
        a, b = heads[entry], lasts[entry]
        c = CubicPoint(*(s + (t << 2_000_000) for s, t in zip(a, b)))
        assert chord_sums([a], [b], [c.neg()])
        doc = json.loads(certificate_to_json(cert))
        with lattice_entries(doc) as lattice:
            lattice[entry]["point"] = list(map(hex, c.neg()))
        text = json.dumps(doc)
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            report = verify_certificate(text)
            seconds.append(time.perf_counter() - start)
        assert {k for k, ok in report.checks.items() if not ok} == {
            "lattice_points_match",
            "divisor_records_match",
            "representations_match_formula",
            "representation_identity",
        }
        assert min(seconds) < 0.1
        # and the huge triple is never cubed, which the timing alone cannot
        # tell on a fast host
        powers = []

        class Counted(int):
            def __pow__(self, exponent, modulo=None):
                powers.append(exponent)
                return int.__pow__(self, exponent, modulo)

        lattice = list(report.lattice_points)
        lattice[entry] = (lattice[entry][0],
                          CubicPoint(*map(Counted, c.neg())))
        assert construct.verify_checks(
            cfg, report._replace(lattice_points=lattice, checks={})
        ) == report.checks
        assert powers == []


class TestPerPointPasses:
    """Each pass over the lattice does only that point's arithmetic."""

    @pytest.mark.parametrize(
        "tamper, expected",
        [
            ("doubled-point", {"lattice_points_match": False,
                               "m_matches_product": True,
                               "log_m_consistency": True}),
            ("Z-doubled", {"m_matches_product": False,
                           "log_m_consistency": False}),
            ("Z-plus-one", {"m_matches_product": False,
                            "log_m_consistency": True}),
        ],
        ids=["doubled-point", "Z-doubled", "Z-plus-one"],
    )
    def test_log_m_consistency_on_a_tampered_document(self, tamper, expected):
        # log_m_consistency meets log m of the stored Z with log m of the
        # derived Z, the product of the derived z_n: a wrong lattice point
        # with Z kept shows in lattice_points_match, a wrong Z in
        # m_matches_product, and only a Z off by more than the enclosures'
        # width in log_m_consistency too
        cert = build_certificate(CurveConfig(91), list(_POOL_91), 8)
        doc = json.loads(certificate_to_json(cert))
        if tamper == "doubled-point":
            q = cert.lattice_points[-1][1]
            assert q.z > 1
            with lattice_entries(doc) as lattice:
                lattice[-1]["point"] = list(
                    map(hex, cubic_add(CurveConfig(91), q, q))
                )
        elif tamper == "Z-doubled":
            doc["Z"] = hex(cert.Z * 2)
        else:
            doc["Z"] = hex(cert.Z + 1)
        checks = verify_certificate(json.dumps(doc)).checks
        assert list(checks) == list(CHECK_NAMES)
        assert {k: checks[k] for k in expected} == expected

    @pytest.mark.parametrize(
        "tamper, on_curve, primitive",
        [
            (lambda q: CubicPoint(-q.x, -q.y, -q.z), True, False),
            (lambda q: CubicPoint(2 * q.x, 2 * q.y, 2 * q.z), True, False),
            (lambda q: CubicPoint(q.x + 1, q.y, q.z), False, True),
            (lambda q: CUBIC_IDENTITY, True, True),
            (lambda q: CubicPoint(2, -2, 0), True, False),
            (lambda q: CubicPoint(0, 0, 0), False, False),
        ],
        ids=["z-negative", "scaled", "off-curve", "identity", "at-infinity",
             "zero"],
    )
    def test_lattice_checks_are_the_per_point_rules(
        self, tamper, on_curve, primitive
    ):
        # the column passes against on_cubic and is_primitive point by
        # point, on a derived lattice with one point replaced
        cfg = CurveConfig(91)
        cert = build_certificate(cfg, list(_POOL_91), 8)
        screen = construct._generator_checks(cfg, cert.generators)
        lattice = list(cert.lattice_points)
        idx, q = lattice[5]
        lattice[5] = (idx, tamper(q))
        checks = evaluate_checks(
            cfg, cert, screen, True, cert._replace(lattice_points=lattice)
        )
        points = [q for _, q in lattice]
        assert checks["lattice_on_curve"] is all(
            on_cubic(cfg, *q) for q in points
        )
        assert checks["lattice_primitive"] is all(map(is_primitive, points))
        assert (checks["lattice_on_curve"], checks["lattice_primitive"]) == (
            on_curve, primitive
        )

    def test_interval_count_does_not_grow_with_the_lattice(self, monkeypatch):
        # the heights and the constants form a fixed number of intervals
        # and take a fixed number of logs; the passes over the N^r points
        # form and take none
        count = Counter()
        original = ApproxReal.__init__
        original_log = math.log

        def counting(self, *args):
            count["intervals"] += 1
            original(self, *args)

        def counting_log(*args):
            count["logs"] += 1
            return original_log(*args)

        monkeypatch.setattr(ApproxReal, "__init__", counting)
        monkeypatch.setattr(math, "log", counting_log)
        built, verified = [], []
        for box_size in (8, 12, 16):
            count.clear()
            cert = build_certificate(CurveConfig(91), list(_POOL_91), box_size)
            built.append((count["intervals"], count["logs"]))
            document = certificate_to_json(cert)
            count.clear()
            report = verify_certificate(document)
            verified.append((count["intervals"], count["logs"]))
            assert cert.all_checks_pass and report.all_checks_pass
        assert len(set(built)) == 1, built
        assert len(set(verified)) == 1, verified


class TestExactChain:
    """chain_bound and final_inequality are one exact comparison,
    log m < K N^(r+2) hhat_up, at the upper end of log m, read as
    log |m0| + 3 log Z from the stored Z."""

    @pytest.mark.parametrize("step, holds", [(-1, False), (0, False), (1, True)])
    def test_decided_at_the_upper_end_of_log_m(self, cfg6, gen6, step, holds):
        cert = build_certificate(cfg6, [gen6], 4)
        assert cert.all_checks_pass
        # K N^(r+2) = 16 * 4^3 = 1024, a power of two, so 1024 h is exact
        assert m_factor(1) * 4**3 == 1024
        log_m_up = log_m(cert.m0, cert.Z).upper()
        h = log_m_up / 1024
        if step:
            h = math.nextafter(h, step * math.inf)
        # step -1 is the largest float h with 1024 h < log m's upper end
        assert (1024 * h > log_m_up) == holds
        assert (1024 * h < log_m_up) == (step < 0)
        derived = cert._replace(hhat_bar=ApproxReal(h, 0.0))
        screen = construct._generator_checks(cfg6, cert.generators)
        checks = evaluate_checks(cfg6, cert, screen, True, derived)
        assert checks["chain_bound"] is holds
        assert checks["final_inequality"] is holds


def gram_of(entries: dict[tuple[int, int], float], rank: int):
    """A symmetric Gram matrix with the given G_ij, i <= j, and zero
    elsewhere, each a midpoint with radius 1e-3."""
    gram = [[ApproxReal(0.0, 1e-3)] * rank for _ in range(rank)]
    for (i, j), value in entries.items():
        gram[i][j] = gram[j][i] = ApproxReal(value, 1e-3)
    return gram


def half_space(rank, box_size):
    """Every n in [-N..N]^r whose first nonzero coordinate is positive,
    filtered from the whole box."""
    span = range(-box_size, box_size + 1)
    return [
        n for n in itertools.product(span, repeat=rank)
        if next((k for k in n if k), 0) > 0
    ]


def midpoint_height(gram, n) -> Fraction:
    """1/2 n^T G n at the Gram midpoints, exactly."""
    rank = len(n)
    return sum(
        Fraction(gram[i][j].value) * n[i] * n[j]
        for i in range(rank)
        for j in range(rank)
    ) / 2


def brute_index_set(gram, box_size):
    """A full sort of the half-space by height, then by index: its N^r
    least, in lex order."""
    rank = len(gram)
    ranked = sorted(
        half_space(rank, box_size), key=lambda n: (midpoint_height(gram, n), n)
    )
    return sorted(ranked[: box_size**rank])


def set_height(gram, indices) -> Fraction:
    return sum(midpoint_height(gram, n) for n in indices)


def centred_set(rank, box_size):
    """Schema "5"'s index set [1..N] x C^(r-1), C = [-floor(N/2) ..
    ceil(N/2) - 1], spelled out."""
    centred = range(-(box_size // 2), (box_size + 1) // 2)
    return list(itertools.product(range(1, box_size + 1), *[centred] * (rank - 1)))


_POOL_91 = tuple(CubicPoint(*g) for g in _SETS[91])
_POOL_1729 = tuple(CubicPoint(*g) for g in _SETS[1729])

# multiples of 1/64 up to 10: every term G_ij n_i n_j is exact in a float,
# so the chooser's fsum is the exact rational value the brute force sorts by
_DYADIC = st.integers(-640, 640).map(lambda k: k / 64)


def real_gram(m0, tol=1e-3):
    gens = [KNOWN_GENERATORS[m0]] if m0 in KNOWN_GENERATORS else _SETS[m0]
    gram, _ = heights.independence(
        CurveConfig(m0), [CubicPoint(*g) for g in gens], tol
    )
    return gram


def moment_height_sum(gram, indices) -> Fraction:
    """1/2 sum_ij G_ij S_ij with the moment matrix S = sum n n^T, exactly."""
    rank = len(gram)
    return sum(
        Fraction(gram[i][j].value) * sum(n[i] * n[j] for n in indices)
        for i in range(rank)
        for j in range(rank)
    ) / 2


class TestHeightSum:
    """The summed height of the chosen set: a closed form and a brute sum."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("box_size", [1, 2, 3, 4, 5])
    def test_closed_form_is_the_brute_sum(self, rank, box_size):
        # on a hand-made Gram matrix the chooser's set is the brute-force
        # sort's, and its moment-matrix sum is the sum point by point
        pairs = itertools.combinations(range(rank), 2)
        entries = dict(zip(pairs, (-1.25, 0.5, 0.75)))
        entries.update({(i, i): [3.0, 2.5, 1.75][i] for i in range(rank)})
        gram = gram_of(entries, rank)
        chosen = index_set(gram, box_size)
        brute = brute_index_set(gram, box_size)
        assert chosen == brute
        assert moment_height_sum(gram, chosen) == set_height(gram, brute)

    def test_meets_the_certified_heights(self):
        # what the chooser ranks is the height, on a real pair at N=4: per
        # point, 1/2 n^T G n in intervals meets the certified hhat(Q_n), and
        # 1/2 sum_ij G_ij S_ij meets the interval sum over the 16 points
        cfg, tol = CurveConfig(91), 1e-6
        gram, _ = heights.independence(cfg, list(_POOL_91), tol)
        indices = index_set(gram, 4)
        zero = ApproxReal(0.0, 0.0)
        total = zero
        for idx, q in generate_lattice_points(cfg, list(_POOL_91), indices):
            certified = canonical_height(cfg, q, tol)
            form = sum(
                (
                    gram[i][j] * ApproxReal.from_int(idx[i] * idx[j])
                    for i in range(2)
                    for j in range(2)
                ),
                start=zero,
            ).ldexp(-1)
            assert form.intersects(certified)
            total = total + certified
        claimed = sum(
            (
                gram[i][j] * ApproxReal.from_int(sum(n[i] * n[j] for n in indices))
                for i in range(2)
                for j in range(2)
            ),
            start=zero,
        ).ldexp(-1)
        assert claimed.intersects(total)
        assert total.radius < 1e-4 * total.value
        assert claimed.radius < 1e-4 * claimed.value


class TestOrientation:
    """The chooser, index_set, on hand-made Gram matrices: it keeps one of
    each pair n, -n, the one whose first nonzero coordinate is positive,
    whatever the orientation (order and signs) of the basis."""

    def test_rank_one_is_unchanged(self):
        # the paper's [1..N]
        for box_size in (1, 2, 5):
            assert index_set(gram_of({(0, 0): 2.0}, 1), box_size) == line(box_size)

    @pytest.mark.parametrize(
        "off_diagonal",
        [
            {(0, 1): 0.0},
            {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0},
            {(0, 1): -1.0, (0, 2): 1.0, (1, 2): -1.0},
        ],
    )
    def test_exact_tie_keeps_the_given_signs(self, off_diagonal):
        # equal diagonals make exact ties beyond the pairs n, -n; each tie
        # goes by index, and of each pair the chooser keeps the given sign
        rank = 1 + max(j for _, j in off_diagonal)
        entries = dict(off_diagonal)
        entries.update({(i, i): 2.0 for i in range(rank)})
        gram = gram_of(entries, rank)
        for box_size in (2, 3, 4, 5):
            chosen = index_set(gram, box_size)
            assert chosen == brute_index_set(gram, box_size)
            assert all(next(k for k in n if k) > 0 for n in chosen)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_DYADIC, min_size=10, max_size=10))
    def test_first_sign_is_always_plus(self, values):
        pairs = [(i, j) for i in range(4) for j in range(i, 4)]
        chosen = index_set(gram_of(dict(zip(pairs, values)), 4), 3)
        assert len(chosen) == 81
        assert all(next(k for k in n if k) > 0 for n in chosen)
        assert index_set_screen(chosen, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4), st.floats(0.0, 1e-3))
    def test_equals_the_filtered_ranking(self, data, rank, radius):
        # the lead-by-lead candidates and the column keys against one fsum
        # per candidate of the filtered (2N+1)^r box, on interval Gram
        # matrices with exact ties (dyadic entries) and without
        box_size = data.draw(st.integers(1, (6, 5, 3, 2)[rank - 1]))
        entries = st.one_of(_DYADIC, st.floats(-10.0, 10.0))
        gram = [[None] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                gram[i][j] = gram[j][i] = ApproxReal(data.draw(entries), radius)
        assert index_set(gram, box_size) == loop_reference.index_set(
            gram, box_size
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_DYADIC, min_size=6, max_size=6), st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    def test_rank_three_is_the_argmin(self, values, box_size, rng):
        # the brute-force sort's set, whose summed height no valid set of N^r
        # indices undercuts: not schema "5"'s centred set, nor random ones
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        gram = gram_of(dict(zip(pairs, values)), 3)
        chosen = index_set(gram, box_size)
        assert chosen == brute_index_set(gram, box_size)
        best = set_height(gram, chosen)
        assert best <= set_height(gram, centred_set(3, box_size))
        half = half_space(3, box_size)
        for _ in range(3):
            assert best <= set_height(gram, rng.sample(half, box_size**3))


# sha256 of the m0=1729 documents at both benchmark (N, tol), built from
# the pair as given: rendered in the schema "7" layout
# (tests/schema7_reference.py), which pins every stored value across the
# change to columns and the drop of a, b and the verdicts; in the schema "9"
# layout (tests/schema9_reference.py), which pins m; in the schema "10"
# layout (tests/schema10_reference.py), which pins every triple, hhat_bar
# and Z across the drop of d, the constants and bound_rhs; and as the
# schema "11" document itself
_GIVEN_1729_SHA256 = {
    (12, 1e-3): "1b244d749f53f777db9248219c318d5fe6916f6fae07e0ee8e180ab39e375d01",
    (8, 1e-4): "6ea34d7ec63df1698a1cde7c07ac927b46c2094364a1216ebb17ec246a3bc0d3",
}
_GIVEN_1729_SHA256_SCHEMA_9 = {
    (12, 1e-3): "709d1bd10a844cd19f1666d861d3532226c92f0b7b8b19be3fc7803b417385a8",
    (8, 1e-4): "fba0c5b6012291aadaf0871f1f7c6e619b9580079b05e01d1b17d787bf287731",
}
_GIVEN_1729_SHA256_SCHEMA_10 = {
    (12, 1e-3): "86558ca0be9e42f2f429b32836457acce8b1b9cdbeb31592f861f6cf704d59b2",
    (8, 1e-4): "63403a0493c0575df0947cd3797db59d31caf95b3e2243f3ed63b3add34c5467",
}
_GIVEN_1729_SHA256_SCHEMA_11 = {
    (12, 1e-3): "4cbdefca563f34165975b40d16aad7d20fd2fb7858f67e84b65b9ee1e9452375",
    (8, 1e-4): "b8bab4d5ae213650de0c29c9ad7878d60190934f46b36aff9e7925ceae6df8e6",
}


class TestOrientedBuild:
    """build_certificate on real curves records the generators as given,
    and the chosen set follows the lattice, not the basis."""

    def test_pool_draws_share_a_smaller_m(self):
        cfg = CurveConfig(91)
        certs = []
        for draw in pool_draws(_POOL_91):
            gens = [CubicPoint(*g) for g in draw]
            cert = build_certificate(cfg, gens, 12)
            assert cert.generators == gens
            assert cert.all_checks_pass
            assert verify_certificate(certificate_to_json(cert)) == cert
            certs.append(cert)
        assert len({cert.m for cert in certs}) == 1
        # schema "5"'s m had 62,442 bits
        assert certs[0].m.bit_length() == 44_161

    @pytest.mark.parametrize("box_size, tol", sorted(_GIVEN_1729_SHA256))
    def test_oriented_pair_is_byte_identical(self, box_size, tol):
        # the pinned bytes; and on the reversed pair, index (a, b) becomes
        # (b, a), taken as -(b, a) with the negated point when b < 0 or
        # b = 0 > a, with one m
        cfg = CurveConfig(1729)
        cert = build_certificate(cfg, list(_POOL_1729), box_size, tol)
        text = certificate_to_json(cert)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == _GIVEN_1729_SHA256_SCHEMA_11[box_size, tol]
        as_schema_10 = schema10_json(cert).encode("utf-8")
        assert (
            hashlib.sha256(as_schema_10).hexdigest()
            == _GIVEN_1729_SHA256_SCHEMA_10[box_size, tol]
        )
        as_schema_9 = schema9_json(cert).encode("utf-8")
        assert (
            hashlib.sha256(as_schema_9).hexdigest()
            == _GIVEN_1729_SHA256_SCHEMA_9[box_size, tol]
        )
        as_schema_7 = schema7_json(cert).encode("utf-8")
        assert (
            hashlib.sha256(as_schema_7).hexdigest()
            == _GIVEN_1729_SHA256[box_size, tol]
        )
        assert verify_certificate(text) == cert
        reversed_cert = build_certificate(
            cfg, list(_POOL_1729[::-1]), box_size, tol
        )
        assert reversed_cert.generators == list(_POOL_1729[::-1])
        expected = {}
        for (a, b), q in cert.lattice_points:
            if b > 0 or (b == 0 and a > 0):
                expected[b, a] = q
            else:
                expected[-b, -a] = q.neg()
        assert dict(reversed_cert.lattice_points) == expected
        assert reversed_cert.m == cert.m

    def test_every_basis_of_657_gives_one_m(self):
        # all 3! orders times 2^3 signs of the rank-3 set
        cfg = CurveConfig(657)
        gens = [CubicPoint(*g) for g in _SETS[657]]
        manufactured = set()
        for order in itertools.permutations(gens):
            for signs in itertools.product((1, -1), repeat=3):
                basis = [p if s > 0 else p.neg() for p, s in zip(order, signs)]
                gram, _ = heights.independence(cfg, basis, 1e-3)
                cert = derive_lattice(
                    cfg, basis, gram, index_set(gram, 4), 4, 1e-3
                )
                manufactured.add(cert.m)
        assert len(manufactured) == 1

    @pytest.mark.parametrize(
        "m0, failing",
        # N = 4 is below n_min = 6 on m0=152551
        [(657, set()), (152551, {"theorem_preconditions"})],
        ids=["657", "152551"],
    )
    def test_recorded_arrangement(self, m0, failing):
        # the arrangement recorded is the one given
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        cert = build_certificate(CurveConfig(m0), gens, 4)
        assert cert.generators == gens
        assert {k for k, ok in cert.checks.items() if not ok} == failing
        assert verify_certificate(certificate_to_json(cert)) == cert

    @pytest.mark.parametrize(
        "m0, box_size",
        [(91, 8), (91, 12), (1729, 8), (1729, 12), (657, 5), (657, 6),
         (152551, 4), (526535, 4)],
    )
    def test_smallest_m_of_all_candidates(self, m0, box_size):
        # the chosen set gives a smaller m than every arrangement schema "5"
        # chose among: each generator first, each sign of the others, over
        # the centred set; m = m0 Z^3, so the smaller Z is the smaller m
        cfg = CurveConfig(m0)
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        rank = len(gens)
        centred = centred_set(rank, box_size)
        candidates = []
        for first in range(rank):
            order = [first, *(k for k in range(rank) if k != first)]
            for tail in itertools.product((1, -1), repeat=rank - 1):
                signs = (1, *tail)
                candidates.append(
                    [gens[k] if s > 0 else gens[k].neg()
                     for k, s in zip(order, signs)]
                )
        chosen = lattice_z_product(cfg, gens, chosen_indices(cfg, gens, box_size))
        assert all(
            chosen < lattice_z_product(cfg, basis, centred) for basis in candidates
        )

    @pytest.mark.parametrize("tol", [1, 2.5e-3], ids=["int", "float"])
    def test_tol_is_recorded_as_its_float(self, cfg6, gen6, tol):
        cert = build_certificate(cfg6, [gen6], 2, tol)
        assert type(cert.tol) is float and cert.tol == tol
        assert verify_certificate(certificate_to_json(cert)) == cert


def lattice_z_product(cfg, generators, indices):
    lattice = generate_lattice_points(cfg, generators, indices)
    return product_tree([q.z for _, q in lattice])
