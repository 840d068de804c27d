"""Divisor control, chain constants, lattice generation, certificates."""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge import construct, heights
from cubeforge import (
    CubicPoint,
    CurveConfig,
    DivisorCheck,
    GeneratorDependenceError,
    build_certificate,
    certificate_to_json,
    chain_constants,
    density_constant,
    divisor_check,
    generate_lattice_points,
    minimal_box_size,
    verify_certificate,
    z_size_constant,
)
from cubeforge.construct import (
    CHECK_NAMES,
    derive_lattice,
    height_factor,
    index_set,
    index_set_screen,
    m_factor,
    product_tree,
    representations_from_lattice,
    z_factor,
)
from cubeforge.heights import canonical_height
from cubeforge.numeric import ApproxReal, log_abs
from tests.conftest import KNOWN_GENERATORS, chosen_indices, line, pool_draws
from tests.doubling_reference import lattice_height_bound_check

ELKIES_M0 = 13293998056584952174157235


class TestDivisorCheck:
    def test_worked_example(self, cfg6):
        r = divisor_check(cfg6, CubicPoint(17, 37, 21))
        assert r.d == 54
        assert r.a == 28
        assert r.b == 1
        assert r.d * r.a == 12 * 6 * 21
        assert r.d * r.b == 17 + 37
        # d^2 = 2916 divides 3 * 12^3 * 36 * 1 = 186624 = 64 * 2916
        assert r.divisibility_pass
        assert r.bound_pass
        # the paper's bound 3^(1/3) * 12 * 6^(5/2) * sqrt(21), at 60 digits
        with mpmath.workdps(60):
            bound = mpmath.cbrt(3) * 12 * mpmath.mpf(6) ** 2.5 * mpmath.sqrt(21)
            assert abs(bound - mpmath.mpf("6993.7392707726857")) < 1e-12
            assert r.d < bound
        # and the exact form the check decides: d^6 < 9 * 12^6 * 6^15 * 21^3
        assert 54**6 < 9 * 12**6 * 6**15 * 21**3

    def test_record_is_exact(self, cfg6, gen6):
        assert list(DivisorCheck._fields) == [
            "d", "a", "b", "divisibility_pass", "bound_pass"
        ]
        r = divisor_check(cfg6, gen6)
        assert all(type(v) in (int, bool) for v in r._asdict().values())

    def test_trivial_gcd(self, cfg7):
        r = divisor_check(cfg7, CubicPoint(2, -1, 1))
        assert r.d == 1
        assert r.divisibility_pass and r.bound_pass

    def test_identity_rejected(self, cfg6):
        with pytest.raises(ValueError):
            divisor_check(cfg6, CubicPoint(1, -1, 0))

    def test_cofactors_coprime(self, cfg6, gen6):
        import math

        for _, q in generate_lattice_points(cfg6, [gen6], line(4)):
            r = divisor_check(cfg6, q)
            assert math.gcd(r.a, r.b) == 1
            assert r.d > 0


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


class TestMinimalBoxSize:
    def test_m0_six(self, cfg6, gen6):
        h = canonical_height(cfg6, gen6, 1e-3)
        assert minimal_box_size(cfg6, 1, h) == 4

    def test_requires_positive_height(self, cfg6):
        from cubeforge.numeric import ApproxReal, log_abs

        with pytest.raises(ValueError):
            minimal_box_size(cfg6, 1, ApproxReal(0.001, 0.01))

    def test_chain_constants_bundle(self, cfg6, gen6):
        h = canonical_height(cfg6, gen6, 1e-3)
        c = chain_constants(cfg6, 1, h)
        assert (c.height_factor, c.z_factor, c.m_factor) == (1, 5, 16)
        assert c.n_min == 4
        assert c.z_constant.contains(18.462316284596385)


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
        # point adds only its nonzero coordinates
        cfg = CurveConfig(91)
        indices = chosen_indices(cfg, _POOL_91, 8)
        reach = [max(abs(n[i]) for n in indices) for i in range(2)]
        both = sum(1 for n in indices if all(n))
        calls = Counter()
        original = construct.cubic_add

        def counting(*args):
            calls["cubic_add"] += 1
            return original(*args)

        monkeypatch.setattr(construct, "cubic_add", counting)
        generate_lattice_points(cfg, list(_POOL_91), indices)
        assert calls["cubic_add"] == both + sum(max(k - 1, 0) for k in reach)
        assert both <= len(indices) == 64

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
        reps = representations_from_lattice(lattice)
        m = cfg6.m0 * product_tree([q.z for _, q in lattice]) ** 3
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
        assert cert.constants.n_min == 4
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
        assert cert.box_size ** cert.rank > cert.bound_rhs.upper()
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
        assert box_size >= minimal_box_size(cfg, rank, hhat_bar)
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
        assert calls == {
            "canonical_height": 3,
            "generate_lattice_points": 1,
            "_generator_checks": 1,
            "independence": 1,
        }


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
# the pair as given
_GIVEN_1729_SHA256 = {
    (12, 1e-3): "1b244d749f53f777db9248219c318d5fe6916f6fae07e0ee8e180ab39e375d01",
    (8, 1e-4): "6ea34d7ec63df1698a1cde7c07ac927b46c2094364a1216ebb17ec246a3bc0d3",
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
        assert digest == _GIVEN_1729_SHA256[box_size, tol]
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
