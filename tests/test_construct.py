"""Divisor control, chain constants, lattice generation, certificates."""

import hashlib
import itertools
import math
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
    derive,
    height_factor,
    m_factor,
    arrangement,
    arranged_gram,
    height_sum,
    index_ranges,
    product_tree,
    representations_from_lattice,
    z_factor,
)
from cubeforge.heights import canonical_height
from cubeforge.numeric import ApproxReal, log_abs
from tests.conftest import pool_draws
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

        for _, q in generate_lattice_points(cfg6, [gen6], 4):
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
        lattice = generate_lattice_points(cfg6, [gen6], 3)
        assert [idx for idx, _ in lattice] == [(1,), (2,), (3,)]
        assert lattice[0][1] == gen6
        assert lattice[1][1] == CubicPoint(2237723, -1805723, 960540)
        for _, q in lattice:
            assert q.z > 0

    def test_torsion_hits_identity(self, cfg1):
        with pytest.raises(GeneratorDependenceError):
            generate_lattice_points(cfg1, [CubicPoint(1, 0, 1)], 3)

    def test_dependent_pair_collides(self, cfg6, gen6):
        # with generators 2P and P the combinations (1, 1) and (2, -1) both
        # land on 3P, which the index set of size 3 must detect; no index
        # in [1..3] x [-1..1] reaches the identity
        double = CubicPoint(2237723, -1805723, 960540)
        with pytest.raises(GeneratorDependenceError, match="collide"):
            generate_lattice_points(cfg6, [double, gen6], 3)

    def test_dependent_pair_hits_identity(self, cfg6, gen6):
        # combination (2, -1) of P and 2P is the identity
        double = CubicPoint(2237723, -1805723, 960540)
        with pytest.raises(GeneratorDependenceError, match="identity"):
            generate_lattice_points(cfg6, [gen6, double], 2)

    def test_rank_two_box_shape(self, cfg6, gen6):
        from tests.group_reference import cubic_smul

        # P and 3P collide nowhere in [1..2] x [-1..0], so the mechanics of
        # a rank-2 index set (lex order, arity, centring) can be exercised
        # on a rank-1 curve
        other = cubic_smul(cfg6, 3, gen6)
        lattice = generate_lattice_points(cfg6, [gen6, other], 2)
        assert [idx for idx, _ in lattice] == [(1, -1), (1, 0), (2, -1), (2, 0)]
        assert [q for _, q in lattice] == [
            cubic_smul(cfg6, k, gen6) for k in (-2, 1, -1, 2)
        ]

    @pytest.mark.parametrize("box_size", [1, 2, 3, 4, 7, 8])
    def test_index_set(self, box_size):
        # [1..N] x C^(r-1): N^r indices, |n_i| <= N, C centred, and no
        # index is zero or the negative of another
        for rank in (1, 2, 3):
            ranges = index_ranges(rank, box_size)
            assert ranges[0] == range(1, box_size + 1)
            for span in ranges[1:]:
                assert len(span) == box_size
                assert sum(span) == (0 if box_size % 2 else -box_size // 2)
            indices = set(itertools.product(*ranges))
            assert len(indices) == box_size**rank
            assert all(max(map(abs, n)) <= box_size for n in indices)
            assert not any(tuple(-a for a in n) in indices for n in indices)

    def test_representations_identity(self, cfg6, gen6):
        lattice = generate_lattice_points(cfg6, [gen6], 2)
        m, reps = representations_from_lattice(cfg6, lattice)
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
        lattice = generate_lattice_points(
            CurveConfig(91), [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], box_size
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

    # the centred index set, whose negative indices the box never had
    @pytest.mark.parametrize(
        "m0, box_size",
        [(91, 4), (657, 4), (152551, 2)],
        ids=["rank2", "rank3", "rank4"],
    )
    def test_holds_on_the_centred_set(self, m0, box_size):
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        lattice = generate_lattice_points(CurveConfig(m0), gens, box_size)
        assert any(min(idx) < 0 for idx, _ in lattice)
        assert lattice_height_bound_check(CurveConfig(m0), gens, box_size)

    def test_refuted_by_a_zero_bound(self, cfg6, gen6, monkeypatch):
        # with height factor 0 every nonzero lattice point exceeds the bound
        monkeypatch.setattr(construct, "height_factor", lambda rank: 0)
        assert not lattice_height_bound_check(cfg6, [gen6], 3)


class TestChainOnTheIndexSet:
    """z_factor's bound on real lattices over the centred index set."""

    @pytest.mark.parametrize(
        "m0, box_size, tol",
        [(91, 12, 1e-3), (91, 8, 1e-4), (1729, 12, 1e-3), (1729, 8, 1e-4),
         (657, 6, 1e-3), (152551, 6, 1e-3), (526535, 6, 1e-3)],
    )
    def test_z_sum_bound(self, m0, box_size, tol):
        # sum log z_n <= z_factor N^(r+2) hhat, against the lower end of
        # hhat, at N >= n_min on the generators build records
        cfg = CurveConfig(m0)
        gens = arranged_generators(m0, box_size)
        rank = len(gens)
        gram, _ = heights.independence(cfg, gens, tol)
        hhat_bar = max((gram[i][i].ldexp(-1) for i in range(rank)),
                       key=lambda h: h.upper())
        assert box_size >= minimal_box_size(cfg, rank, hhat_bar)
        lattice = generate_lattice_points(cfg, gens, box_size)
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
        ):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_rank_two_build_and_verify(self, calls):
        # rank 2 needs hhat(P1), hhat(P2) and hhat(P1 + P2), nothing more
        cfg = CurveConfig(91)
        cert = build_certificate(
            cfg, [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)], 2
        )
        # N = 2 is below the minimal box size 8, which is all that fails
        failing = {k for k, ok in cert.checks.items() if not ok}
        assert failing == {"theorem_preconditions"}
        assert calls == {"canonical_height": 3, "generate_lattice_points": 1}
        calls.clear()
        report = verify_certificate(certificate_to_json(cert))
        assert report.checks == cert.checks
        assert calls == {"canonical_height": 3, "generate_lattice_points": 1}


def gram_of(off_diagonal: dict[tuple[int, int], float], rank: int,
            diagonal=None):
    """A symmetric Gram matrix with the given G_ij, i < j, zero elsewhere
    off the diagonal, and the given diagonal, 2 by default."""
    gram = [[ApproxReal(0.0, 1e-3)] * rank for _ in range(rank)]
    for i, value in enumerate(diagonal or [2.0] * rank):
        gram[i][i] = ApproxReal(value, 1e-3)
    for (i, j), value in off_diagonal.items():
        gram[i][j] = gram[j][i] = ApproxReal(value, 1e-3)
    return gram


def brute_height_sum(gram, box_size) -> Fraction:
    """1/2 sum of n^T G n over [1..N] x C^(r-1), at midpoints, exactly.

    The index set is spelled out here, not read from index_ranges.
    """
    rank = len(gram)
    centred = range(-(box_size // 2), (box_size + 1) // 2)
    spans = [range(1, box_size + 1)] + [centred] * (rank - 1)
    g = [[Fraction(e.value) for e in row] for row in gram]
    total = sum(
        g[i][j] * n[i] * n[j]
        for n in itertools.product(*spans)
        for i in range(rank)
        for j in range(rank)
    )
    return total / 2


def candidates(rank):
    """The chooser's candidates in its order: first slot, then signs."""
    for first in range(rank):
        order = (first, *(k for k in range(rank) if k != first))
        for tail in itertools.product((1, -1), repeat=rank - 1):
            yield order, (1, *tail)


_FINITE = st.floats(-10.0, 10.0, allow_nan=False)


class TestHeightSum:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("box_size", [1, 2, 3, 4, 5])
    def test_closed_form_is_the_brute_sum(self, rank, box_size):
        pairs = itertools.combinations(range(rank), 2)
        gram = gram_of(
            dict(zip(pairs, (-1.25, 0.5, 0.75))), rank, [3.0, 2.5, 1.75][:rank]
        )
        assert height_sum(gram, box_size).contains(
            float(brute_height_sum(gram, box_size))
        )

    def test_meets_the_certified_heights(self):
        # the chooser's identity on a real pair: 1/2 sum G_ij S_ij against
        # the interval sum of hhat(Q_n) over the 16 lattice points
        cfg, tol = CurveConfig(91), 1e-6
        gram, _ = heights.independence(cfg, list(_POOL_91), tol)
        lattice = generate_lattice_points(cfg, list(_POOL_91), 4)
        total = sum(
            (canonical_height(cfg, q, tol) for _, q in lattice),
            start=ApproxReal(0.0, 0.0),
        )
        claimed = height_sum(gram, 4)
        assert claimed.intersects(total)
        assert total.radius < 1e-4 * total.value
        assert claimed.radius < 1e-4 * claimed.value


class TestOrientation:
    """The chooser, arrangement, on hand-made Gram matrices."""

    def test_rank_one_is_unchanged(self):
        for box_size in (1, 2, 5):
            assert arrangement(gram_of({}, 1), box_size) == ((0,), (1,))

    @pytest.mark.parametrize(
        "off_diagonal",
        [
            {(0, 1): 0.0},
            {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0},
            # at odd N the centred C sums to 0, so no cross term enters
            {(0, 1): -1.0, (0, 2): 1.0, (1, 2): -1.0},
        ],
    )
    def test_exact_tie_keeps_the_given_signs(self, off_diagonal):
        # equal diagonals, so every candidate has the same height sum
        rank = 1 + max(j for _, j in off_diagonal)
        gram = gram_of(off_diagonal, rank)
        sizes = (3, 5) if any(off_diagonal.values()) else (3, 4, 5)
        for box_size in sizes:
            assert arrangement(gram, box_size) == (
                tuple(range(rank)), (1,) * rank
            )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_FINITE, min_size=6, max_size=6))
    def test_first_sign_is_always_plus(self, values):
        pairs = list(itertools.combinations(range(4), 2))
        order, signs = arrangement(gram_of(dict(zip(pairs, values)), 4), 4)
        assert signs[0] == 1
        # one generator moves to the front, the rest keep their order
        assert sorted(order) == [0, 1, 2, 3]
        assert list(order[1:]) == sorted(order[1:])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.125, 10.0), min_size=3, max_size=3),
        _FINITE, _FINITE, _FINITE, st.integers(1, 6),
    )
    def test_rank_three_is_the_argmin(self, diagonal, g01, g02, g12, box_size):
        gram = gram_of({(0, 1): g01, (0, 2): g02, (1, 2): g12}, 3, diagonal)
        sums = {
            c: brute_height_sum(arranged_gram(gram, *c), box_size)
            for c in candidates(3)
        }
        # the exact minimum, up to the float rounding of the closed form
        slack = 1e-9 * (1 + max(abs(v) for v in sums.values()))
        assert sums[arrangement(gram, box_size)] <= min(sums.values()) + slack


_POOL_91 = tuple(CubicPoint(*g) for g in _SETS[91])
_POOL_1729 = tuple(CubicPoint(*g) for g in _SETS[1729])
# the m0=1729 pair as build arranges it at both benchmark sizes: (9, 10, 1)
# negated
_ARRANGED_1729 = (CubicPoint(1, 12, 1), CubicPoint(10, 9, 1))

# sha256 of the m0=1729 documents at both benchmark (N, tol), built from
# the arranged pair and, identically, from the pair as given
_UNFLIPPED_SHA256 = {
    (12, 1e-3): "b67112e692ea50fbd3d4e446f972b69c6af800508842bada5db6c3c19626000d",
    (8, 1e-4): "83dcc162ea056c876095bd3817c1e75a6fd15853efaaf7281c5883ea7259f68c",
}


def arranged_generators(m0, box_size):
    """The generators of _SETS[m0] as build_certificate records them."""
    cfg = CurveConfig(m0)
    gens = [CubicPoint(*g) for g in _SETS[m0]]
    gram, _ = heights.independence(cfg, gens, 1e-3)
    order, signs = arrangement(gram, box_size)
    return [gens[k] if s > 0 else gens[k].neg() for k, s in zip(order, signs)]


def lattice_z_product(m0, generators, box_size):
    lattice = generate_lattice_points(CurveConfig(m0), generators, box_size)
    return product_tree([q.z for _, q in lattice])


class TestOrientedBuild:
    """build_certificate records arranged generators on real curves."""

    def test_pool_draws_share_a_smaller_m(self):
        cfg = CurveConfig(91)
        certs = [
            build_certificate(cfg, [CubicPoint(*g) for g in draw], 12)
            for draw in pool_draws(_POOL_91)
        ]
        assert all(cert.all_checks_pass for cert in certs)
        assert len({cert.m for cert in certs}) == 1
        _, unarranged = derive(cfg, list(_POOL_91), 12, 1e-3)
        assert certs[0].m.bit_length() < unarranged.m.bit_length()
        assert certs[0].generators == [_POOL_91[1], _POOL_91[0]]
        for cert in certs:
            assert verify_certificate(certificate_to_json(cert)) == cert

    @pytest.mark.parametrize("box_size, tol", sorted(_UNFLIPPED_SHA256))
    def test_oriented_pair_is_byte_identical(self, box_size, tol):
        cfg = CurveConfig(1729)
        cert = build_certificate(cfg, list(_ARRANGED_1729), box_size, tol)
        assert cert.generators == list(_ARRANGED_1729)
        text = certificate_to_json(cert)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == _UNFLIPPED_SHA256[box_size, tol]
        assert verify_certificate(text) == cert
        given = build_certificate(cfg, list(_POOL_1729), box_size, tol)
        assert certificate_to_json(given) == text

    @pytest.mark.parametrize(
        "m0, recorded, failing",
        [
            # P2 negated
            (657, [(-7, 10, 1), (17, 7, 2), (-2890, 2971, 147)], set()),
            # P2 first, then -P1, P3, -P4; N = 4 is below n_min = 6
            (
                152551,
                [(55, -24, 1), (-17, 54, 1), (226, -225, 1), (-668, 705, 7)],
                {"theorem_preconditions"},
            ),
        ],
        ids=["657", "152551"],
    )
    def test_recorded_arrangement(self, m0, recorded, failing):
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        cert = build_certificate(CurveConfig(m0), gens, 4)
        assert cert.generators == [CubicPoint(*g) for g in recorded]
        assert {k for k, ok in cert.checks.items() if not ok} == failing
        assert verify_certificate(certificate_to_json(cert)) == cert

    @pytest.mark.parametrize(
        "m0, box_size",
        [(91, 8), (91, 12), (1729, 8), (1729, 12), (657, 5), (657, 6),
         (152551, 4), (526535, 4)],
    )
    def test_smallest_m_of_all_candidates(self, m0, box_size):
        # m = m0 Z^3, so the smallest Z is the smallest m
        gens = [CubicPoint(*g) for g in _SETS[m0]]
        products = [
            lattice_z_product(
                m0,
                [gens[k] if s > 0 else gens[k].neg() for k, s in zip(*c)],
                box_size,
            )
            for c in candidates(len(gens))
        ]
        chosen = lattice_z_product(m0, arranged_generators(m0, box_size), box_size)
        assert chosen == min(products)

    @pytest.mark.parametrize("tol", [1, 2.5e-3], ids=["int", "float"])
    def test_tol_is_recorded_as_its_float(self, cfg6, gen6, tol):
        cert = build_certificate(cfg6, [gen6], 2, tol)
        assert type(cert.tol) is float and cert.tol == tol
        assert verify_certificate(certificate_to_json(cert)) == cert
