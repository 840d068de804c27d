"""Divisor control, chain constants, lattice generation, certificates."""

import hashlib
import itertools
import math
from collections import Counter

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
    orientation,
    product_tree,
    representations_from_lattice,
    z_factor,
)
from cubeforge.heights import canonical_height
from cubeforge.numeric import ApproxReal
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
        from cubeforge.numeric import ApproxReal

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
        from cubeforge.numeric import ApproxReal

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
        # with generators P and 2P the combinations (3,1) and (1,2) both
        # land on 5P, which a box of size 3 must detect
        double = CubicPoint(2237723, -1805723, 960540)
        with pytest.raises(GeneratorDependenceError):
            generate_lattice_points(cfg6, [gen6, double], 3)

    def test_dependent_pair_hits_identity(self, cfg6, gen6):
        # combination (2,1) of P and -2P is the identity
        neg_double = CubicPoint(-1805723, 2237723, 960540)
        with pytest.raises(GeneratorDependenceError):
            generate_lattice_points(cfg6, [gen6, neg_double], 2)

    def test_rank_two_box_shape(self, cfg6, gen6):
        from tests.group_reference import cubic_smul

        # P and 3P collide in no box of size 2, so the mechanics of a
        # rank-2 box (lex order, arity) can be exercised on a rank-1 curve
        other = cubic_smul(cfg6, 3, gen6)
        lattice = generate_lattice_points(cfg6, [gen6, other], 2)
        assert [idx for idx, _ in lattice] == [(1, 1), (1, 2), (2, 1), (2, 2)]

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


class TestLatticeHeightBound:
    def test_holds_for_small_boxes(self, cfg6, gen6):
        assert lattice_height_bound_check(cfg6, [gen6], 3)

    def test_holds_on_second_curve(self, cfg7, gen7):
        assert lattice_height_bound_check(cfg7, [gen7], 3)

    def test_holds_at_rank_two(self):
        gens = [CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)]
        assert lattice_height_bound_check(CurveConfig(91), gens, 2)

    def test_refuted_by_a_zero_bound(self, cfg6, gen6, monkeypatch):
        # with height factor 0 every nonzero lattice point exceeds the bound
        monkeypatch.setattr(construct, "height_factor", lambda rank: 0)
        assert not lattice_height_bound_check(cfg6, [gen6], 3)


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


def gram_of(off_diagonal: dict[tuple[int, int], float], rank: int):
    """A symmetric Gram matrix with diagonal 2 and the given G_ij, i < j."""
    gram = [[ApproxReal(2.0, 1e-3)] * rank for _ in range(rank)]
    for (i, j), value in off_diagonal.items():
        gram[i][j] = gram[j][i] = ApproxReal(value, 1e-3)
    return gram


def cross_sum(gram, signs) -> float:
    rank = len(gram)
    return sum(
        signs[i] * signs[j] * gram[i][j].value
        for i in range(rank)
        for j in range(i + 1, rank)
    )


_FINITE = st.floats(-10.0, 10.0, allow_nan=False)


class TestOrientation:
    """The sign chooser on hand-made Gram matrices."""

    def test_rank_one_is_unchanged(self):
        assert orientation(gram_of({}, 1)) == (1,)

    @pytest.mark.parametrize(
        "off_diagonal",
        [
            {(0, 1): 0.0},
            {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0},
            # all plus and ++- both reach the minimum -1
            {(0, 1): -1.0, (0, 2): 1.0, (1, 2): -1.0},
        ],
    )
    def test_exact_tie_keeps_the_given_signs(self, off_diagonal):
        rank = 1 + max(j for _, j in off_diagonal)
        assert orientation(gram_of(off_diagonal, rank)) == (1,) * rank

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_FINITE, min_size=6, max_size=6))
    def test_first_sign_is_always_plus(self, values):
        pairs = list(itertools.combinations(range(4), 2))
        assert orientation(gram_of(dict(zip(pairs, values)), 4))[0] == 1

    @settings(max_examples=50, deadline=None)
    @given(_FINITE, _FINITE, _FINITE)
    def test_rank_three_is_the_argmin(self, g01, g02, g12):
        gram = gram_of({(0, 1): g01, (0, 2): g02, (1, 2): g12}, 3)
        candidates = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
        sums = [cross_sum(gram, s) for s in candidates]
        # the first minimiser in the order that starts from all plus
        assert orientation(gram) == candidates[sums.index(min(sums))]


_POOL_91 = (CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1))
_POOL_1729 = (CubicPoint(1, 12, 1), CubicPoint(9, 10, 1))

# sha256 of the m0=1729 documents at both benchmark (N, tol): that pair is
# already oriented, so orienting changes no byte of them
_UNFLIPPED_SHA256 = {
    (12, 1e-3): "6c38ee8d5184b8a4b1c4ee718a6d7024988f6a4b3898d4e792ec91e913e503fc",
    (8, 1e-4): "d71fc337c63d803a35be267c7ac747b69f095bd19df32c0a1650f6087c8e7755",
}


def signs_of(cert, generators) -> str:
    return "".join(
        "+" if q == p else "-" for q, p in zip(cert.generators, generators)
    )


class TestOrientedBuild:
    """build_certificate records oriented generators on real curves."""

    def test_pool_draws_share_a_smaller_m(self):
        cfg = CurveConfig(91)
        certs = [
            build_certificate(cfg, [CubicPoint(*g) for g in draw], 12)
            for draw in pool_draws(_POOL_91)
        ]
        assert all(cert.all_checks_pass for cert in certs)
        assert len({cert.m for cert in certs}) == 1
        _, unoriented = derive(cfg, list(_POOL_91), 12, 1e-3)
        assert certs[0].m.bit_length() < unoriented.m.bit_length()
        assert signs_of(certs[0], _POOL_91) == "+-"
        for cert in certs:
            assert verify_certificate(certificate_to_json(cert)) == cert

    @pytest.mark.parametrize("box_size, tol", sorted(_UNFLIPPED_SHA256))
    def test_oriented_pair_is_byte_identical(self, box_size, tol):
        cert = build_certificate(CurveConfig(1729), list(_POOL_1729), box_size, tol)
        assert cert.generators == list(_POOL_1729)
        text = certificate_to_json(cert)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == _UNFLIPPED_SHA256[box_size, tol]
        assert verify_certificate(text) == cert

    @pytest.mark.parametrize(
        "m0, generators, signs, failing",
        [
            (
                657,
                (CubicPoint(-7, 10, 1), CubicPoint(7, 17, 2),
                 CubicPoint(-2890, 2971, 147)),
                "++-",
                set(),
            ),
            # N = 4 is below n_min = 6
            (
                152551,
                (CubicPoint(54, -17, 1), CubicPoint(55, -24, 1),
                 CubicPoint(226, -225, 1), CubicPoint(705, -668, 7)),
                "++-+",
                {"theorem_preconditions"},
            ),
        ],
    )
    def test_recorded_signs(self, m0, generators, signs, failing):
        cert = build_certificate(CurveConfig(m0), list(generators), 4)
        assert signs_of(cert, generators) == signs
        assert {k for k, ok in cert.checks.items() if not ok} == failing
        assert verify_certificate(certificate_to_json(cert)) == cert

    @pytest.mark.parametrize("tol", [1, 2.5e-3], ids=["int", "float"])
    def test_tol_is_recorded_as_its_float(self, cfg6, gen6, tol):
        cert = build_certificate(cfg6, [gen6], 2, tol)
        assert type(cert.tol) is float and cert.tol == tol
        assert verify_certificate(certificate_to_json(cert)) == cert
