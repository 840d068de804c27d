"""Exact group law and the birational correspondence between the models.

cubic_add is checked against the chord-and-tangent law on the Weierstrass
twin, and weierstrass_image against the Fraction maps; both references are
kept in tests/group_reference.py.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge import (
    CUBIC_IDENTITY,
    CubicPoint,
    CurveConfig,
    cubic_add,
    generate_lattice_points,
    on_cubic,
    search_points,
    weierstrass_image,
)
from cubeforge import construct, curves
from tests import group_reference, loop_reference
from tests.conftest import KNOWN_GENERATORS, chosen_indices
from tests.group_reference import (
    INFINITY,
    WeierstrassPoint,
    add,
    cubic_smul,
    from_weierstrass,
    on_weierstrass,
    smul,
    to_weierstrass,
)


class TestCurveConfig:
    def test_coefficient(self, cfg6):
        assert cfg6.b == -15552
        assert CurveConfig(1).b == -432

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            CurveConfig(0)

    def test_hb_frozen(self, cfg6):
        # log 15552 at 60-digit precision: 9.6519445267002203...
        assert abs(cfg6.hb.value - 9.65194452670022) < 1e-12


class TestOnCurve:
    def test_members(self, cfg6):
        assert on_cubic(cfg6, 17, 37, 21)
        assert on_cubic(cfg6, 37, 17, 21)
        assert on_cubic(cfg6, 1, -1, 0)
        assert not on_cubic(cfg6, 1, 1, 1)

    def test_zero_triple_is_no_point(self, cfg6):
        # 0 = m0 * 0, but (0, 0, 0) is no projective point
        assert not on_cubic(cfg6, 0, 0, 0)
        assert on_cubic(cfg6, 2, -2, 0)

    def test_weierstrass_members(self, cfg6):
        assert on_weierstrass(cfg6, WeierstrassPoint.affine(28, 80))
        assert on_weierstrass(cfg6, INFINITY)
        assert not on_weierstrass(cfg6, WeierstrassPoint.affine(28, 81))


class TestFromTriple:
    def test_examples(self):
        assert CubicPoint.from_triple(34, 74, 42) == (17, 37, 21)
        assert CubicPoint.from_triple(-17, -37, -21) == (17, 37, 21)
        assert CubicPoint.from_triple(-1, 1, 0) == CUBIC_IDENTITY
        assert CubicPoint.from_triple(5, -5, 0) == CUBIC_IDENTITY

    def test_divides_out_the_gcd(self):
        # the normal form needs no curve: (0, 0, 1) is on none with m0 != 0
        assert CubicPoint.from_triple(6, 10, 15) == (6, 10, 15)
        assert CubicPoint.from_triple(4, 8, 12) == (1, 2, 3)
        assert CubicPoint.from_triple(-4, 8, -12) == (1, -2, 3)
        assert CubicPoint.from_triple(0, 0, 5) == (0, 0, 1)

    def test_bad_infinity_rejected(self):
        with pytest.raises(ValueError):
            CubicPoint.from_triple(2, 3, 0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            CubicPoint.from_triple(0, 0, 0)

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
           st.integers(-10**30, 10**30).filter(bool))
    def test_divides_all(self, a, b, c):
        # the gcd, signed like c, is divided out of every coordinate
        p = CubicPoint.from_triple(a, b, c)
        g = c // p.z
        assert g != 0 and (g > 0) == (c > 0)
        assert abs(g) == math.gcd(a, b, c)
        assert (a, b, c) == (g * p.x, g * p.y, g * p.z)

    @given(st.integers(-10**20, 10**20), st.integers(-10**20, 10**20))
    def test_line_at_infinity(self, x, y):
        # on z = 0 only the scalings of (1, -1, 0) are points of the curve
        if x and x + y == 0:
            assert CubicPoint.from_triple(x, y, 0) is CUBIC_IDENTITY
        else:
            with pytest.raises(ValueError, match="not on the curve at infinity"):
                CubicPoint.from_triple(x, y, 0)

    @given(st.integers(-10**20, 10**20), st.integers(-10**20, 10**20),
           st.integers(1, 10**20),
           st.integers(1, 10**6).flatmap(lambda s: st.sampled_from([s, -s])))
    def test_scaling_invariant(self, x, y, z, s):
        p = CubicPoint.from_triple(x, y, z)
        assert CubicPoint.from_triple(x * s, y * s, z * s) == p
        assert CubicPoint.from_triple(*p) == p
        assert math.gcd(*p) == 1 and p.z > 0
        assert type(p) is CubicPoint
        # p is (x, y, z) over its gcd
        g = z // p.z
        assert (x, y, z) == (g * p.x, g * p.y, g * p.z)


class TestBirationalMap:
    def test_forward_examples(self, cfg6, cfg7):
        assert to_weierstrass(cfg6, CubicPoint(17, 37, 21)) == (
            WeierstrassPoint.affine(28, 80)
        )
        assert to_weierstrass(cfg7, CubicPoint(2, -1, 1)) == (
            WeierstrassPoint.affine(84, -756)
        )
        assert to_weierstrass(cfg6, CUBIC_IDENTITY) == INFINITY

    def test_forward_torsion(self, cfg1):
        assert to_weierstrass(cfg1, CubicPoint(1, 0, 1)) == (
            WeierstrassPoint.affine(12, -36)
        )
        assert to_weierstrass(cfg1, CubicPoint(0, 1, 1)) == (
            WeierstrassPoint.affine(12, 36)
        )

    def test_x_plus_y_zero_rejected(self, cfg6):
        with pytest.raises(ValueError):
            to_weierstrass(cfg6, CubicPoint(5, -5, 1))

    @pytest.mark.parametrize("m0", [1, 2, -2, 6, -6, 7, 9, 91, 657, 1729])
    def test_image_matches_reference(self, m0):
        # doubles give fractional X; scaled and sign-flipped triples too: the
        # image is in lowest terms with positive denominators whatever
        # triple names the point
        cfg = CurveConfig(m0)
        found = search_points(cfg, 40)
        assert found
        for p in found + [cubic_add(cfg, p, p) for p in found if p.x != p.y]:
            w = to_weierstrass(cfg, p)
            expected = (
                w.x.numerator, w.x.denominator, w.y.numerator, w.y.denominator
            )
            for k in (1, -1, 6):
                q = CubicPoint(k * p.x, k * p.y, k * p.z)
                assert weierstrass_image(cfg, q) == expected, (p, k)

    def test_image_needs_x_plus_y_nonzero(self, cfg6):
        for p in (CubicPoint(5, -5, 1), CUBIC_IDENTITY):
            with pytest.raises(ValueError, match="no affine image"):
                weierstrass_image(cfg6, p)

    def test_inverse_examples(self, cfg6):
        assert from_weierstrass(cfg6, INFINITY) == CUBIC_IDENTITY
        assert from_weierstrass(
            cfg6, WeierstrassPoint.affine(28, 80)
        ) == CubicPoint(17, 37, 21)

    def test_inverse_fractional(self, cfg6):
        p = WeierstrassPoint(
            Fraction(16009, 100), Fraction(-2021723, 1000)
        )
        assert from_weierstrass(cfg6, p) == CubicPoint(
            2237723, -1805723, 960540
        )


class TestGroupLaw:
    def test_doubling_example(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        assert add(cfg6, w, w) == WeierstrassPoint(
            Fraction(16009, 100), Fraction(-2021723, 1000)
        )

    def test_torsion_doubling(self, cfg1):
        p = WeierstrassPoint.affine(12, 36)
        assert add(cfg1, p, p) == WeierstrassPoint.affine(12, -36)
        assert smul(cfg1, 3, p) == INFINITY

    def test_inverse_law(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        assert add(cfg6, w, WeierstrassPoint.affine(28, -80)) == INFINITY

    def test_identity_law(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        assert add(cfg6, w, INFINITY) == w
        assert add(cfg6, INFINITY, w) == w
        assert smul(cfg6, 0, w) == INFINITY

    def test_cubic_doubling_example(self, cfg6):
        p = CubicPoint(17, 37, 21)
        assert cubic_add(cfg6, p, p) == CubicPoint(2237723, -1805723, 960540)

    def test_cubic_negation(self, cfg6):
        p = CubicPoint(17, 37, 21)
        assert cubic_add(cfg6, p, p.neg()) == CUBIC_IDENTITY


def _pool(m0: int) -> list:
    cfg = CurveConfig(m0)
    base = to_weierstrass(cfg, KNOWN_GENERATORS[m0])
    return cfg, [smul(cfg, k, base) for k in range(-3, 4)]


_POOLS = {m0: _pool(m0) for m0 in (6, 7, 9)}

pool_indices = st.integers(0, 6)
curve_choice = st.sampled_from([6, 7, 9])


class TestGroupLawProperties:
    @given(curve_choice, pool_indices, pool_indices, pool_indices)
    @settings(max_examples=100, deadline=None)
    def test_associativity_commutativity(self, m0, i, j, k):
        cfg, pool = _POOLS[m0]
        p, q, r = pool[i], pool[j], pool[k]
        assert add(cfg, p, q) == add(cfg, q, p)
        assert add(cfg, add(cfg, p, q), r) == add(cfg, p, add(cfg, q, r))

    @given(curve_choice, pool_indices, pool_indices)
    @settings(max_examples=100, deadline=None)
    def test_homomorphism_and_roundtrip(self, m0, i, j):
        cfg, pool = _POOLS[m0]
        p, q = pool[i], pool[j]
        s = add(cfg, p, q)
        assert on_weierstrass(cfg, s)
        cp = from_weierstrass(cfg, p)
        cq = from_weierstrass(cfg, q)
        assert on_cubic(cfg, *cp.triple())
        assert to_weierstrass(cfg, cubic_add(cfg, cp, cq)) == s
        assert to_weierstrass(cfg, cp) == p

    @given(curve_choice, st.integers(-8, 8))
    @settings(max_examples=60, deadline=None)
    def test_scalar_multiples_on_curve(self, m0, k):
        cfg, pool = _POOLS[m0]
        p = cubic_smul(cfg, k, KNOWN_GENERATORS[m0])
        assert on_cubic(cfg, *p.triple())
        assert cubic_add(cfg, p, p.neg()) == CUBIC_IDENTITY


class TestNegativeM0:
    def test_negated_curve(self):
        cfg = CurveConfig(-6)
        p = CubicPoint(-37, -17, 21)
        assert on_cubic(cfg, *p.triple())
        d = cubic_add(cfg, p, p)
        assert on_cubic(cfg, *d.triple())
        w = to_weierstrass(cfg, p)
        assert on_weierstrass(cfg, w)
        assert from_weierstrass(cfg, w) == p


def _transported_add(cfg, p, q):
    """The reference law: add on the Weierstrass twin, mapped back."""
    return from_weierstrass(
        cfg, add(cfg, to_weierstrass(cfg, p), to_weierstrass(cfg, q))
    )


def _transported_lattice(cfg, generators, indices):
    """The lattice of generate_lattice_points, built on the Weierstrass twin,
    one point per index in the order given."""
    w = [to_weierstrass(cfg, p) for p in generators]
    out = []
    for idx in indices:
        acc = INFINITY
        for p, n in zip(w, idx):
            acc = add(cfg, acc, smul(cfg, n, p))
        out.append((idx, from_weierstrass(cfg, acc)))
    return out


_SWEEP_M0 = (1, 2, -2, 6, 7, 9, 12, 91, 657, 1729, 7 * 101**3)
_P91 = (CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1))
_GENS_657 = [CubicPoint(-7, 10, 1), CubicPoint(7, 17, 2), CubicPoint(-2890, 2971, 147)]


class TestIntegerGroupLaw:
    @pytest.mark.parametrize("m0", _SWEEP_M0)
    def test_matches_weierstrass_transport(self, m0):
        cfg = CurveConfig(m0)
        found = search_points(cfg, 40)
        points = [CUBIC_IDENTITY, *found, *(p.neg() for p in found)]
        for p in found:
            double = _transported_add(cfg, p, p)
            points += [double, _transported_add(cfg, double, p)]
            points.append(_transported_add(cfg, double, double))
        for p, q in itertools.product(points, repeat=2):
            assert cubic_add(cfg, p, q) == _transported_add(cfg, p, q)

    @given(st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_lattice_sweep_on_91(self, i, j):
        cfg = CurveConfig(91)
        w1, w2 = (to_weierstrass(cfg, p) for p in _P91)
        expected = from_weierstrass(cfg, add(cfg, smul(cfg, i, w1), smul(cfg, j, w2)))
        p, q = (cubic_smul(cfg, k, g) for k, g in zip((i, j), _P91))
        assert cubic_add(cfg, p, q) == expected

    def test_rank_three_lattice(self):
        cfg = CurveConfig(657)
        indices = chosen_indices(cfg, _GENS_657, 4)
        assert generate_lattice_points(cfg, _GENS_657, indices) == (
            _transported_lattice(cfg, _GENS_657, indices)
        )

    def test_lattice_never_touches_the_weierstrass_model(self, monkeypatch):
        # a structural speed guard: the lattice is integer arithmetic only
        cfg = CurveConfig(91)
        indices = chosen_indices(cfg, _P91, 8)
        expected = _transported_lattice(cfg, list(_P91), indices)

        def refuse(*args):
            raise AssertionError("the Weierstrass model was used")

        for module in (curves, construct):
            monkeypatch.setattr(module, "weierstrass_image", refuse, raising=False)
        monkeypatch.setattr(group_reference, "add", refuse)
        assert generate_lattice_points(cfg, list(_P91), indices) == expected

    @given(
        st.lists(
            st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40)),
            min_size=6,
            max_size=6,
        )
    )
    @settings(max_examples=300)
    def test_twelve_products_equal_the_monomials(self, coords):
        # cubic_add's twelve products against the eighteen-multiplication
        # monomials: a polynomial identity, so triples off every curve count
        # too; a zero sum sends cubic_add to its rotated formulas instead
        p, q = CubicPoint(*coords[:3]), CubicPoint(*coords[3:])
        sum_ = loop_reference.hessian_sum_monomials(p, q)
        if sum_ == (0, 0, 0):
            return
        try:
            expected = CubicPoint.from_triple(*sum_)
        except ValueError as refused:
            with pytest.raises(ValueError) as info:
                cubic_add(CurveConfig(1), p, q)
            assert str(info.value) == str(refused)
        else:
            assert cubic_add(CurveConfig(1), p, q) == expected

    def test_both_formulas_vanishing_is_refused(self, cfg6):
        # (0, 0, 1) is on no curve with m0 != 0, and both formulas vanish
        # on its double
        p = CubicPoint(0, 0, 1)
        with pytest.raises(ValueError, match="both addition formulas vanish"):
            cubic_add(cfg6, p, p)
