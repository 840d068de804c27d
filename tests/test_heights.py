"""Canonical heights: convergence, laws, windows, and budget behavior."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge import curves, heights
from cubeforge import (
    CubicPoint,
    CurveConfig,
    INFINITY,
    PrecisionBudgetError,
    WeierstrassPoint,
    add,
    canonical_height,
    independence,
    naive_height,
    offset_window,
    offset_window_holds,
    pairing,
    smul,
    to_weierstrass,
)
from cubeforge.heights import (
    digit_budget,
    double_x,
    doubling_resultant,
    tail_constant,
)
from tests.conftest import KNOWN_GENERATORS

TOL = 1e-3

# the generator pairs of the certificate benchmark, which certify independent
POOL = {
    91: (CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)),
    1729: (CubicPoint(1, 12, 1), CubicPoint(9, 10, 1)),
}


def pool_points():
    """(cfg, name, point) for both generators of each pool curve and their sum."""
    for m0, gens in POOL.items():
        cfg = CurveConfig(m0)
        p, q = (to_weierstrass(cfg, g) for g in gens)
        yield cfg, f"{m0}:P1", p
        yield cfg, f"{m0}:P2", q
        yield cfg, f"{m0}:P1+P2", add(cfg, p, q)


class TestNaiveHeight:
    def test_infinity_exact_zero(self):
        assert naive_height(INFINITY).value == 0.0
        assert naive_height(INFINITY).radius == 0.0

    def test_integer_point(self):
        h = naive_height(WeierstrassPoint.affine(28, 80))
        assert abs(h.value - 3.3322045101752039) < 1e-12

    def test_fractional_point(self):
        from fractions import Fraction

        h = naive_height(WeierstrassPoint(Fraction(16009, 100), Fraction(1)))
        assert abs(h.value - 9.680906343078094) < 1e-12

    def test_denominator_dominates(self):
        from fractions import Fraction

        h = naive_height(WeierstrassPoint(Fraction(3, 16009), Fraction(1)))
        assert abs(h.value - 9.680906343078094) < 1e-12


class TestTailConstant:
    def test_frozen_value(self, cfg6):
        c = tail_constant(cfg6)
        assert abs(c.value - 3.1846574211167034) < 1e-10
        assert c.radius < 1e-10


class TestCanonicalHeight:
    def test_infinity_exact_zero(self, cfg6):
        h = canonical_height(cfg6, INFINITY, TOL)
        assert (h.value, h.radius) == (0.0, 0.0)

    def test_two_torsion_exact_zero(self):
        cfg = CurveConfig(2)
        w = to_weierstrass(cfg, CubicPoint(1, 1, 1))
        assert w == WeierstrassPoint.affine(12, 0)
        h = canonical_height(cfg, w, TOL)
        assert (h.value, h.radius) == (0.0, 0.0)

    def test_three_torsion_small(self, cfg1):
        h = canonical_height(cfg1, WeierstrassPoint.affine(12, 36), TOL)
        assert h.value <= TOL
        assert h.radius <= TOL

    def test_radius_meets_tolerance(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        for tol in (1e-1, 1e-2, 1e-3):
            h = canonical_height(cfg6, w, tol)
            assert h.radius <= tol

    def test_window_bound_coarse_tol(self, cfg6):
        # value must sit inside [0, h_x/2 + C] already at tol = 1e-2
        w = WeierstrassPoint.affine(28, 80)
        h = canonical_height(cfg6, w, 1e-2)
        assert 0.0 <= h.value <= 3.3322045101752039 / 2 + 3.1846574212 + 1e-2

    def test_refinement_honesty(self, cfg6, cfg7):
        for cfg, gen in ((cfg6, KNOWN_GENERATORS[6]), (cfg7, KNOWN_GENERATORS[7])):
            w = to_weierstrass(cfg, gen)
            coarse = canonical_height(cfg, w, 1e-2)
            fine = canonical_height(cfg, w, 1e-4)
            assert coarse.lower() <= fine.value <= coarse.upper()
            assert fine.radius <= coarse.radius

    def test_invalid_tol(self, cfg6):
        with pytest.raises(ValueError):
            canonical_height(cfg6, WeierstrassPoint.affine(28, 80), 0.0)

    def test_off_curve_rejected(self, cfg6):
        # the X-only doubling formula is only valid on the curve
        with pytest.raises(ValueError, match="is not on"):
            canonical_height(cfg6, WeierstrassPoint.affine(28, 81), TOL)

    def test_negative_multiple_same_height(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        h1 = canonical_height(cfg6, w, TOL)
        h2 = canonical_height(cfg6, WeierstrassPoint.affine(28, -80), TOL)
        assert abs(h1.value - h2.value) <= h1.radius + h2.radius


def fraction_chain(cfg, w, steps):
    """X of 2^j P in lowest terms for j = 1..steps, by the exact group law.

    Stops after the first doubling that reaches infinity, reported as None.
    """
    chain = []
    q = w
    for _ in range(steps):
        q = add(cfg, q, q)
        if q.is_infinity:
            chain.append(None)
            break
        chain.append((q.x.numerator, q.x.denominator))
    return chain


def integer_chain(cfg, w, steps):
    """The same chain through the integer X-only doubling of canonical_height."""
    chain = []
    a, d = w.x.numerator, w.x.denominator
    for _ in range(steps):
        a, d = double_x(a, d, cfg.b)
        if d == 0:
            chain.append(None)
            break
        assert math.gcd(a, d) == 1 and d > 0
        chain.append((a, d))
    return chain


def sylvester_resultant(f, g):
    """Exact resultant of two binary forms given by coefficient lists."""
    n = len(f) + len(g) - 2
    rows = [[0] * i + f + [0] * (n - len(f) - i) for i in range(len(g) - 1)]
    rows += [[0] * i + g + [0] * (n - len(g) - i) for i in range(len(f) - 1)]
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


class TestIntegerDoubling:
    """The X-only integer doubling against the Fraction group law."""

    # k chosen by canonical_height at tol 1e-4 on both pool curves
    STEPS = 8

    def test_known_generators(self):
        for m0 in (6, 7, 9):
            cfg = CurveConfig(m0)
            w = to_weierstrass(cfg, KNOWN_GENERATORS[m0])
            assert integer_chain(cfg, w, self.STEPS) == fraction_chain(
                cfg, w, self.STEPS
            )

    def test_pool_points(self):
        for cfg, name, w in pool_points():
            chain = integer_chain(cfg, w, self.STEPS)
            assert len(chain) == self.STEPS, name
            assert chain == fraction_chain(cfg, w, self.STEPS), name

    def test_negative_m0(self):
        cfg = CurveConfig(-7)
        w = to_weierstrass(cfg, CubicPoint(-2, 1, 1))
        assert integer_chain(cfg, w, self.STEPS) == fraction_chain(
            cfg, w, self.STEPS
        )

    def test_torsion(self, cfg1):
        two = (CurveConfig(2), WeierstrassPoint.affine(12, 0))
        three = (cfg1, WeierstrassPoint.affine(12, 36))
        for cfg, w in (two, three):
            assert integer_chain(cfg, w, 3) == fraction_chain(cfg, w, 3)
        assert integer_chain(*two, 3) == [None]

    @settings(max_examples=40, deadline=None)
    @given(
        m0=st.sampled_from([6, 7, 9, -7, 91]),
        i=st.integers(-3, 3),
        j=st.integers(-2, 2),
    )
    def test_small_multiples(self, m0, i, j):
        # i P1 + j P2 on the rank-2 pool curve, i P on the rank-1 curves
        cfg = CurveConfig(m0)
        if m0 in POOL:
            p, q = (to_weierstrass(cfg, g) for g in POOL[m0])
            w = add(cfg, smul(cfg, i, p), smul(cfg, j, q))
        else:
            gen = KNOWN_GENERATORS.get(m0, CubicPoint(-2, 1, 1))
            w = smul(cfg, i, to_weierstrass(cfg, gen))
        if w.is_infinity:
            return
        assert integer_chain(cfg, w, 5) == fraction_chain(cfg, w, 5)

    @pytest.mark.parametrize("m0", [1, 6, -7, 91, 1729])
    def test_resultant_constant(self, m0):
        # F = A^4 - 8bAB^3 and G = 4A^3B + 4bB^4, the doubling forms
        b = CurveConfig(m0).b
        f = [1, 0, 0, -8 * b, 0]
        g = [0, 4, 0, 0, 4 * b]
        assert sylvester_resultant(f, g) == doubling_resultant(b)

    @settings(max_examples=200, deadline=None)
    @given(
        m0=st.sampled_from([1, 6, -7, 91, 1729]),
        a=st.integers(-(10**12), 10**12),
        d=st.integers(1, 10**12),
    )
    def test_common_factor_divides_resultant(self, m0, a, d):
        # on coprime inputs, on the curve or not, gcd(F, G) divides R
        if math.gcd(a, d) != 1:
            return
        b = CurveConfig(m0).b
        num = a**4 - 8 * b * a * d**3
        den = 4 * a**3 * d + 4 * b * d**4
        assert doubling_resultant(b) % math.gcd(num, den) == 0


class TestBitIdentical:
    """Heights and budget errors frozen from the Fraction doubling engine."""

    # (value, radius) of canonical_height at tol 1e-4, as float.hex()
    FROZEN = {
        "91:P1": ("0x1.392a406cc059ep-1", "0x1.05d356bf6f062p-14"),
        "91:P2": ("0x1.0770737bc9141p-1", "0x1.05d356bf6d464p-14"),
        "91:P1+P2": ("0x1.84e441aeb562cp+0", "0x1.05d356bf7f5f1p-14"),
        "1729:P1": ("0x1.a85be8665b995p-1", "0x1.44a3e6cf7f784p-14"),
        "1729:P2": ("0x1.af7f555155a16p-1", "0x1.44a3e6cf7fb89p-14"),
        "1729:P1+P2": ("0x1.4a70d873a79a2p+0", "0x1.44a3e6cf87cabp-14"),
    }

    def test_pool_heights(self):
        for cfg, name, w in pool_points():
            h = canonical_height(cfg, w, 1e-4)
            assert (h.value.hex(), h.radius.hex()) == self.FROZEN[name], name

    def test_budget_error(self, cfg6, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "2000")
        with pytest.raises(PrecisionBudgetError) as info:
            canonical_height(cfg6, WeierstrassPoint.affine(28, 80), 1e-9)
        assert str(info.value) == (
            "precision budget exceeded: tolerance 1e-09 needs about "
            "8589934592 digits but the budget is 2000; achievable tolerance "
            "is about 0.0125"
        )
        assert info.value.achievable_tol.hex() == "0x1.980b504de971cp-7"


class TestNoGroupLaw:
    def test_canonical_height_never_adds(self, monkeypatch):
        points = list(pool_points())
        calls = []
        for module in (curves, heights):
            original = module.add

            def counting(*args, _original=original):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, "add", counting)
        for cfg, _, w in points:
            canonical_height(cfg, w, 1e-4)
        assert calls == []


class TestHeightLaws:
    def _pairs(self):
        for m0 in (6, 7):
            cfg = CurveConfig(m0)
            base = to_weierstrass(cfg, KNOWN_GENERATORS[m0])
            for a, b in ((1, 2), (1, 3), (2, 3), (1, -2), (2, -3)):
                yield cfg, smul(cfg, a, base), smul(cfg, b, base)

    def test_quadraticity(self):
        for cfg, p, _ in self._pairs():
            hp = canonical_height(cfg, p, TOL)
            h2p = canonical_height(cfg, add(cfg, p, p), TOL)
            assert abs(h2p.value - 4 * hp.value) <= 5 * TOL

    def test_parallelogram(self):
        for cfg, p, q in self._pairs():
            residual = (
                canonical_height(cfg, add(cfg, p, q), TOL).value
                + canonical_height(cfg, add(cfg, p, WeierstrassPoint(q.x, -q.y)), TOL).value
                - 2 * canonical_height(cfg, p, TOL).value
                - 2 * canonical_height(cfg, q, TOL).value
            )
            assert abs(residual) <= 6 * TOL


class TestPrecisionBudget:
    def test_budget_error(self, cfg6, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "2000")
        w = WeierstrassPoint.affine(28, 80)
        with pytest.raises(PrecisionBudgetError) as info:
            canonical_height(cfg6, w, 1e-9)
        assert "precision budget exceeded" in str(info.value)
        assert 0 < info.value.achievable_tol < 1.0

    def test_achievable_tol_honest(self, cfg6, monkeypatch):
        w = WeierstrassPoint.affine(28, 80)
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "2000")
        try:
            canonical_height(cfg6, w, 1e-9)
        except PrecisionBudgetError as exc:
            monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "2100")
            h = canonical_height(cfg6, w, exc.achievable_tol)
            assert h.radius <= exc.achievable_tol

    def test_env_override(self, cfg6, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "1500")
        assert digit_budget() == 1500
        with pytest.raises(PrecisionBudgetError):
            canonical_height(cfg6, WeierstrassPoint.affine(28, 80), 1e-9)

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "-5")
        with pytest.raises(ValueError):
            digit_budget()


class TestPairing:
    def test_self_pairing_doubles_height(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        pp = pairing(cfg6, w, w, TOL)
        h = canonical_height(cfg6, w, TOL)
        assert abs(pp.value - 2 * h.value) <= 5 * TOL
        assert pp.radius <= 3 * TOL

    def test_pairing_with_infinity(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        p0 = pairing(cfg6, w, INFINITY, TOL)
        assert abs(p0.value) <= 2 * TOL

    def test_symmetry(self, cfg7):
        base = to_weierstrass(cfg7, KNOWN_GENERATORS[7])
        p, q = base, smul(cfg7, 2, base)
        a = pairing(cfg7, p, q, TOL)
        b = pairing(cfg7, q, p, TOL)
        assert abs(a.value - b.value) <= a.radius + b.radius


class TestIndependence:
    def test_single_generator_independent(self, cfg6):
        gram, ok = independence(cfg6, [WeierstrassPoint.affine(28, 80)], TOL)
        assert ok
        h = canonical_height(cfg6, WeierstrassPoint.affine(28, 80), TOL)
        assert abs(gram[0][0].value - 2 * h.value) <= (
            gram[0][0].radius + 2 * h.radius
        )

    def test_torsion_not_certified(self, cfg1):
        _, ok = independence(cfg1, [WeierstrassPoint.affine(12, 36)], TOL)
        assert not ok

    def test_dependent_pair_not_certified(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        _, ok = independence(cfg6, [w, smul(cfg6, 2, w)], TOL)
        assert not ok

    def test_gram_symmetric(self, cfg6):
        w = WeierstrassPoint.affine(28, 80)
        gram, _ = independence(cfg6, [w, smul(cfg6, 2, w)], TOL)
        assert gram[0][1] == gram[1][0]

    def test_empty_rejected(self, cfg6):
        with pytest.raises(ValueError):
            independence(cfg6, [], TOL)


class TestOffsetWindow:
    def test_window_edges(self, cfg6):
        lo, hi = offset_window(cfg6)
        hb6 = 9.65194452670022 / 6
        assert abs(lo.value - (-hb6 - 1.48)) < 1e-10
        assert abs(hi.value - (hb6 + 1.576)) < 1e-10

    def test_holds_for_samples(self):
        for m0 in (6, 7, 9):
            cfg = CurveConfig(m0)
            base = to_weierstrass(cfg, KNOWN_GENERATORS[m0])
            for k in (1, 2, 3, -1, -2):
                assert offset_window_holds(cfg, smul(cfg, k, base), TOL)

    def test_holds_for_torsion(self, cfg1):
        assert offset_window_holds(cfg1, WeierstrassPoint.affine(12, 36), TOL)

    def test_infinity_rejected(self, cfg6):
        with pytest.raises(ValueError):
            offset_window_holds(cfg6, INFINITY, TOL)
