"""Canonical heights: local heights against the doubling reference, laws,
windows, the float floor, and the cubic engine against the Weierstrass
engine it replaced."""

import math
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge import curves, heights
from cubeforge import (
    CUBIC_IDENTITY,
    CubicPoint,
    CurveConfig,
    PrecisionBudgetError,
    canonical_height,
    cubic_add,
    independence,
    on_cubic,
    search_points,
    weierstrass_image,
)
from cubeforge.numeric import ApproxReal, icbrt
from tests import doubling_reference as ref
from tests import group_reference, loop_reference
from tests.group_reference import (
    INFINITY,
    WeierstrassPoint,
    add,
    cubic_smul,
    is_torsion,
    naive_height,
    offset_window,
    offset_window_holds,
    smul,
    to_weierstrass,
)
from tests.conftest import KNOWN_GENERATORS
from tests.doubling_reference import (
    digit_budget,
    double_x,
    doubling_resultant,
    tail_constant,
)

TOL = 1e-3

# the generator pairs of the certificate benchmark, which certify independent
POOL = {
    91: (CubicPoint(-5, 6, 1), CubicPoint(3, 4, 1)),
    1729: (CubicPoint(1, 12, 1), CubicPoint(9, 10, 1)),
}


def pool_points():
    """(cfg, name, point) for both generators of each pool curve and their sum."""
    for m0, (p, q) in POOL.items():
        cfg = CurveConfig(m0)
        yield cfg, f"{m0}:P1", p
        yield cfg, f"{m0}:P2", q
        yield cfg, f"{m0}:P1+P2", cubic_add(cfg, p, q)


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
        for p in (CUBIC_IDENTITY, CubicPoint(3, -3, 0)):
            h = canonical_height(cfg6, p, TOL)
            assert (h.value, h.radius) == (0.0, 0.0)

    def test_zero_triple_rejected(self, cfg6):
        # 0 = m0 * 0, but (0, 0, 0) is no point, not even the identity
        with pytest.raises(ValueError, match="is not on"):
            canonical_height(cfg6, CubicPoint(0, 0, 0), TOL)

    def test_two_torsion_exact_zero(self):
        cfg = CurveConfig(2)
        p = CubicPoint(1, 1, 1)
        assert to_weierstrass(cfg, p) == WeierstrassPoint.affine(12, 0)
        for tol in (TOL, 1e-12):
            h = canonical_height(cfg, p, tol)
            assert (h.value, h.radius) == (0.0, 0.0)

    def test_three_torsion_small(self, cfg1):
        # 3P = O is recognised, so the answer is exact, not just small
        for p in (CubicPoint(0, 1, 1), CubicPoint(1, 0, 1)):
            h = canonical_height(cfg1, p, TOL)
            assert (h.value, h.radius) == (0.0, 0.0)

    def test_radius_meets_tolerance(self, cfg6, gen6):
        for tol in (1e-1, 1e-2, 1e-3):
            h = canonical_height(cfg6, gen6, tol)
            assert h.radius <= tol

    def test_window_bound_coarse_tol(self, cfg6, gen6):
        # value must sit inside [0, h_x/2 + C] already at tol = 1e-2
        h = canonical_height(cfg6, gen6, 1e-2)
        assert 0.0 <= h.value <= 3.3322045101752039 / 2 + 3.1846574212 + 1e-2

    def test_refinement_honesty(self, cfg6, cfg7):
        for cfg, gen in ((cfg6, KNOWN_GENERATORS[6]), (cfg7, KNOWN_GENERATORS[7])):
            for coarse_tol, fine_tol in ((1e-2, 1e-4), (1e-4, 1e-12)):
                coarse = canonical_height(cfg, gen, coarse_tol)
                fine = canonical_height(cfg, gen, fine_tol)
                assert coarse.lower() <= fine.value <= coarse.upper()
                assert fine.radius <= coarse.radius

    def test_invalid_tol(self, cfg6, gen6):
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                canonical_height(cfg6, gen6, tol)

    def test_off_curve_rejected(self, cfg6):
        # Tate's series and the reduction test hold only on the curve
        with pytest.raises(ValueError, match="is not on"):
            canonical_height(cfg6, CubicPoint(17, 37, 22), TOL)

    def test_negative_multiple_same_height(self, cfg6, gen6):
        h1 = canonical_height(cfg6, gen6, TOL)
        h2 = canonical_height(cfg6, gen6.neg(), TOL)
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
    """The same chain through the integer X-only doubling of the reference."""
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

    # k chosen by the reference engine at tol 1e-4 on both pool curves
    STEPS = 8

    def test_known_generators(self):
        for m0 in (6, 7, 9):
            cfg = CurveConfig(m0)
            w = to_weierstrass(cfg, KNOWN_GENERATORS[m0])
            assert integer_chain(cfg, w, self.STEPS) == fraction_chain(
                cfg, w, self.STEPS
            )

    def test_pool_points(self):
        for cfg, name, p in pool_points():
            w = to_weierstrass(cfg, p)
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
    """The reference's heights and budget errors, frozen from the Fraction
    doubling engine."""

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
        for cfg, name, p in pool_points():
            h = ref.canonical_height(cfg, to_weierstrass(cfg, p), 1e-4)
            assert (h.value.hex(), h.radius.hex()) == self.FROZEN[name], name

    def test_budget_error(self, cfg6, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "2000")
        with pytest.raises(PrecisionBudgetError) as info:
            ref.canonical_height(cfg6, WeierstrassPoint.affine(28, 80), 1e-9)
        assert str(info.value) == (
            "precision budget exceeded: tolerance 1e-09 needs about "
            "8589934592 digits but the budget is 2000; achievable tolerance "
            "is about 0.0125"
        )
        assert info.value.achievable_tol.hex() == "0x1.980b504de971cp-7"


    @pytest.mark.parametrize(
        "tol", [10.0**-k for k in range(1, 13)] + [1e-15, 1e-16]
    )
    @pytest.mark.parametrize("m0", [6, 7, 91, 1729])
    def test_series_matches_an_interval_per_term(self, m0, tol, monkeypatch):
        # the float value/radius series against the per-term ApproxReal
        # one, bit for bit, and the same PrecisionBudgetError where the
        # float enclosure cannot carry tol (1e-15 on m0 = 6, 91 and 1729)
        cfg = CurveConfig(m0)
        good_height = heights._good_height
        if m0 in POOL:
            points = [p for c, _, p in pool_points() if c == cfg]
        else:
            p = KNOWN_GENERATORS[m0]
            points = [p, cubic_add(cfg, p, p)]

        def heights_of(series):
            monkeypatch.setattr(heights, "_good_height", series)
            out = []
            for p in points:
                try:
                    h = canonical_height(cfg, p, tol)
                except PrecisionBudgetError as exc:
                    out.append((str(exc), exc.achievable_tol.hex()))
                else:
                    out.append((h.value.hex(), h.radius.hex()))
            return out

        expected = heights_of(loop_reference.good_height)
        assert heights_of(good_height) == expected


class TestNoGroupLaw:
    def test_canonical_height_never_adds(self, monkeypatch):
        # the doubling reference doubles X alone: neither group law runs
        points = [(cfg, to_weierstrass(cfg, p)) for cfg, _, p in pool_points()]
        calls = []
        for module, name in (
            (curves, "cubic_add"),
            (heights, "cubic_add"),
            (group_reference, "add"),
        ):
            original = getattr(module, name)

            def counting(*args, _original=original):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        for cfg, w in points:
            ref.canonical_height(cfg, w, 1e-4)
        assert calls == []


class TestHeightLaws:
    def _pairs(self):
        for m0 in (6, 7):
            cfg = CurveConfig(m0)
            base = KNOWN_GENERATORS[m0]
            for a, b in ((1, 2), (1, 3), (2, 3), (1, -2), (2, -3)):
                yield cfg, cubic_smul(cfg, a, base), cubic_smul(cfg, b, base)

    def test_quadraticity(self):
        for cfg, p, _ in self._pairs():
            hp = canonical_height(cfg, p, TOL)
            h2p = canonical_height(cfg, cubic_add(cfg, p, p), TOL)
            assert abs(h2p.value - 4 * hp.value) <= 5 * TOL

    def test_parallelogram(self):
        for cfg, p, q in self._pairs():
            residual = (
                canonical_height(cfg, cubic_add(cfg, p, q), TOL).value
                + canonical_height(cfg, cubic_add(cfg, p, q.neg()), TOL).value
                - 2 * canonical_height(cfg, p, TOL).value
                - 2 * canonical_height(cfg, q, TOL).value
            )
            assert abs(residual) <= 6 * TOL


class TestPrecisionBudget:
    """The digit budget of the doubling reference."""

    def test_budget_error(self, cfg6, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "2000")
        w = WeierstrassPoint.affine(28, 80)
        with pytest.raises(PrecisionBudgetError) as info:
            ref.canonical_height(cfg6, w, 1e-9)
        assert "precision budget exceeded" in str(info.value)
        assert 0 < info.value.achievable_tol < 1.0

    def test_achievable_tol_honest(self, cfg6, monkeypatch):
        w = WeierstrassPoint.affine(28, 80)
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "2000")
        try:
            ref.canonical_height(cfg6, w, 1e-9)
        except PrecisionBudgetError as exc:
            monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "2100")
            h = ref.canonical_height(cfg6, w, exc.achievable_tol)
            assert h.radius <= exc.achievable_tol

    def test_env_override(self, cfg6, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "1500")
        assert digit_budget() == 1500
        with pytest.raises(PrecisionBudgetError):
            ref.canonical_height(cfg6, WeierstrassPoint.affine(28, 80), 1e-9)

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("CUBEFORGE_DIGIT_BUDGET", "-5")
        with pytest.raises(ValueError):
            digit_budget()


class TestPairing:
    """The height pairing <P, Q>, read off the Gram matrix of independence."""

    def test_self_pairing_doubles_height(self, cfg6, gen6):
        # P + P takes the rotated (doubling) formulas of cubic_add
        pp = independence(cfg6, [gen6, gen6], TOL)[0][0][1]
        h = canonical_height(cfg6, gen6, TOL)
        assert abs(pp.value - 2 * h.value) <= 5 * TOL
        assert pp.radius <= 3 * TOL

    def test_pairing_with_infinity(self, cfg6, gen6):
        p0 = independence(cfg6, [gen6, CUBIC_IDENTITY], TOL)[0][0][1]
        assert abs(p0.value) <= 2 * TOL

    def test_symmetry(self, cfg7, gen7):
        p, q = gen7, cubic_smul(cfg7, 2, gen7)
        a = independence(cfg7, [p, q], TOL)[0][0][1]
        b = independence(cfg7, [q, p], TOL)[0][0][1]
        assert abs(a.value - b.value) <= a.radius + b.radius


class TestIndependence:
    def test_single_generator_independent(self, cfg6, gen6):
        gram, ok = independence(cfg6, [gen6], TOL)
        assert ok
        h = canonical_height(cfg6, gen6, TOL)
        assert abs(gram[0][0].value - 2 * h.value) <= (
            gram[0][0].radius + 2 * h.radius
        )

    def test_torsion_not_certified(self, cfg1):
        # (0, 1, 1) maps to the 3-torsion point (12, 36)
        _, ok = independence(cfg1, [CubicPoint(0, 1, 1)], TOL)
        assert not ok

    def test_dependent_pair_not_certified(self, cfg6, gen6):
        _, ok = independence(cfg6, [gen6, cubic_smul(cfg6, 2, gen6)], TOL)
        assert not ok

    def test_gram_symmetric(self, cfg6, gen6):
        gram, _ = independence(cfg6, [gen6, cubic_smul(cfg6, 2, gen6)], TOL)
        assert gram[0][1] == gram[1][0]

    def test_empty_rejected(self, cfg6):
        with pytest.raises(ValueError):
            independence(cfg6, [], TOL)


def _exact_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Fraction elimination with row exchanges."""
    a = [list(row) for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


@st.composite
def symmetric_64ths(draw, diagonal=(0, 1024)):
    """A symmetric n x n matrix, 1 <= n <= 5, of numerators k of k/64."""
    n = draw(st.integers(1, 5))
    k = [[0] * n for _ in range(n)]
    for i in range(n):
        k[i][i] = draw(st.integers(*diagonal))
        for j in range(i + 1, n):
            k[i][j] = k[j][i] = draw(st.integers(-256, 256))
    return k


def _exact_matrix(k):
    return [[ApproxReal(v / 64, 0.0) for v in row] for row in k]


class TestPositivePivots:
    """positive_definite: every elimination pivot certified positive."""

    @settings(max_examples=300, deadline=None)
    @given(symmetric_64ths())
    def test_certified_means_every_leading_minor_positive(self, k):
        exact = [[Fraction(v, 64) for v in row] for row in k]
        if heights.positive_definite(_exact_matrix(k)):
            for size in range(1, len(k) + 1):
                minor = [row[:size] for row in exact[:size]]
                assert _exact_det(minor) > 0

    @settings(max_examples=200, deadline=None)
    @given(symmetric_64ths(diagonal=(0, 0)), st.data())
    def test_diagonally_dominant_is_certified(self, k, data):
        # a positive diagonal above each row's off-diagonal sum
        for i, row in enumerate(k):
            row[i] = sum(abs(v) for v in row) + data.draw(st.integers(1, 64))
        assert heights.positive_definite(_exact_matrix(k))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-64, 64), min_size=n - 1, max_size=n - 1),
                min_size=n,
                max_size=n,
            )
        ),
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1]),
    )
    def test_gram_of_dependent_vectors_is_never_certified(self, vectors, radius):
        # n vectors in R^(n-1): the Gram matrix is singular, and its integer
        # entries are exact floats, so the centre itself is singular
        gram = [
            [ApproxReal(float(sum(a * b for a, b in zip(u, v))), radius)
             for v in vectors]
            for u in vectors
        ]
        assert not heights.positive_definite(gram)

    def test_pivots_on_the_largest_lower_end(self):
        # every matrix inside is positive definite: only G_00 is an interval,
        # and each leading minor is linear in it and positive at both ends.
        # Eliminating on G_00 = [5.5, 6.5] first leaves a last pivot whose
        # enclosure reaches below zero; pivoting on G_11 = 8 first certifies it
        gram = _exact_matrix([[384, -320, -128], [-320, 512, 384],
                              [-128, 384, 384]])
        gram[0][0] = ApproxReal(6.0, 0.5)
        for g00 in (Fraction(11, 2), Fraction(13, 2)):
            exact = [[g00, -5, -2], [-5, 8, 6], [-2, 6, 6]]
            for size in range(1, 4):
                assert _exact_det([row[:size] for row in exact[:size]]) > 0
        assert heights.positive_definite(gram)

    def test_input_is_left_as_it_was(self):
        gram = _exact_matrix([[128, 64], [64, 128]])
        before = [list(row) for row in gram]
        assert heights.positive_definite(gram)
        assert gram == before


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


RANK_THREE_657 = (
    CubicPoint(-7, 10, 1),
    CubicPoint(7, 17, 2),
    CubicPoint(-2890, 2971, 147),
)


def cross_engine_samples():
    """(label, cfg, point) for the known generators, both pool curves and
    the rank-3 set on m0=657, with the pairwise sums of the last two."""
    for m0 in (6, 7, 9, -7):
        gen = KNOWN_GENERATORS.get(m0, CubicPoint(-2, 1, 1))
        yield f"{m0}:G", CurveConfig(m0), gen
    for cfg, name, p in pool_points():
        yield name, cfg, p
    cfg = CurveConfig(657)
    gens = RANK_THREE_657
    for i, p in enumerate(gens):
        yield f"657:P{i + 1}", cfg, p
        for j in range(i + 1, len(gens)):
            yield f"657:P{i + 1}+P{j + 1}", cfg, cubic_add(cfg, p, gens[j])


class TestCrossEngine:
    """Local heights against the doubling reference: the intervals meet."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-4])
    def test_samples(self, tol):
        for label, cfg, p in cross_engine_samples():
            new = canonical_height(cfg, p, tol)
            old = ref.canonical_height(cfg, to_weierstrass(cfg, p), tol)
            assert new.radius <= tol, label
            assert new.intersects(old), (label, new, old)

    @settings(max_examples=20, deadline=None)
    @given(
        i=st.integers(-4, 4),
        j=st.integers(-4, 4),
        tol=st.sampled_from([1e-3, 1e-4]),
    )
    def test_pool_lattice(self, i, j, tol):
        cfg = CurveConfig(91)
        p, q = POOL[91]
        s = cubic_add(cfg, cubic_smul(cfg, i, p), cubic_smul(cfg, j, q))
        new = canonical_height(cfg, s, tol)
        old = ref.canonical_height(cfg, to_weierstrass(cfg, s), tol)
        assert new.radius <= tol
        assert new.intersects(old), (new, old)


RANK_FOUR = {
    152551: (
        CubicPoint(54, -17, 1),
        CubicPoint(55, -24, 1),
        CubicPoint(226, -225, 1),
        CubicPoint(705, -668, 7),
    ),
    526535: (
        CubicPoint(207, -167, 2),
        CubicPoint(323, -3, 4),
        CubicPoint(363, 262, 5),
        CubicPoint(633, -418, 7),
    ),
}

# both pool pairs, the rank-3 set on m0=657 and two rank-4 sets
ENGINE_SETS = {
    **{f"{m0}": gens for m0, gens in POOL.items()},
    "657": RANK_THREE_657,
    **{f"{m0}": gens for m0, gens in RANK_FOUR.items()},
}


def bits(e):
    return (e.value.hex(), e.radius.hex())


def signed_sums(cfg, gens):
    """The generators and every P_i + P_j and P_i - P_j with i < j."""
    points = list(gens)
    for p, q in combinations(gens, 2):
        points += [cubic_add(cfg, p, q), cubic_add(cfg, p, q.neg())]
    return points


class TestFractionLawReference:
    """Heights, good multiples and Gram matrices read on the cubic against
    the Weierstrass engine and Fraction law they replaced, bit for bit."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    @pytest.mark.parametrize("m0", sorted(ENGINE_SETS, key=int))
    def test_bit_identical(self, m0, tol):
        cfg = CurveConfig(int(m0))
        gens = list(ENGINE_SETS[m0])
        for p in signed_sums(cfg, gens):
            n, q = heights.good_multiple(cfg, p)
            w = to_weierstrass(cfg, p)
            assert (n, to_weierstrass(cfg, q)) == group_reference.good_multiple(
                cfg, w
            )
        gram, _ = independence(cfg, gens, tol)
        ws = [to_weierstrass(cfg, g) for g in gens]
        expected = group_reference.gram(cfg, ws, tol)
        assert [list(map(bits, row)) for row in gram] == [
            list(map(bits, row)) for row in expected
        ]

    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    @pytest.mark.parametrize("m0", [6, 7, 9, *sorted(ENGINE_SETS, key=int)])
    def test_heights_match_weierstrass_engine(self, m0, tol):
        cfg = CurveConfig(int(m0))
        gens = [KNOWN_GENERATORS[m0]] if m0 in KNOWN_GENERATORS else ENGINE_SETS[m0]
        for p in signed_sums(cfg, gens):
            w = to_weierstrass(cfg, p)
            assert canonical_height(cfg, p, tol) == (
                group_reference.canonical_height(cfg, w, tol)
            ), p

    @pytest.mark.parametrize("m0", [1, 2, 9])
    def test_torsion_verdicts_match(self, m0):
        cfg = CurveConfig(m0)
        for p in [CUBIC_IDENTITY, *search_points(cfg, 40)]:
            w = to_weierstrass(cfg, p)
            torsion = w.is_infinity or is_torsion(cfg, w)
            assert (canonical_height(cfg, p, TOL).value == 0.0) == torsion, p

    @pytest.mark.parametrize("m0", sorted(RANK_FOUR))
    def test_rank_four_independent(self, m0):
        cfg = CurveConfig(m0)
        assert all(on_cubic(cfg, *g.triple()) for g in RANK_FOUR[m0])
        gram, ok = independence(cfg, list(RANK_FOUR[m0]), 1e-3)
        assert ok
        assert len(gram) == 4


class TestNegationIsExact:
    """hhat(-P) == hhat(P) bit for bit, where -(x, y, z) = (y, x, z).

    build_certificate negates generators and their Gram rows without
    recomputing a height, and verify recomputes from the negated points.
    Negation maps (X, Y) to (X, -Y) on every multiple, and the engine reads
    Y only through a gcd, so the two runs do the same arithmetic.
    """

    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    @pytest.mark.parametrize("m0", sorted(ENGINE_SETS, key=int))
    def test_generators(self, m0, tol):
        cfg = CurveConfig(int(m0))
        for g in ENGINE_SETS[m0]:
            plus = canonical_height(cfg, g, tol)
            minus = canonical_height(cfg, g.neg(), tol)
            assert minus == plus, g


def tate_step(b, t):
    """One exact step t -> 4t(1 + b t^3) / (1 - 8 b t^3) of Tate's series."""
    return 4 * t * (1 + b * t**3) / (1 - 8 * b * t**3)


class TestLocalHeights:
    def test_tight_tolerance_is_fast(self):
        start = time.perf_counter()
        found = [
            (name, canonical_height(cfg, p, 1e-12)) for cfg, name, p in pool_points()
        ]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        for name, h in found:
            assert 0.0 < h.radius <= 1e-12, name

    @pytest.mark.parametrize("m0", [6, 91, 1729, 7 * 101**3])
    def test_tate_step_is_four_lipschitz(self, m0):
        # exact slopes between neighbours of a grid on 0 < t <= |b|^(-1/3),
        # the real locus the fixed-point recursion is clamped to
        b = CurveConfig(m0).b
        t_max = Fraction(1, icbrt(-b)[0] + 1)
        grid = [t_max * Fraction(k, 400) for k in range(401)]
        slopes = [
            abs(tate_step(b, t2) - tate_step(b, t1)) / (t2 - t1)
            for t1, t2 in zip(grid, grid[1:])
        ]
        assert max(slopes) <= 4
        # the bound is sharp at t = 0, where f'(0) = 4
        assert max(slopes) > Fraction(39, 10)

    def test_derivative_formula_bound(self):
        # f'(t) = 4 (1 - 20u - 8u^2) / (1 + 8u)^2 with u = -b t^3 in [0, 1]
        for k in range(1001):
            u = Fraction(k, 1000)
            assert abs(4 * (1 - 20 * u - 8 * u * u)) <= 4 * (1 + 8 * u) ** 2

    @pytest.mark.parametrize("m0", [6, -6, 7, -7, 9, 12, 91, 657, 854, 1729])
    def test_small_good_multiple(self, m0):
        cfg = CurveConfig(m0)
        found = [p for p in search_points(cfg, 60) if p.x + p.y != 0]
        assert found
        for p in found:
            n, q = heights.good_multiple(cfg, p)
            assert 1 <= n <= 6, p
            assert q == cubic_smul(cfg, n, p)
            assert to_weierstrass(cfg, q) == smul(cfg, n, to_weierstrass(cfg, p))
            a, _, c, _ = weierstrass_image(cfg, q)
            assert math.gcd(a, c, 6 * m0) == 1

    def test_good_multiple_takes_n_minus_one_additions(self, monkeypatch):
        calls = []
        original = heights.cubic_add

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(heights, "cubic_add", counting)
        for cfg, name, p in pool_points():
            n, _ = group_reference.good_multiple(cfg, to_weierstrass(cfg, p))
            calls.clear()
            canonical_height(cfg, p, TOL)
            assert n == 3, name
            assert len(calls) == n - 1, name

    def test_far_good_multiple_refused(self):
        # least good multiple 102, past the cap of 60
        cfg = CurveConfig(7 * 101**3)
        with pytest.raises(ValueError, match="nonsingular reduction"):
            canonical_height(cfg, CubicPoint(202, -101, 1), TOL)

    def test_non_minimal_model_multiple(self):
        # m0 = 7^4 is not cube-free: its model is not minimal at 7
        cfg = CurveConfig(7**4)
        p = CubicPoint(-7, 14, 1)
        assert heights.good_multiple(cfg, p)[0] == 42
        h = canonical_height(cfg, p, 1e-6)
        assert h.radius <= 1e-6
        assert h.intersects(ref.canonical_height(cfg, to_weierstrass(cfg, p), 1e-2))


class TestFloatFloor:
    """PrecisionBudgetError now means a tol the float result cannot carry."""

    def test_below_float_floor(self, cfg6, gen6):
        with pytest.raises(PrecisionBudgetError) as info:
            canonical_height(cfg6, gen6, 1e-300)
        assert "below the float enclosure" in str(info.value)
        assert 1e-16 < info.value.achievable_tol < 1e-12

    def test_achievable_tol_honest(self):
        for cfg, name, p in pool_points():
            with pytest.raises(PrecisionBudgetError) as info:
                canonical_height(cfg, p, 1e-17)
            tol = info.value.achievable_tol
            assert canonical_height(cfg, p, tol).radius <= tol, name

    def test_huge_tolerance(self, cfg6, gen6):
        fine = canonical_height(cfg6, gen6, 1e-6)
        for tol in (1.0, 1e300, math.inf):
            h = canonical_height(cfg6, gen6, tol)
            assert h.radius <= 1.0
            assert h.lower() <= fine.value <= h.upper()
