"""Integer kernels and the interval type."""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge.numeric import (
    ApproxReal,
    icbrt,
    interval_max,
    log_abs,
    read_decimal,
)


def contains_fraction(a: ApproxReal, q: Fraction) -> bool:
    return Fraction(a.lower()) <= q <= Fraction(a.upper())


def from_fraction(q: Fraction) -> ApproxReal:
    return ApproxReal.from_ratio(q.numerator, q.denominator)


def fraction_path(q: Fraction) -> ApproxReal:
    """The interval the package formed from a Fraction before from_ratio."""
    try:
        v = float(q)
    except OverflowError:
        raise ValueError("a rational beyond float range") from None
    if Fraction(v) == q:
        return ApproxReal(v, 0.0)
    return ApproxReal(v, 2.0 * math.ulp(abs(v)))


def bits(a: ApproxReal) -> tuple:
    """Value and radius bit for bit, the sign of a zero value included."""
    return (a.value.hex(), math.copysign(1.0, a.value), a.radius.hex())


class TestIcbrt:
    def test_examples(self):
        assert icbrt(27) == (3, True)
        assert icbrt(26) == (2, False)
        assert icbrt(-27) == (-3, True)
        assert icbrt(-26) == (-2, False)
        assert icbrt(0) == (0, True)
        assert icbrt(1) == (1, True)

    def test_huge_cube(self):
        n = (10**40 + 7) ** 3
        assert icbrt(n) == (10**40 + 7, True)
        assert icbrt(n + 1) == (10**40 + 7, False)
        assert icbrt(n - 1) == (10**40 + 7 - 1, False)

    @given(st.integers(0, 10**60))
    def test_floor_property(self, n):
        r, exact = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3
        assert exact == (r**3 == n)

    @given(st.integers(-10**20, 10**20))
    def test_cube_roundtrip(self, r):
        assert icbrt(r**3) == (r, True)


class TestReadDecimal:
    @pytest.mark.parametrize(
        "pad", ["", " ", " \t\n"], ids=["bare", "space", "white"]
    )
    @pytest.mark.parametrize("sign", ["", "+", "-"])
    @pytest.mark.parametrize("digits", [1, 4300, 4301])
    def test_digit_bound(self, digits, sign, pad):
        # the bound counts digits only: a sign and surrounding spaces take
        # 4,300 digits past 4,300 characters, and still read
        text = pad + sign + "7" * digits + pad
        if digits > 4300:
            with pytest.raises(ValueError, match="more than 4300 digits"):
                read_decimal(text)
        else:
            value = int("7" * digits)
            assert read_decimal(text) == (-value if sign == "-" else value)


class TestLogAbs:
    def test_exact_one(self):
        assert log_abs(1) == ApproxReal(0.0, 0.0)
        assert log_abs(-1) == ApproxReal(0.0, 0.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            log_abs(0)

    def test_frozen_value(self):
        # independently computed at 60-digit precision
        a = log_abs(16009)
        assert abs(a.value - 9.680906343078094) <= 1e-12
        assert a.radius <= 1e-8

    def test_sign_symmetric(self):
        assert log_abs(-16009) == log_abs(16009)

    @given(st.integers(min_value=2, max_value=10**300))
    @settings(max_examples=200)
    def test_encloses_true_log(self, n):
        a = log_abs(n)
        with mpmath.workdps(120):
            true = mpmath.log(n)
            assert mpmath.mpf(a.lower()) <= true <= mpmath.mpf(a.upper())
        assert a.radius <= 1e-12 * max(1.0, a.value)

    def test_relative_radius_huge(self):
        n = 7**100000
        a = log_abs(n)
        assert a.radius <= 1e-12 * a.value


fractions_st = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=10**6
)


class TestApproxReal:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxReal(1.0, -0.5)
        with pytest.raises(ValueError):
            ApproxReal(math.inf, 0.0)

    def test_exact_constructors(self):
        assert ApproxReal.from_int(7) == ApproxReal(7.0, 0.0)
        assert ApproxReal.from_ratio(1, 4) == ApproxReal(0.25, 0.0)
        big = ApproxReal.from_int(10**30)
        assert big.radius > 0
        assert contains_fraction(big, Fraction(10**30))

    def test_from_int_beyond_float_range(self):
        # the largest float converts; from 2^1024 - 2^970 on, float() overflows
        top = ApproxReal.from_int(2**1024 - 2**971)
        assert top.value == sys.float_info.max
        for n in (2**1024 - 2**970, 2**1024, -(2**1100)):
            with pytest.raises(ValueError, match=f"{n.bit_length()}-bit integer"):
                ApproxReal.from_int(n)

    def test_from_decimal(self):
        a = ApproxReal.from_decimal("1.48")
        assert contains_fraction(a, Fraction("1.48"))
        assert a.radius <= 1e-15

    @given(fractions_st, fractions_st)
    def test_add_sub_mul_enclose(self, p, q):
        a = from_fraction(p)
        b = from_fraction(q)
        assert contains_fraction(a + b, p + q)
        assert contains_fraction(a - b, p - q)
        assert contains_fraction(a * b, p * q)

    @given(fractions_st, fractions_st)
    def test_div_enclose(self, p, q):
        if q == 0:
            return
        a = from_fraction(p)
        b = from_fraction(q)
        try:
            c = a / b
        except ZeroDivisionError:
            return
        assert contains_fraction(c, p / q)

    def test_div_through_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ApproxReal(1.0, 0.0) / ApproxReal(0.5, 1.0)

    @given(st.integers(2, 10**12))
    def test_log_exp_roundtrip_enclose(self, n):
        a = ApproxReal.from_int(n)
        assert contains_fraction(a.log().exp(), Fraction(n))

    def test_ldexp_exact(self):
        a = ApproxReal(3.0, 0.5)
        assert a.ldexp(-2) == ApproxReal(0.75, 0.125)

    @given(fractions_st, fractions_st)
    def test_interval_max_encloses(self, p, q):
        a = from_fraction(p)
        b = from_fraction(q)
        assert contains_fraction(interval_max(a, b), max(p, q))

    def test_pow_ratio(self):
        # 16 ** (-1/3), checked against a 60-digit computation
        a = ApproxReal.from_int(16).pow_ratio(-1, 3)
        assert contains_fraction(
            a, Fraction("0.39685026299204984457975352882604425362")
        )
        assert a.radius < 1e-12

    def test_radius_accumulates(self):
        a = ApproxReal(1.0, 0.1) + ApproxReal(2.0, 0.2)
        assert a.radius >= 0.3
        b = ApproxReal(3.0, 0.1) * ApproxReal(5.0, 0.2)
        assert b.radius >= 3.0 * 0.2 + 5.0 * 0.1


# the decimals the package and its tests read, and one below float range
DECIMALS = ["1.576", "5.92", "1.48", "121.767", "76.61", "60.1755", "1e-400"]


class TestIntegerRatios:
    """from_ratio and from_decimal against the Fraction path, bit for bit."""

    @pytest.mark.parametrize("frac_bits", [8, 53, 60, 97, 150])
    def test_series_terms(self, frac_bits):
        # z / 2^F with 2^F <= z <= 9 * 2^F, the terms of Tate's series
        one = 1 << frac_bits
        for z in (one, one + 1, 3 * one - 7, 9 * one, 5 * one + (one >> 3) + 11):
            assert bits(ApproxReal.from_ratio(z, one)) == bits(
                fraction_path(Fraction(z, one))
            )

    @given(st.integers(1, 9 << 120), st.integers(8, 120))
    def test_series_terms_random(self, z, frac_bits):
        one = 1 << frac_bits
        assert bits(ApproxReal.from_ratio(z, one)) == bits(
            fraction_path(Fraction(z, one))
        )

    @pytest.mark.parametrize(
        "num, den", [(2, 3), (1, 6), (-2, 3), (1, -6), (-7, -3)]
    )
    def test_small_ratios(self, num, den):
        assert bits(ApproxReal.from_ratio(num, den)) == bits(
            fraction_path(Fraction(num, den))
        )

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    @pytest.mark.parametrize("text", DECIMALS)
    def test_decimals(self, text, sign):
        assert bits(ApproxReal.from_decimal(sign + text)) == bits(
            fraction_path(Fraction(sign + text))
        )

    @given(
        st.integers(-(10**40), 10**40),
        st.integers(0, 30),
        st.integers(-360, 330),
    )
    def test_decimals_random(self, digits, frac_len, exp):
        text = str(abs(digits)).rjust(frac_len + 1, "0")
        if frac_len:
            text = text[:-frac_len] + "." + text[-frac_len:]
        text = ("-" if digits < 0 else "") + f"{text}e{exp}"
        try:
            expected = bits(fraction_path(Fraction(text)))
        except ValueError:
            with pytest.raises(ValueError, match="beyond float range"):
                ApproxReal.from_decimal(text)
        else:
            assert bits(ApproxReal.from_decimal(text)) == expected

    def test_underflow_keeps_the_zero_interval(self):
        for text in ("1e-400", "1e-999999999"):
            a = ApproxReal.from_decimal(text)
            assert (a.value, a.radius) == (0.0, 2.0 * math.ulp(0.0))
        assert ApproxReal.from_decimal("0e999999999") == ApproxReal(0.0, 0.0)

    def test_overflow_raises(self):
        for num, den in ((10**400, 1), (-(10**400), 3), (10**400, 10**91)):
            with pytest.raises(ValueError, match="beyond float range"):
                ApproxReal.from_ratio(num, den)
        for text in ("1e400", "-1e400", "1.8e308", "1e999999999"):
            with pytest.raises(ValueError, match="beyond float range"):
                ApproxReal.from_decimal(text)
        assert ApproxReal.from_decimal("1.7e308").value == 1.7e308

    @pytest.mark.parametrize(
        "text", ["1/2", "inf", "nan", "1.", ".5", " 1", "1e", "--1", ""]
    )
    def test_not_a_decimal(self, text):
        with pytest.raises(ValueError, match="not a decimal literal"):
            ApproxReal.from_decimal(text)
