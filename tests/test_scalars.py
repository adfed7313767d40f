from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starkit.errors import InputError
from starkit.parsing import parse_scalar
from starkit.scalars import ExactComplex, format_ratio, parse_rational

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=16)
complexes = st.builds(ExactComplex, rationals, rationals)


def test_parse_rational_forms():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("0") == 0


def test_parse_rational_rejects_garbage():
    for bad in ("1.5", "a/b", "1/0", ""):
        with pytest.raises(InputError):
            parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_ratio(q.numerator, q.denominator)) == q


@given(complexes, complexes)
def test_field_ops_match_fractions(a, b):
    assert (a + b).re == a.re + b.re
    assert (a - b).im == a.im - b.im
    p = a * b
    assert p.re == a.re * b.re - a.im * b.im
    assert p.im == a.re * b.im + a.im * b.re


@given(complexes)
def test_kernel_round_trip(a):
    assert ExactComplex.from_kernel(a.to_kernel()) == a


@given(complexes.filter(lambda c: not c.is_zero()))
def test_division_inverts_multiplication(a):
    assert a / a == ExactComplex(1)
    assert ExactComplex(1) / a * a == ExactComplex(1)


@given(complexes, complexes.filter(lambda c: not c.is_zero()))
def test_division_matches_fractions(a, b):
    n = b.re * b.re + b.im * b.im
    q = a / b
    assert q.re == (a.re * b.re + a.im * b.im) / n
    assert q.im == (a.im * b.re - a.re * b.im) / n


@given(complexes, complexes)
def test_to_kernel_is_normalized(a, b):
    for c in (a, b, a + b, a - b, a * b, -a, a.conj()):
        rn, rd, jn, jd = c.to_kernel()
        for num, den in ((rn, rd), (jn, jd)):
            assert den > 0 and gcd(num, den) == 1
            if num == 0:
                assert den == 1
        assert (Fraction(rn, rd), Fraction(jn, jd)) == (c.re, c.im)


def test_float_argument_is_refused():
    for args in ((0.1,), (1, 0.5), (0.0, 0)):
        with pytest.raises(InputError, match="float"):
            ExactComplex(*args)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ExactComplex(1) / ExactComplex(0)


def test_coerce_accepts_ints_fractions_strings():
    assert ExactComplex.coerce(3) == ExactComplex(3)
    assert ExactComplex.coerce(Fraction(1, 2)) == ExactComplex(Fraction(1, 2))
    assert ExactComplex.coerce(ExactComplex(0, 1)) == ExactComplex(0, 1)


def test_mixed_arithmetic_with_plain_numbers():
    i = ExactComplex(0, 1)
    assert i * i == ExactComplex(-1)
    assert 2 * i == ExactComplex(0, 2)
    assert i + Fraction(1, 2) == ExactComplex(Fraction(1, 2), 1)
    assert (1 - i).conj() == 1 + i


def test_str_forms():
    assert str(ExactComplex(0)) == "0"
    assert str(ExactComplex(Fraction(-1, 2))) == "-1/2"
    assert str(ExactComplex(0, 1)) == "i"
    assert str(ExactComplex(1, -1)) == "1-i"
    assert str(ExactComplex(0, -2)) == "-2*i"
    assert str(ExactComplex(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
    assert str(ExactComplex(Fraction(-5, 3), 1)) == "-5/3+i"
    assert str(ExactComplex(2, Fraction(7, 2))) == "2+7/2*i"


@given(complexes)
def test_str_parses_back(a):
    assert parse_scalar(str(a)) == a


def test_too_long_to_print_is_an_input_error():
    huge = 10 ** 5000
    with pytest.raises(InputError, match="too many to print"):
        str(ExactComplex(Fraction(1, 3), huge))
    with pytest.raises(InputError, match="too many to print"):
        format_ratio(1, huge)


def test_negative_power_is_the_inverse_of_the_positive_one():
    z = ExactComplex(1, 1)
    assert z ** -1 == ExactComplex(Fraction(1, 2), Fraction(-1, 2))
    # (1 + i)^2 = 2i, and 1 / (2i) = -i/2
    assert z ** -2 == ExactComplex(0, Fraction(-1, 2))
    assert ExactComplex(Fraction(2, 3)) ** -3 == ExactComplex(Fraction(27, 8))
    with pytest.raises(ZeroDivisionError):
        ExactComplex(0) ** -1
