"""Rational scalar contracts: exact arithmetic, strict parse/format."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cauchylu import DivisionByZero, DomainError, format_rational, parse_rational
from cauchylu.rational import format_int, parse_int

rationals = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000))
nonzero_rationals = rationals.filter(lambda q: q != 0)


def test_addition_example():
    assert Fraction(1, 3) + Fraction(1, 15) == Fraction(2, 5)


def test_cofactor_combination_example():
    # 2x2 cofactor combination that reappears in the matrix tests
    assert Fraction(1, 3) * Fraction(1, 7) - Fraction(1, 15) * Fraction(-1, 5) == Fraction(32, 525)


def test_multiplication_by_zero_is_canonical_zero():
    product = Fraction(7, 9) * 0
    assert product == 0
    assert product.denominator == 1


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / Fraction(0)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3", Fraction(3)),
        ("-3/5", Fraction(-3, 5)),
        ("+7/14", Fraction(1, 2)),
        ("6/4", Fraction(3, 2)),
        ("0", Fraction(0)),
        (" 2/9 ", Fraction(2, 9)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["1.5", "1e3", "abc", "1/2/3", "", "3/-5", "--2"])
def test_parse_rational_rejects_inexact_forms(text):
    with pytest.raises(DomainError):
        parse_rational(text)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(DivisionByZero):
        parse_rational("3/0")


@pytest.mark.parametrize(
    "value, text",
    [(Fraction(3), "3"), (Fraction(-3, 5), "-3/5"), (Fraction(0), "0"), (7, "7")],
)
def test_format_rational(value, text):
    assert format_rational(value) == text


@pytest.mark.parametrize("value", [0.5, "3/4"])
def test_format_rational_rejects_inexact_values(value):
    # A float or a string would print as a rational and hide the inexact input.
    with pytest.raises(DomainError):
        format_rational(value)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.integers(-(2**8000), 2**8000), st.integers(1, 2**8000))
@example(-(10**2000) - 7, 3**4000)
def test_format_parse_beyond_int_digit_limit(p, q):
    # Under the smallest digit limit Python allows, str(int) and int(str)
    # refuse these values; the chunked fallback must round-trip them.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert parse_int(format_int(p)) == p
        value = Fraction(p, q)
        assert parse_rational(format_rational(value)) == value
    finally:
        sys.set_int_max_str_digits(limit)
    assert format_int(p) == str(p)


def test_parse_int_still_rejects_non_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            parse_int("1" * 700 + "x")
    finally:
        sys.set_int_max_str_digits(limit)


@given(rationals, rationals, rationals)
def test_field_axioms_additive_and_distributive(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a + (-a) == 0


@given(rationals, rationals, rationals)
def test_field_axioms_multiplicative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * 1 == a


@given(nonzero_rationals)
def test_multiplicative_inverse(a):
    assert a * (1 / a) == 1
