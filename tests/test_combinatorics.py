"""Combinatorial primitive contracts, including the conventions that make
the triangular factors triangular."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cauchylu import (
    DomainError,
    Polynomial,
    RationalFunction,
    binomial,
    double_factorial,
    factorial,
    rising_factorial,
)
from cauchylu.combinatorics import rising_factorials


@pytest.mark.parametrize("n, expected", [(0, 1), (5, 120), (10, 3628800)])
def test_factorial(n, expected):
    assert factorial(n) == expected


def test_factorial_rejects_negative():
    with pytest.raises(DomainError):
        factorial(-1)


@pytest.mark.parametrize("n, expected", [(5, 15), (-1, 1), (7, 105), (1, 1), (9, 945)])
def test_double_factorial(n, expected):
    assert double_factorial(n) == expected


@pytest.mark.parametrize("n", [0, 2, 4, -2, -3])
def test_double_factorial_rejects_even_or_too_negative(n):
    with pytest.raises(DomainError):
        double_factorial(n)


@given(st.integers(1, 20))
def test_double_factorial_links_to_factorial(n):
    assert double_factorial(2 * n - 1) * (2**n * factorial(n)) == factorial(2 * n)


@pytest.mark.parametrize(
    "n, k, expected",
    [(3, 1, 3), (11, 5, 462), (4, 7, 0), (4, -1, 0), (0, 0, 1)],
)
def test_binomial(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_rejects_negative_n():
    with pytest.raises(DomainError):
        binomial(-2, 1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: factorial(2.5), id="factorial-float"),
        pytest.param(lambda: factorial("3"), id="factorial-str"),
        pytest.param(lambda: binomial(5, 2.5), id="binomial-float-k"),
        pytest.param(lambda: binomial("5", 2), id="binomial-str-n"),
        pytest.param(lambda: double_factorial(3.0), id="double-factorial-float"),
        pytest.param(lambda: rising_factorial(Fraction(1), 2.0), id="rising-factorial-float"),
    ],
)
def test_non_int_counts_are_domain_errors(call):
    with pytest.raises(DomainError, match="must be an int"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: rising_factorial(1.5, 2), id="float-base"),
        pytest.param(lambda: rising_factorial(2 + 0j, 2), id="complex-base"),
        pytest.param(lambda: rising_factorials("a", 0), id="text-base"),
        pytest.param(lambda: rising_factorials(None, 3), id="none-base"),
    ],
)
def test_bases_that_are_not_exact_are_domain_errors(call):
    with pytest.raises(DomainError, match="exact base"):
        call()


def test_rising_factorial_empty_product():
    assert rising_factorial(Fraction(9, 7), 0) == 1
    assert rising_factorial(RationalFunction(Polynomial((0, 1))), 0) == 1


@pytest.mark.parametrize(
    "a",
    [
        Fraction(1, 2),
        Fraction(-3),
        Polynomial((1, Fraction(-5, 2))),
        RationalFunction(Polynomial((0, 1))),
    ],
)
def test_rising_factorials_are_the_prefixes(a):
    assert list(rising_factorials(a, 6)) == [rising_factorial(a, m) for m in range(7)]
    assert list(rising_factorials(a, 0)) == [1]


def test_rising_factorials_check_the_count_when_called():
    with pytest.raises(DomainError):
        rising_factorials(Fraction(1), -1)
    with pytest.raises(DomainError, match="must be an int"):
        rising_factorials(Fraction(1), 2.0)


def test_rising_factorial_half():
    assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)


def test_rising_factorial_single_symbolic_factor():
    a = RationalFunction(Polynomial((1, Fraction(-1, 2))))  # 1 - t/2
    assert rising_factorial(a, 1) == a


def test_rising_factorial_rejects_negative_count():
    with pytest.raises(DomainError):
        rising_factorial(Fraction(1), -1)


@given(
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8)),
    st.integers(0, 10),
    st.integers(0, 10),
)
def test_rising_factorial_shift_identity(a, m, n):
    assert rising_factorial(a, m + n) == rising_factorial(a, m) * rising_factorial(a + m, n)


@given(st.integers(0, 6), st.integers(0, 6))
def test_rising_factorial_shift_identity_symbolic(m, n):
    a = RationalFunction(Polynomial((Fraction(1, 2), 3)))  # 3t + 1/2
    assert rising_factorial(a, m + n) == rising_factorial(a, m) * rising_factorial(a + m, n)
