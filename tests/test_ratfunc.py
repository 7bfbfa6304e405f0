"""Rational-function field contracts: canonical form, arithmetic, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cauchylu import (
    DivisionByZero,
    DomainError,
    PoleAtPoint,
    Polynomial,
    RationalFunction,
    SYMBOLIC_T,
    T,
    build_L,
    build_U,
    build_matrix,
    parse_ratfunc,
)

coefficients = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
polys = st.builds(Polynomial, st.lists(coefficients, max_size=4))
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfuncs = st.builds(RationalFunction, polys, nonzero_polys)
nonzero_ratfuncs = ratfuncs.filter(lambda f: not f.is_zero)
points = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 10))


def test_canonical_form_moves_sign_into_numerator():
    f = RationalFunction(1, 4 - T**2)
    assert f.num == Polynomial((-1,))
    assert f.den == T**2 - 4
    assert str(f) == "(-1)/(t^2 - 4)"


def test_canonical_denominator_is_integer_primitive_positive():
    f = RationalFunction(T, Fraction(2, 3) * T**2 - Fraction(4, 3))
    assert f.den == T**2 - 2
    assert f.num == Fraction(3, 2) * T
    assert f.den.content() == 1
    assert f.den.leading > 0


def test_quotient_example_keeps_denominator_leading_9():
    f = RationalFunction(T**2 - 4, 9 * T**2 - 4)
    assert f.den.leading == 9
    assert str(f) == "(t^2 - 4)/(9*t^2 - 4)"


def test_inverse_pair_example():
    f = RationalFunction(1, 4 - T**2)
    assert f * (4 - T**2) == 1


def test_additive_identity_example():
    f = RationalFunction(1, 4 - T**2)
    assert f + 0 == f


def test_zero_is_zero_over_one():
    f = RationalFunction(0, 7 * T**2 + 1)
    assert f.num.is_zero
    assert f.den == 1
    assert f == 0


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        RationalFunction(T, Polynomial())


@pytest.mark.parametrize("num, den", [(0.5, 1), (T, 0.5)], ids=["float-num", "float-den"])
def test_inexact_operand_rejected_by_name(num, den):
    with pytest.raises(DomainError, match=r"from 0\.5$"):
        RationalFunction(num, den)


def test_division_by_zero_function_raises():
    with pytest.raises(DivisionByZero):
        SYMBOLIC_T / RationalFunction(0)
    with pytest.raises(DivisionByZero):
        RationalFunction(0).invert()


def test_eval_example_is_minus_three_fifths():
    f = RationalFunction(T**2 - 4, 9 * T**2 - 4)
    assert f(Fraction(1)) == Fraction(-3, 5)


def test_eval_at_pole_raises_with_point():
    f = RationalFunction(1, 4 - T**2)
    with pytest.raises(PoleAtPoint) as info:
        f(Fraction(2))
    assert info.value.point == 2


def test_eval_constant():
    assert RationalFunction(7)(Fraction(123, 7)) == 7


def test_normalization_idempotent():
    f = RationalFunction(6 * T - 12, -3 * T**2 + 12)
    again = RationalFunction(f.num, f.den)
    assert again.num == f.num and again.den == f.den


def test_reduction_cancels_common_factor():
    f = RationalFunction((T - 1) * (T + 2), (T - 1) * (T + 3))
    assert f == RationalFunction(T + 2, T + 3)


def test_negative_power_inverts():
    f = RationalFunction(T, T**2 + 1)
    assert f**-2 == (f.invert()) ** 2
    assert f**0 == 1


def test_cross_type_equality():
    assert RationalFunction(Polynomial((3,))) == Fraction(3)
    assert RationalFunction(T**2 - 4, 1) == T**2 - 4
    assert SYMBOLIC_T != 1


@pytest.mark.parametrize(
    "f, other, equal",
    [
        (RationalFunction(0), 0, True),
        (RationalFunction(0), Fraction(0), True),
        (RationalFunction(0), Polynomial(), True),
        (RationalFunction(3), 3, True),
        (RationalFunction(3, 2), Fraction(3, 2), True),
        (RationalFunction(3, 2), 1, False),
        (RationalFunction(T, 2), Fraction(1, 2) * T, True),
        (RationalFunction(T**2 - 1, T - 1), T + 1, True),
        (RationalFunction(T**2 - 1, T - 1), RationalFunction(2 * T + 2, 2), True),
        (SYMBOLIC_T, T, True),
        (SYMBOLIC_T, 0, False),
        (SYMBOLIC_T, 1, False),
        (SYMBOLIC_T, T + 1, False),
        (RationalFunction(1, T), 1, False),
        (RationalFunction(1, T), T, False),
        (RationalFunction(T, T + 1), 0, False),
        (RationalFunction(T, T + 1), T, False),
        (RationalFunction(T, T + 1), RationalFunction(T, T + 2), False),
        (RationalFunction(T, T + 1), RationalFunction(2 * T, 2 * T + 2), True),
    ],
)
def test_equality_table(f, other, equal):
    assert (f == other) is equal and (other == f) is equal
    assert (f != other) is not equal and (other != f) is not equal
    if equal:
        assert hash(f) == hash(other)


def test_comparison_with_a_constant_runs_no_gcd(monkeypatch):
    values = [RationalFunction(0), RationalFunction(3, 2), SYMBOLIC_T, RationalFunction(T, T + 1)]

    def no_cofactors(self, other):
        raise AssertionError("Polynomial.cofactors called")

    monkeypatch.setattr(Polynomial, "cofactors", no_cofactors)
    assert [f == 0 for f in values] == [True, False, False, False]
    assert [f != 0 for f in values] == [False, True, True, True]
    assert [f == Fraction(3, 2) for f in values] == [False, True, False, False]
    assert [f == T for f in values] == [False, False, True, False]


@given(ratfuncs)
def test_str_parse_round_trip(f):
    assert parse_ratfunc(str(f)) == f


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    assert a * 1 == a


@given(nonzero_ratfuncs)
def test_multiplicative_inverse(f):
    assert f * f.invert() == 1


@given(ratfuncs, ratfuncs, points)
def test_eval_is_a_homomorphism(f, g, x):
    try:
        fx, gx = f(x), g(x)
        sum_at = (f + g)(x)
        prod_at = (f * g)(x)
    except PoleAtPoint:
        assume(False)
    assert sum_at == fx + gx
    assert prod_at == fx * gx


@given(ratfuncs)
def test_canonical_invariants_hold(f):
    assert not f.den.is_zero
    assert f.num.cofactors(f.den)[0] == 1
    if not f.is_zero:
        assert f.den.content() == 1
        assert f.den.leading > 0
    else:
        assert f.den == 1


def _assert_canonical(f):
    den = f.den
    assert all(c.denominator == 1 for c in den.coeffs)
    assert den.content() == 1
    assert den.leading > 0
    assert f.num.cofactors(den)[0] == 1
    if f.is_zero:
        assert den == 1


@given(ratfuncs, ratfuncs, nonzero_ratfuncs)
def test_arithmetic_keeps_denominators_canonical(f, g, h):
    # Dividing by h gives a and b a common denominator factor, so the
    # cancelling branches of + and * run as well as the coprime ones.
    a, b = f / h, g / h
    results = [a + b, a - b, a * b, a * h, f + g, f * g, -a, a**2, h**-1]
    results += [a / b] if b else []
    for r in results:
        _assert_canonical(r)


def test_factor_product_needs_no_denominator_rescaling(monkeypatch):
    # Canonical denominators multiply and cancel to canonical denominators
    # (Gauss's lemma), so L @ U takes no content and scales by no Fraction.
    lower, upper = build_L(10, SYMBOLIC_T), build_U(10, SYMBOLIC_T)
    seen = []
    content, mul = Polynomial.content, Polynomial.__mul__

    def spy_content(self):
        seen.append(("content", self))
        return content(self)

    def spy_mul(self, other):
        if isinstance(other, Fraction):
            seen.append(("rescale", self, other))
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "content", spy_content)
    monkeypatch.setattr(Polynomial, "__mul__", spy_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", spy_mul)
    product = lower @ upper
    monkeypatch.undo()
    assert seen == []
    assert product == build_matrix(10, SYMBOLIC_T)


def test_factor_product_entries_are_canonical():
    # Polynomial.cofactors hands RationalFunction the reduced numerator and
    # denominator, so the entries of L @ U come out canonical.
    product = build_L(10, SYMBOLIC_T) @ build_U(10, SYMBOLIC_T)
    for row in product.rows:
        for entry in row:
            _assert_canonical(entry)
    assert product == build_matrix(10, SYMBOLIC_T)


def _equal_forms(f):
    """f in every type that can hold its value: a == b for all pairs."""
    forms = [f, RationalFunction(f.num * (T + 2), f.den * (T + 2))]
    if f.den == 1:
        forms.append(f.num)
        if f.num.degree <= 0:
            value = f.num(0)
            forms.append(value)
            if value.denominator == 1:
                forms.append(int(value))
    return forms


@given(ratfuncs | st.builds(RationalFunction, polys))
def test_equal_forms_hash_equally(f):
    forms = _equal_forms(f)
    for a in forms:
        for b in forms:
            assert a == b
            assert hash(a) == hash(b)


small_fractions = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
small_polys = st.builds(Polynomial, st.lists(small_fractions, max_size=2))
small_values = st.one_of(
    st.integers(-2, 2),
    small_fractions,
    small_polys,
    st.builds(RationalFunction, small_polys),
    st.builds(RationalFunction, small_polys, small_polys.filter(lambda p: not p.is_zero)),
)


@given(small_values, small_values)
def test_equal_values_hash_equally(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_constant_one_is_one_set_element():
    assert len({Fraction(1), SYMBOLIC_T**0, T**0, 1}) == 1
