"""Polynomial ring contracts: canonical form, gcd and cofactors, text forms."""

import contextlib
import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cauchylu import NEG_INFINITY, DivisionByZero, DomainError, Polynomial, T, parse_polynomial
from cauchylu import polynomial as polynomial_module

coefficients = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 10))
polys = st.builds(Polynomial, st.lists(coefficients, max_size=6))
nonzero_polys = polys.filter(lambda p: not p.is_zero)

# Coefficients of more than 1000 bits mixed with small ones.
big_ints = st.integers(2**1000, 2**1100) | st.integers(-(2**1100), -(2**1000)) | st.integers(-20, 20)
big_coefficients = st.builds(Fraction, big_ints, st.integers(1, 10) | st.integers(2**1000, 2**1100))
big_lists = st.lists(big_coefficients, max_size=4)
nonzero_big_lists = big_lists.filter(lambda cs: any(cs))


def test_trailing_zeros_stripped():
    assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))


def test_zero_polynomial_degree_is_minus_infinity():
    zero = Polynomial()
    assert zero.degree == NEG_INFINITY
    assert zero.degree < -(10**9)
    assert Polynomial((0, 0)).is_zero


def test_float_coefficients_rejected():
    with pytest.raises(DomainError):
        Polynomial((0.5,))


def test_coefficients_that_are_not_iterable_rejected():
    with pytest.raises(DomainError, match="iterable"):
        Polynomial(5)


@pytest.mark.parametrize(
    "coeffs, den", [([0.5], 1), ([Fraction(1, 2)], 2)], ids=["float-over-1", "fraction-over-2"]
)
def test_no_public_common_denominator(coeffs, den):
    # The ints-over-one-denominator form is private, so every public build
    # passes the coefficient check.
    with pytest.raises(TypeError, match="keyword argument 'den'"):
        Polynomial(coeffs, den=den)


def test_indeterminate():
    assert T.degree == 1
    assert (T * T - 4).coeffs == (Fraction(-4), Fraction(0), Fraction(1))


def test_difference_of_squares_example():
    assert (T**2 - 4) * (T**2 + 4) == T**4 - 16


def _primitive(p):
    """p's primitive form: integer coefficients, content 1, positive lead."""
    return p * (1 / p.content()) * (1 if p.leading > 0 else -1)


def _divides(g, p):
    """Whether g divides p: the gcd of p and g is g's primitive form."""
    return p.cofactors(g)[0] == _primitive(g)


def test_gcd_coprime_example():
    # distinct roots +-2 versus +-2/3
    assert (T**2 - 4).cofactors(9 * T**2 - 4)[0] == 1


def test_gcd_is_primitive():
    a = 4 * T**2 - 9
    b = 4 * T - 6
    assert a.cofactors(b)[0] == 2 * T - 3


def test_gcd_of_zeros_is_zero():
    assert Polynomial().cofactors(Polynomial())[0].is_zero


def test_evaluation_horner():
    p = 3 * T**2 + Fraction(1, 2) * T - 1
    assert p(Fraction(2)) == 12
    assert p(0) == -1


def test_content():
    p = Fraction(4, 3) * T**2 + Fraction(2, 9)
    assert p.content() == Fraction(2, 9)
    assert p * (1 / p.content()) == 6 * T**2 + 1


@pytest.mark.parametrize(
    "poly, text",
    [
        (T**2 - 4, "t^2 - 4"),
        (4 - T**2, "-t^2 + 4"),
        (9 * T**2 - 4, "9*t^2 - 4"),
        (Fraction(3, 2) * T**3 + T - Fraction(1, 2), "3/2*t^3 + t - 1/2"),
        (Polynomial(), "0"),
        (Polynomial((7,)), "7"),
        (-T, "-t"),
    ],
)
def test_str(poly, text):
    assert str(poly) == text


@given(polys | st.builds(Polynomial, big_lists))
def test_str_parse_round_trip(p):
    assert parse_polynomial(str(p)) == p


@pytest.mark.parametrize("text", ["", "t^", "2**t", "t^-1", "1.5*t", "tt", "t^2t", "2t3", "t-t2"])
def test_parse_rejects_garbage(text):
    with pytest.raises(DomainError):
        parse_polynomial(text)


def test_parse_zero_denominator_raises_division_by_zero():
    with pytest.raises(DivisionByZero):
        parse_polynomial("3/0*t")
    with pytest.raises(DivisionByZero):
        parse_polynomial("t + 1/0")


def test_constant_hashes_as_its_value():
    assert hash(Polynomial((3,))) == hash(3)
    assert hash(Polynomial((Fraction(1, 2),))) == hash(Fraction(1, 2))
    assert hash(Polynomial()) == hash(0)


def test_pow_matches_repeated_multiplication():
    p = T + 1
    explicit = Polynomial((1,))
    for _ in range(5):
        explicit = explicit * p
    assert p**5 == explicit
    assert p**0 == 1


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial() == a
    assert a - a == Polynomial()


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both_and_is_primitive(a, b):
    g, ca, cb = a.cofactors(b)
    assert g.is_positive_primitive
    assert g * ca == a and g * cb == b
    assert ca.cofactors(cb)[0] == 1  # no common factor is left over


@given(polys, nonzero_polys)
def test_gcd_stable_under_multiple(a, b):
    # gcd(a + q*b, b) == gcd(a, b) for any multiplier q
    assert (a + (T + 3) * b).cofactors(b)[0] == a.cofactors(b)[0]


# -- reference: the same operations on plain Fraction lists -----------------


def _strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for m, y in enumerate(b):
            rem[k + m] -= c * y
    return _strip(quot), _strip(rem[: len(b) - 1])


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _primitive_list(cs):
    g = gcd(*cs)
    return [c // g for c in cs]


def _pseudo_remainder(rem, div):
    """A pseudo-remainder of the int polynomial rem by div, deg rem >= deg
    div: that of some positive multiple of rem.  Before each step only the
    part of rem still to be divided is multiplied by lead / gcd(c, lead),
    the least factor making its leading entry c a multiple of lead."""
    rem = list(rem)
    d, lead = len(div) - 1, div[-1]
    for k in range(len(rem) - d - 1, -1, -1):
        c = rem[k + d]
        if not c:
            continue
        mult = abs(lead) // gcd(c, lead)
        if mult != 1:
            for m in range(k + d):
                rem[m] *= mult
            c *= mult
        c //= lead
        for m in range(d):
            rem[k + m] -= c * div[m]
    return rem[:d]


def _prs_gcd(a, b):
    """The gcd of the int polynomials a and b, deg a >= deg b >= 1, as a
    primitive int list with positive lead, by the primitive pseudo-remainder
    sequence (Collins 1967; Brown 1971): each remainder is cut to its
    primitive part, which keeps coefficient growth tame.  It is the
    reference for GCDHEU and for the monomial rule."""
    a, b = _primitive_list(a), _primitive_list(b)
    while True:
        rem = _strip(_pseudo_remainder(a, b))
        if not rem:
            return b if b[-1] > 0 else [-c for c in b]
        if len(rem) == 1:
            return [1]
        a, b = b, _primitive_list(rem)


def _ref_content(a):
    if not a:
        return Fraction(0)
    return Fraction(gcd(*(c.numerator for c in a)), lcm(*(c.denominator for c in a)))


@given(big_lists, big_lists)
def test_mul_matches_fraction_reference(a, b):
    assert list((Polynomial(a) * Polynomial(b)).coeffs) == _ref_mul(_strip(a), _strip(b))


@given(big_lists, big_lists, nonzero_big_lists)
def test_gcd_matches_fraction_reference(f, h, g):
    # Share the factor g so the gcd is usually nontrivial.
    a, b = _ref_mul(_strip(f), _strip(g)), _ref_mul(_strip(h), _strip(g))
    expected = _primitive(Polynomial(_ref_gcd(a, b))) if a or b else 0
    assert Polynomial(a).cofactors(Polynomial(b))[0] == expected


@given(big_lists, big_lists, nonzero_big_lists)
def test_prs_gcd_matches_fraction_reference(f, h, g):
    # The pseudo-remainder sequence alone, on int operands of degree >= 1.
    a, b = _ref_mul(_strip(f), _strip(g)), _ref_mul(_strip(h), _strip(g))
    long, short = sorted((a, b), key=len, reverse=True)
    assume(len(short) >= 2)
    long, short = (_ints(_primitive(Polynomial(p))) for p in (long, short))
    assert Polynomial(_prs_gcd(long, short)) == _primitive(Polynomial(_ref_gcd(a, b)))


@given(big_lists)
def test_content_matches_fraction_reference(a):
    assert Polynomial(a).content() == _ref_content(_strip(a))


def test_is_positive_primitive():
    assert (3 * T**2 - 2).is_positive_primitive
    assert Polynomial((1,)).is_positive_primitive
    assert not (4 * T - 2).is_positive_primitive
    assert not (2 - 3 * T).is_positive_primitive
    assert not (Fraction(1, 2) * T + 1).is_positive_primitive
    assert not Polynomial().is_positive_primitive


# -- huge coefficients, against the pseudo-remainder reference ---------------


def int_polys(degrees, coefficients):
    """Polynomials with int coefficients, a degree drawn from ``degrees``."""
    return degrees.flatmap(lambda d: st.builds(
        lambda low, lead: Polynomial(low + [lead]),
        st.lists(coefficients, min_size=d, max_size=d),
        coefficients.filter(bool),
    ))


small_ints = st.integers(-(2**20), 2**20)
huge_ints = st.integers(2**1000, 2**1100) | st.integers(-(2**1100), -(2**1000))
mid_degrees = st.integers(20, 26)


def _ints(p):
    return [int(c) for c in p.coeffs]


def _reference_gcd(a, b):
    """The pseudo-remainder sequence alone, on operands of degree >= 1."""
    a, b = sorted((_ints(a), _ints(b)), key=len, reverse=True)
    return Polynomial(_prs_gcd(a, b))


@contextlib.contextmanager
def _points_recorded():
    """Record each GCDHEU point as (k, refused)."""
    points = []
    heu = polynomial_module._heu_at

    def record(a, b, k):
        result = heu(a, b, k)
        points.append((k, result is None))
        return result

    with mock.patch.object(polynomial_module, "_heu_at", record):
        yield points


def _refusals(points):
    return [refused for _, refused in points]


@settings(deadline=None, max_examples=50)
@given(int_polys(mid_degrees, small_ints), int_polys(mid_degrees, small_ints),
       int_polys(st.integers(0, 3), small_ints), st.just(1) | huge_ints)
def test_gcd_matches_prs_reference_with_huge_content(f, h, g, c):
    # A content c of 1000 bits or more puts the first GCDHEU point past
    # 2^1000; deg g = 0 gives pairs that are almost always coprime.
    a, b = c * f * g, h * g
    assert a.cofactors(b)[0] == _reference_gcd(a, b)


@settings(deadline=None, max_examples=30)
@given(int_polys(st.integers(0, 26), small_ints | huge_ints),
       int_polys(st.integers(0, 26), small_ints | huge_ints),
       int_polys(st.integers(1, 3), small_ints | huge_ints))
def test_shared_factor_is_never_reported_coprime(f, h, g):
    # At whichever point GCDHEU settles the pair, a shared factor of
    # degree >= 1 divides the gcd it reports.
    a, b = f * g, h * g
    result = a.cofactors(b)[0]
    assert result.degree >= g.degree
    assert _divides(g, result)


@settings(deadline=None, max_examples=30)
@given(int_polys(st.integers(21, 25), huge_ints),
       int_polys(st.integers(0, 2), small_ints | huge_ints),
       int_polys(st.integers(0, 2), small_ints | huge_ints))
def test_gcd_with_huge_coefficients_matches_prs_reference(g, f, h):
    # A shared factor of high degree keeps the reference sequence short.
    a, b = f * g, h * g
    result = a.cofactors(b)[0]
    assert result == _reference_gcd(a, b)
    assert _divides(g, result)


@settings(deadline=None, max_examples=30)
@given(int_polys(st.integers(40, 44), small_ints | huge_ints),
       int_polys(st.integers(0, 2), small_ints | huge_ints),
       huge_ints)
def test_heuristic_proves_high_degree_coprime_pairs_with_huge_coefficients(f, h, c):
    # gcd(f, f h + c) = gcd(f, c) = 1 for a nonzero constant c.  The
    # reference sequence would take seconds on these coefficients.  At the
    # first point xi = 2^k, k exceeds the bit length of c, and the gcd of
    # the values divides c, so it is below xi / 2: a constant candidate,
    # accepted at the first point.
    b = f * h + c
    with _points_recorded() as points:
        assert f.cofactors(b)[0] == 1
    assert _refusals(points) == [False]


def test_shared_factor_with_a_large_lead_is_found():
    # The shared factor g has the 61-bit prime 2^61 - 1 as its lead, and
    # the content 2^1000 puts the first GCDHEU point past 2^1000.
    n = 24
    g = (2**61 - 1) * T + 1
    a, b = 2**1000 * (T**n + 2) * g, (T**n + 3) * g
    with _points_recorded() as points:
        assert a.cofactors(b)[0] == g
    assert _refusals(points) == [False]


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 2**70), st.integers(1, 2**70), huge_ints,
       int_polys(st.integers(24, 26), small_ints),
       int_polys(st.integers(24, 26), small_ints))
def test_shared_linear_factor_with_a_huge_lead_matches_prs_reference(k, c, big, f, h):
    # g = k (2^61 - 1) t + c has a lead of up to 131 bits, and the content
    # big puts the first GCDHEU point past 2^1000; GCDHEU settles the pair
    # at that first point.
    g = Polynomial((c, k * (2**61 - 1)))
    a, b = big * f * g, h * g
    with _points_recorded() as points:
        result = a.cofactors(b)[0]
    assert _refusals(points) == [False]
    assert result == _reference_gcd(a, b)
    assert _divides(g, result)


# -- cofactors: GCDHEU against the pseudo-remainder reference -------------------


def _even(p):
    """p(t^2)."""
    return sum((c * T**(2 * k) for k, c in enumerate(p.coeffs)), Polynomial())


def _reference_primitive_gcd(a, b):
    """The primitive, positive-lead gcd by the pseudo-remainder sequence."""
    if a.degree <= 0 or b.degree <= 0:
        return Polynomial((1,))
    return _reference_gcd(a, b)


def _assert_cofactors(a, b, result=None):
    g, ca, cb = result or a.cofactors(b)
    assert g.is_positive_primitive
    assert g * ca == a and g * cb == b
    assert g == _reference_primitive_gcd(a, b)
    return g


@settings(deadline=None, max_examples=40)
@given(int_polys(st.integers(0, 6), small_ints | huge_ints),
       int_polys(st.integers(0, 6), small_ints | huge_ints),
       int_polys(st.integers(0, 4), small_ints | huge_ints),
       st.integers(1, 2**70) | huge_ints, st.integers(-(2**70), -1) | huge_ints,
       st.integers(0, 3), st.booleans())
def test_cofactors_match_prs_reference(f, h, g, c1, c2, e, even):
    # deg g = 0 gives pairs that are almost always coprime; c1, c2 put
    # integer content on both operands; T^e shares a power of t, and makes
    # an operand a monomial when its other factors are constants; even
    # operands take the u = t^2 path.
    if even:
        f, h, g = _even(f), _even(h), _even(g)
    g = T**e * g
    a, b = c1 * f * g, c2 * h * g
    common = _assert_cofactors(a, b)
    assert _divides(g, common)


@given(polys, polys)
def test_cofactors_of_rational_operands(a, b):
    g, ca, cb = a.cofactors(b)
    if a.is_zero and b.is_zero:
        assert g.is_zero and ca.is_zero and cb.is_zero
        return
    assert g.is_positive_primitive
    assert g * ca == a and g * cb == b


def test_cofactors_examples():
    assert (2 * T**2 - 8).cofactors(4 * T - 8) == (T - 2, 2 * T + 4, 4)
    assert (T**2 - 4).cofactors(9 * T**2 - 4) == (1, T**2 - 4, 9 * T**2 - 4)
    assert Polynomial().cofactors(6 - 4 * T) == (2 * T - 3, 0, -2)
    assert (Fraction(1, 2) * T).cofactors(0) == (T, Fraction(1, 2), 0)
    assert Polynomial().cofactors(0) == (0, 0, 0)
    # A monomial operand: the gcd is t^min(e, ord_t of the other).
    assert (6 * T**3).cofactors(-4 * T**5) == (T**3, 6, -4 * T**2)
    assert (3 * T**4).cofactors(T * (T + 2)) == (T, 3 * T**3, T + 2)
    assert (5 * T).cofactors(T**3 - 7 * T**2) == (T, 5, T**2 - 7 * T)
    assert (T**2).cofactors(T + 1) == (1, T**2, T + 1)
    assert (Fraction(2, 3) * T**2).cofactors(Fraction(1, 2) * T**3 + T**2) == (
        T**2, Fraction(2, 3), Fraction(1, 2) * T + 1)


def _huge_poly(degree, seed):
    """A seeded polynomial of the given degree with 1000-1100 bit coefficients."""
    rng = random.Random(seed)
    return Polynomial([rng.choice((1, -1)) * rng.randrange(2**1000, 2**1100)
                       for _ in range(degree + 1)])


@pytest.mark.parametrize("degrees", [
    # (deg g, deg f, deg h)
    (3, 2, 2),
    (4, 3, 3),
    (7, 7, 7),
    (24, 1, 2),
    (0, 9, 9),  # coprime
])
def test_huge_coefficient_pairs_take_the_heuristic(degrees):
    g, f, h = (_huge_poly(d, seed) for seed, d in enumerate(degrees))
    a, b = f * g, h * g
    with _points_recorded() as points:
        result = a.cofactors(b)
    assert _refusals(points) == [False]
    assert _assert_cofactors(a, b, result) == _primitive(g)


def test_small_pair_above_the_gate_takes_the_heuristic():
    n = 24
    a, b = (T + 1) * (T**n + 2), (T + 1) * (T**n + 3)
    with _points_recorded() as points:
        result = a.cofactors(b)
    assert _refusals(points) == [False]
    assert _assert_cofactors(a, b, result) == T + 1


def test_heuristic_proves_coprime_pairs_with_huge_coefficients():
    # gcd(f, f h + c) = gcd(f, c) = 1: a constant candidate, no division.
    f, h = _huge_poly(4, 1), _huge_poly(1, 2)
    b = f * h + _huge_poly(0, 3)
    with _points_recorded() as points:
        assert f.cofactors(b) == (1, f, b)
    assert _refusals(points) == [False]


def test_refused_point_is_retried_with_the_margin_doubled():
    # The stub refuses the first point only; the retry puts 2^k 32 bits,
    # not 16, above 2 max(|a|, |b|) + 2.
    a, b = (T**2 - 4) * (3 * T + 5), (T**2 - 4) * (T - 7)
    bits = (2 * max(map(abs, _ints(a) + _ints(b))) + 2).bit_length()
    points = []
    heu = polynomial_module._heu_at

    def refuse_first(a, b, k):
        points.append(k)
        return None if len(points) == 1 else heu(a, b, k)

    with mock.patch.object(polynomial_module, "_heu_at", refuse_first):
        result = a.cofactors(b)
    assert points == [bits + 16, bits + 32]
    assert _assert_cofactors(a, b, result) == T**2 - 4


def test_even_pairs_run_in_u():
    # Both even: the heuristic sees F(u), H(u) with u = t^2.
    a, b = (T**2 - 4) * (9 * T**2 - 1), (T**2 - 4) * (T**4 + 1)
    seen = []
    heu = polynomial_module._heu_at

    def spy(a, b, k):
        seen.append((len(a) - 1, len(b) - 1))
        return heu(a, b, k)

    with mock.patch.object(polynomial_module, "_heu_at", spy):
        assert a.cofactors(b) == (T**2 - 4, 9 * T**2 - 1, T**4 + 1)
        assert (T * a).cofactors(b) == (T**2 - 4, T * (9 * T**2 - 1), T**4 + 1)
    assert seen == [(2, 3), (5, 6)]


@pytest.mark.parametrize("e", [981, 2000])
def test_even_pairs_with_huge_content_take_the_heuristic_in_u(e):
    # Both even, m = 12: GCDHEU sees F(u), H(u) of 13 coefficients, at the
    # first point 2^k with k = e + 19, 16 bits above 2 * 2^(e + 1) + 2, and
    # settles each pair there: one point per pair.
    m = 12
    a, b = 2**e * (T**(2 * m) + 2), T**(2 * m) + 3
    seen = []
    heu = polynomial_module._heu_at

    def spy(a, b, k):
        seen.append((len(a) - 1, len(b) - 1, k))
        return heu(a, b, k)

    with mock.patch.object(polynomial_module, "_heu_at", spy):
        assert a.cofactors(b) == (1, a, b)
        g = T**2 - 4
        result = (g * a).cofactors(g * b)
    assert seen[0] == (m, m, e + 19) and seen[1][:2] == (m + 1, m + 1)
    assert len(seen) == 2 and _assert_cofactors(g * a, g * b, result) == g
