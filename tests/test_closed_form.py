"""Closed-form factor entries, Gamma-product identities, determinant, chain."""

import collections
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cauchylu import (
    DomainError,
    ExactMatrix,
    Polynomial,
    RationalFunction,
    SYMBOLIC_T,
    SingularEntry,
    T,
    build_L,
    build_U,
    build_matrix,
    chain_t1,
    det_closed,
    det_elimination,
    det_t1,
    entry_L,
    entry_U,
    gamma_identity_left,
    gamma_identity_right,
    lu_doolittle,
    verify_gamma_identities,
)
from cauchylu import closed_form
from cauchylu import polynomial as polynomial_module
from cauchylu.closed_form import ChainValues, chain_e1, chain_e4, chain_e5, chain_e6
from cauchylu.combinatorics import factorial, rising_factorial
from cauchylu.ratfunc import coerce_scalar

# Frozen against the elimination oracle (test_det_t1_matches_live_oracle
# recomputes it here).
DET_T1_S4 = Fraction(137438953472, 189827962198875)


# -- entry_L -----------------------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 5, 12])
def test_entry_L_diagonal_is_one(i):
    assert entry_L(i, i, SYMBOLIC_T) == 1
    assert entry_L(i, i, Fraction(3, 7)) == 1


def test_entry_L_subdiagonal_symbolic():
    assert entry_L(2, 1, SYMBOLIC_T) == RationalFunction(T**2 - 4, 9 * T**2 - 4)


def test_entry_L_matches_doolittle():
    factors = lu_doolittle(build_matrix(2, SYMBOLIC_T))
    assert entry_L(2, 1, SYMBOLIC_T) == factors.L.at(2, 1)


def test_entry_L_vanishes_above_diagonal():
    assert entry_L(1, 2, SYMBOLIC_T) == 0
    assert entry_L(1, 2, Fraction(1)) == 0


def test_entry_L_triangularity_grid():
    for i in range(1, 13):
        for j in range(i + 1, 13):
            assert entry_L(i, j, SYMBOLIC_T) == 0


def test_entry_L_singular_at_denominator_root():
    # i=2, j=1: denominator factor 9t^2 - 4 vanishes at t = 2/3
    with pytest.raises(SingularEntry) as info:
        entry_L(2, 1, Fraction(2, 3))
    assert info.value.positions == [(2, 1)]


def test_entry_L_zero_numerator_is_fine():
    # t = 2 zeroes the numerator factor (j=1, k=1) but no denominator factor
    assert entry_L(2, 1, Fraction(2)) == 0


def test_entry_L_rejects_bad_indices():
    with pytest.raises(DomainError):
        entry_L(0, 1, SYMBOLIC_T)
    with pytest.raises(DomainError):  # and entry_U, also below the diagonal
        entry_U(2, 0, 1)


# -- entry_U -----------------------------------------------------------------


def test_entry_U_top_left_symbolic():
    value = entry_U(1, 1, SYMBOLIC_T)
    assert value == RationalFunction(1, 4 - T**2)
    assert str(value) == "(-1)/(t^2 - 4)"
    assert value == build_matrix(1, SYMBOLIC_T).at(1, 1)


def test_entry_U_first_row_equals_matrix_row():
    for l in range(1, 6):
        assert entry_U(1, l, SYMBOLIC_T) == build_matrix(5, SYMBOLIC_T).at(1, l)


def test_entry_U_second_diagonal_at_t_one():
    assert entry_U(2, 2, 1) == Fraction(32, 175)


def test_entry_U_vanishes_below_diagonal():
    assert entry_U(2, 1, SYMBOLIC_T) == 0
    assert entry_U(2, 1, Fraction(1)) == 0


def test_entry_U_triangularity_grid():
    for j in range(1, 13):
        for l in range(1, j):
            assert entry_U(j, l, SYMBOLIC_T) == 0


def test_entry_U_singular_first_product():
    with pytest.raises(SingularEntry):
        entry_U(1, 1, Fraction(2))


def test_entry_U_singular_second_product():
    # j=2, l=2: factor (2j-1)^2 t^2 - 4 of the second product vanishes at 2/3
    with pytest.raises(SingularEntry) as info:
        entry_U(2, 2, Fraction(2, 3))
    assert "second product" in str(info.value)


# -- ring form against the field form -------------------------------------------


def field_entry_L(i, j, t):
    """entry_L transcribed factor by factor into field arithmetic."""
    t = coerce_scalar(t)
    one = t ** 0
    if i < j:
        return one * 0
    if i == j:
        return one
    tt = t * t
    num = one
    den = one
    for k in range(1, j + 1):
        num = num * ((2 * j - 1) ** 2 * tt - (2 * k) ** 2)
        factor = (2 * i - 1) ** 2 * tt - (2 * k) ** 2
        if factor == 0:
            raise SingularEntry([(i, j)], t=t, note=f"denominator factor k={k}")
        den = den * factor
    scale = Fraction(factorial(i + j - 2), factorial(i - j) * factorial(2 * j - 2))
    return num / den * scale


def field_entry_U(j, l, t):
    """entry_U transcribed factor by factor into field arithmetic."""
    t = coerce_scalar(t)
    one = t ** 0
    if l < j:
        return one * 0
    tt = t * t
    den = one
    for k in range(1, j + 1):
        factor = (2 * k - 1) ** 2 * tt - (2 * l) ** 2
        if factor == 0:
            raise SingularEntry([(j, l)], t=t, note=f"denominator factor k={k}, first product")
        den = den * factor
    for k in range(1, j):
        factor = (2 * j - 1) ** 2 * tt - (2 * k) ** 2
        if factor == 0:
            raise SingularEntry([(j, l)], t=t, note=f"denominator factor k={k}, second product")
        den = den * factor
    num = t ** (2 * j - 2) * ((-1) ** j * 16 ** (j - 1) * factorial(2 * j - 2))
    scale = Fraction(factorial(j + l - 1), l * factorial(l - j))
    return num / den * scale


def _outcome(f, *args):
    """(type, value) of f(*args) -- an entry or a whole factor -- or the full
    identity of its SingularEntry."""
    try:
        value = f(*args)
    except SingularEntry as exc:
        return SingularEntry, exc.positions, exc.note, str(exc)
    return type(value), value


# t = +-2b/(2a-1) zeroes a factor (2a-1)^2 t^2 - (2b)^2 of some entry below.
factor_roots = st.builds(
    lambda a, b, sign: Fraction(sign * 2 * b, 2 * a - 1),
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from([1, -1]),
)
fraction_t = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)),
    factor_roots,
)
index = st.integers(1, 7)


@given(index, index, fraction_t)
def test_entries_equal_field_form_numeric(a, b, t):
    assert _outcome(entry_L, a, b, t) == _outcome(field_entry_L, a, b, t)
    assert _outcome(entry_U, a, b, t) == _outcome(field_entry_U, a, b, t)


@pytest.mark.parametrize(
    "t",
    [
        RationalFunction(T + 1, T - 1),
        RationalFunction(1, T),
        RationalFunction(2 * T, 3),
        RationalFunction(Fraction(2, 3)),  # a constant root: singular entries
    ],
    ids=str,
)
def test_entries_equal_field_form_symbolic(t):
    for a in range(1, 6):
        for b in range(1, 6):
            assert _outcome(entry_L, a, b, t) == _outcome(field_entry_L, a, b, t)
            assert _outcome(entry_U, a, b, t) == _outcome(field_entry_U, a, b, t)


def test_symbolic_factors_normalise_once_per_entry(monkeypatch):
    # Building an entry factor by factor in the field normalises at every
    # step (1188 RationalFunction constructions here); the ring form
    # normalises each entry once.
    calls = 0
    init = RationalFunction.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    s = 8
    build_L(s, SYMBOLIC_T)
    build_U(s, SYMBOLIC_T)
    assert calls <= 2 * s * s


def test_zero_and_unit_entries_need_no_field_products(monkeypatch):
    # The zeros off the triangles and L's unit diagonal are the field's own
    # 0 and 1, not products such as 1 * 0 (each of which ran gcds).
    with_zero = []
    field_mul = RationalFunction.__mul__

    def spy(a, b):
        if not a or not b:
            with_zero.append((a, b))
        return field_mul(a, b)

    monkeypatch.setattr(RationalFunction, "__mul__", spy)
    monkeypatch.setattr(RationalFunction, "__rmul__", spy)
    lower, upper = build_L(6, SYMBOLIC_T), build_U(6, SYMBOLIC_T)
    monkeypatch.undo()
    assert with_zero == []
    for i in range(1, 7):
        for l in range(1, 7):
            if l != i:
                zero = lower.at(i, l) if l > i else upper.at(i, l)
                assert isinstance(zero, RationalFunction) and zero == 0
        assert isinstance(lower.at(i, i), RationalFunction) and lower.at(i, i) == 1


# -- assembled factors ---------------------------------------------------------


def test_build_L_size_one():
    assert build_L(1, SYMBOLIC_T) == ExactMatrix([[1]])
    assert build_L(1, Fraction(5, 9)) == ExactMatrix([[1]])


def test_build_L_size_two_symbolic():
    expected = ExactMatrix(
        [
            [RationalFunction(1), RationalFunction(0)],
            [RationalFunction(T**2 - 4, 9 * T**2 - 4), RationalFunction(1)],
        ]
    )
    assert build_L(2, SYMBOLIC_T) == expected


def test_build_U_size_one_symbolic():
    assert build_U(1, SYMBOLIC_T) == ExactMatrix([[RationalFunction(1, 4 - T**2)]])


def test_factors_multiply_to_matrix_numeric():
    for s in (1, 2, 3, 4):
        product = build_L(s, 1) @ build_U(s, 1)
        assert product == build_matrix(s, 1)


def test_factors_match_doolittle_small_symbolic():
    for s in (1, 2, 3):
        factors = lu_doolittle(build_matrix(s, SYMBOLIC_T))
        assert build_L(s, SYMBOLIC_T) == factors.L
        assert build_U(s, SYMBOLIC_T) == factors.U


# -- the product table one build shares ---------------------------------------


def entrywise(entry, s, t):
    """The s-by-s factor from entry(a, b, t) called one by one, row by row,
    outside any build; the first SingularEntry propagates, as from a build."""
    return ExactMatrix([[entry(a, b, t) for b in range(1, s + 1)] for a in range(1, s + 1)])


@pytest.mark.parametrize("t", [1, Fraction(37, 11), Fraction(3, 49)], ids=str)
def test_builds_equal_entrywise_numeric(t):
    for s in (1, 2, 7, 40):
        assert build_L(s, t) == entrywise(entry_L, s, t)
        assert build_U(s, t) == entrywise(entry_U, s, t)


def test_builds_equal_entrywise_symbolic():
    for s in (1, 2, 5, 8):
        assert build_L(s, SYMBOLIC_T) == entrywise(entry_L, s, SYMBOLIC_T)
        assert build_U(s, SYMBOLIC_T) == entrywise(entry_U, s, SYMBOLIC_T)


@given(st.integers(1, 8), fraction_t)
def test_builds_raise_the_first_entrys_singular_error(s, t):
    # The same positions, note (factor k, first or second product) and text
    # as the first singular entry met row by row, or the same values.
    assert _outcome(build_L, s, t) == _outcome(entrywise, entry_L, s, t)
    assert _outcome(build_U, s, t) == _outcome(entrywise, entry_U, s, t)


@pytest.mark.parametrize(
    "build, t, note",
    [
        (build_L, Fraction(2, 3), "denominator factor k=1"),
        (build_U, Fraction(2), "denominator factor k=1, first product"),
        (build_U, Fraction(2, 3), "denominator factor k=1, second product"),
    ],
    ids=["L", "U-first", "U-second"],
)
def test_singular_build_names_the_factor(build, t, note):
    with pytest.raises(SingularEntry) as info:
        build(4, t)
    assert info.value.note == note
    entry = entry_L if build is build_L else entry_U
    assert _outcome(build, 4, t) == _outcome(entrywise, entry, 4, t)


def test_build_table_is_gone_after_the_build(monkeypatch):
    seen = []
    original = closed_form.entry_U

    def spy(j, l, t):
        seen.append(closed_form._BUILD_TABLE.get())
        return original(j, l, t)

    monkeypatch.setattr(closed_form, "entry_U", spy)
    assert closed_form._BUILD_TABLE.get() is None
    build_U(3, Fraction(5, 7))
    assert closed_form._BUILD_TABLE.get() is None
    assert len(seen) == 9 and all(table is seen[0] for table in seen)
    assert seen[0].key == Fraction(5, 7)
    with pytest.raises(SingularEntry):
        build_U(3, Fraction(2))
    assert closed_form._BUILD_TABLE.get() is None
    with pytest.raises(SingularEntry):
        build_L(3, Fraction(2, 3))
    assert closed_form._BUILD_TABLE.get() is None


def test_entry_called_with_another_t_inside_a_build_gets_that_t(monkeypatch):
    # A patched entry_U that evaluates the original at a different t must not
    # be served the products of the build's t.
    other = Fraction(3, 49)
    original = closed_form.entry_U
    monkeypatch.setattr(closed_form, "entry_U", lambda j, l, t: original(j, l, other))
    assert build_U(6, Fraction(37, 11)) == entrywise(original, 6, other)
    monkeypatch.setattr(closed_form, "entry_U", lambda j, l, t: original(j, l, Fraction(t)))
    assert build_U(6, 1) == entrywise(original, 6, 1)


def test_builds_in_threads_get_their_own_products(monkeypatch):
    # Each build makes one table (one _ring call) and every entry of it finds
    # that table, however the threads interleave.
    ts = [Fraction(37, 11), Fraction(3, 49), Fraction(1), Fraction(15, 13)]
    expected = {t: (entrywise(entry_L, 12, t), entrywise(entry_U, 12, t)) for t in ts}
    results = {}
    tables = []
    ring = closed_form._ring

    def counting_ring(t):
        tables.append(threading.get_ident())
        return ring(t)

    monkeypatch.setattr(closed_form, "_ring", counting_ring)
    start = threading.Barrier(len(ts))

    def work(t):
        start.wait(timeout=30)
        results[t] = [(build_L(12, t), build_U(12, t)) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in ts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results.keys() == expected.keys()
    for t, runs in results.items():
        assert all(run == expected[t] for run in runs)
    assert sorted(collections.Counter(tables).values()) == [10] * len(ts)


# -- Gamma identities -----------------------------------------------------------


def test_gamma_left_base_case():
    lhs, rhs = gamma_identity_left(1, 1)
    assert lhs == T**2 - 4
    assert rhs == T**2 - 4


def test_gamma_left_two_two():
    lhs, rhs = gamma_identity_left(2, 2)
    assert lhs == (9 * T**2 - 4) * (9 * T**2 - 16)
    assert lhs == rhs


def test_gamma_left_degree_count():
    for i in range(1, 5):
        for j in range(1, 5):
            lhs, rhs = gamma_identity_left(i, j)
            assert isinstance(lhs, Polynomial) and isinstance(rhs, Polynomial)
            assert lhs.degree == 2 * j
            assert rhs.degree == 2 * j


def test_gamma_right_base_cases():
    lhs, rhs = gamma_identity_right(1, 1)
    assert lhs == T**2 - 4 and rhs == T**2 - 4
    lhs, rhs = gamma_identity_right(1, 2)
    assert lhs == T**2 - 16 and rhs == T**2 - 16


def test_gamma_right_rhs_normalizes_to_polynomial():
    for j in range(1, 5):
        for l in range(1, 5):
            _, rhs = gamma_identity_right(j, l)
            assert isinstance(rhs, Polynomial)
            assert rhs.degree == 2 * j


def reference_gamma_left(i, j):
    """P(i, j) and its rising-factorial form, each multiplied out afresh."""
    h = Fraction(2 * i - 1, 2)
    lhs = math.prod((2 * i - 1) ** 2 * T**2 - (2 * k) ** 2 for k in range(1, j + 1))
    rhs = (-4) ** j * rising_factorial(1 - h * T, j) * rising_factorial(1 + h * T, j)
    return lhs, rhs


def reference_gamma_right(j, l):
    """Q(l, j) and its rising-factorial form, t^(2j) f(1/t) read off f."""
    lhs = math.prod((2 * k - 1) ** 2 * T**2 - (2 * l) ** 2 for k in range(1, j + 1))
    half = Fraction(1, 2)
    f = 4**j * rising_factorial(half + l * T, j) * rising_factorial(half - l * T, j)
    return lhs, Polynomial(f.coeffs[::-1])


def test_gamma_prefix_sides_equal_each_pair_and_the_reference():
    for index in range(1, 13):
        left = list(closed_form.gamma_sides_left(index, 12))
        right = list(closed_form.gamma_sides_right(index, 12))
        assert len(left) == len(right) == 12
        for j, (row, column) in enumerate(zip(left, right), start=1):
            assert row == gamma_identity_left(index, j) == reference_gamma_left(index, j)
            assert column == gamma_identity_right(j, index) == reference_gamma_right(j, index)
            assert row[0] == row[1] and column[0] == column[1]


def test_gamma_prefix_sides_check_their_bounds_when_called():
    assert list(closed_form.gamma_sides_left(3, 0)) == []
    assert list(closed_form.gamma_sides_right(2, 0)) == []
    for call in (
        lambda: closed_form.gamma_sides_left(0, 3),
        lambda: closed_form.gamma_sides_right(0, 3),
        lambda: closed_form.gamma_sides_right(2, -1),
        lambda: closed_form.gamma_sides_right(2.0, 3),
        lambda: gamma_identity_left(1, 0),
    ):
        with pytest.raises(DomainError):
            call()


def field_gamma_right_rhs(j, l):
    """gamma_identity_right's rhs as a product in Q(t), l/t and all."""
    half = Fraction(1, 2)
    l_over_t = RationalFunction(Polynomial((l,)), T)
    return (
        Fraction(4**j)
        * RationalFunction(T ** (2 * j))
        * rising_factorial(half + l_over_t, j)
        * rising_factorial(half - l_over_t, j)
    )


def test_gamma_right_rhs_equals_field_form():
    for j in range(1, 11):
        for l in range(1, 11):
            _, rhs = gamma_identity_right(j, l)
            field = field_gamma_right_rhs(j, l)
            assert field.den == 1 and rhs == field.num


def test_gamma_grid_runs_in_q_of_t_without_gcd(monkeypatch):
    # Both identities are built in Q[t]: no Polynomial.cofactors (the
    # field's normalisation) is called and no RationalFunction is made.
    calls = []
    cofactors, init = Polynomial.cofactors, RationalFunction.__init__

    def spy_cofactors(a, b):
        calls.append("cofactors")
        return cofactors(a, b)

    def spy_init(self, *args, **kwargs):
        calls.append("RationalFunction")
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "cofactors", spy_cofactors)
    monkeypatch.setattr(RationalFunction, "__init__", spy_init)
    assert verify_gamma_identities(8).passed
    assert calls == []


# -- determinant and chain --------------------------------------------------------


def test_det_closed_empty_product():
    assert det_closed(0, 1) == 1
    assert det_closed(0, SYMBOLIC_T) == 1


def test_det_closed_values_at_t_one():
    assert det_closed(1, 1) == Fraction(1, 3)
    assert det_closed(2, 1) == Fraction(32, 525)
    assert det_closed(2, 1) == det_elimination(build_matrix(2, 1))


def test_det_closed_symbolic_matches_elimination():
    for s in (1, 2, 3):
        assert det_closed(s, SYMBOLIC_T) == det_elimination(build_matrix(s, SYMBOLIC_T))


def test_symbolic_det_closed_needs_no_gcdheu_point(monkeypatch):
    # Each diagonal entry of U has a monomial numerator c t^(2j-2), so every
    # gcd of the running product has a monomial operand and is read off as
    # a power of t: GCDHEU runs at no point.
    calls = []
    heu = polynomial_module._heu_at
    monkeypatch.setattr(polynomial_module, "_heu_at", lambda *args: calls.append(args) or heu(*args))
    result = det_closed(16, SYMBOLIC_T)
    monkeypatch.undo()
    assert calls == []
    t = Fraction(37, 11)
    assert result(t) == det_closed(16, t)


def test_det_closed_rejects_negative_size():
    with pytest.raises(DomainError):
        det_closed(-1, 1)
    with pytest.raises(DomainError):  # det_t1 starts at s = 1
        det_t1(0)


@pytest.mark.parametrize(
    "s, expected",
    [
        (1, Fraction(1, 3)),
        (2, Fraction(32, 525)),
        (3, Fraction(524288, 68762925)),
    ],
)
def test_chain_values(s, expected):
    chain = chain_t1(s)
    assert chain.all_equal
    assert chain.values == (expected,) * 6


def test_chain_values_are_six_independent_fields():
    chain = chain_t1(4)
    assert len(chain.values) == 6
    assert chain.all_equal


def test_single_normalised_chain_forms_equal_the_raw_product():
    # E4-E6 multiply their denominators up as ints and normalise once; E1
    # reduces step by step from the raw signed factor products.
    for s in range(1, 61):
        assert chain_e4(s) == chain_e5(s) == chain_e6(s) == chain_e1(s)


def test_chain_first_disagreement_reporting():
    broken = ChainValues(s=1, values=(Fraction(1, 3),) * 2 + (Fraction(32, 3),) + (Fraction(1, 3),) * 3)
    assert not broken.all_equal


def test_det_t1_values():
    assert det_t1(1) == Fraction(1, 3)
    assert det_t1(2) == Fraction(32, 525)
    assert det_t1(4) == DET_T1_S4


def test_det_t1_matches_live_oracle():
    assert det_t1(4) == det_elimination(build_matrix(4, 1))


def test_det_t1_positive_through_twenty():
    for s in range(1, 21):
        assert det_t1(s) > 0
