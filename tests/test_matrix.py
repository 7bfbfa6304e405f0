"""Matrix construction, Doolittle LU, and the elimination determinant."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylu import (
    DimensionMismatch,
    DomainError,
    ExactMatrix,
    LUFactors,
    Polynomial,
    SYMBOLIC_T,
    SingularEntry,
    T,
    ZeroPivot,
    build_L,
    build_U,
    build_matrix,
    det_closed,
    det_elimination,
    lu_doolittle,
    RationalFunction,
)
from cauchylu import matrix as matrix_mod
from cauchylu import polynomial as polynomial_module
from cauchylu.ratfunc import coerce_scalar

M2_T1 = ExactMatrix(
    [
        [Fraction(1, 3), Fraction(1, 15)],
        [Fraction(-1, 5), Fraction(1, 7)],
    ]
)

small_ints = st.integers(-9, 9)
entries = st.builds(Fraction, small_ints, st.integers(1, 9))


@st.composite
def square_matrices(draw, max_size=4):
    """Square matrices of ints, of Fractions, or of both mixed."""
    n = draw(st.integers(1, max_size))
    kind = draw(st.sampled_from([small_ints, entries, st.one_of(small_ints, entries)]))
    rows = draw(
        st.lists(st.lists(kind, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return ExactMatrix(rows)


def _eye(n):
    """The n x n identity."""
    return ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)])


# -- construction ---------------------------------------------------------


def test_build_matrix_size_one():
    assert build_matrix(1, 1).at(1, 1) == Fraction(1, 3)


def test_build_matrix_size_two_at_t_one():
    assert build_matrix(2, 1) == M2_T1
    assert ExactMatrix([[1, 2, 3], [4, 5, 6]]) != ExactMatrix([[1, 2], [3, 4], [5, 6]])


def test_build_matrix_symbolic_entries():
    m = build_matrix(2, SYMBOLIC_T)
    assert m.at(1, 1) == RationalFunction(1, 4 - T**2)
    assert m.at(2, 2) == RationalFunction(1, 16 - 9 * T**2)


def test_build_matrix_singular_at_t_two():
    with pytest.raises(SingularEntry) as info:
        build_matrix(1, 2)
    assert info.value.positions == [(1, 1)]


def test_build_matrix_lists_every_singular_pair():
    # t = 2 zeroes (2l)^2 - 4(2i-1)^2 exactly when l = 2i-1
    with pytest.raises(SingularEntry) as info:
        build_matrix(3, 2)
    assert info.value.positions == [(1, 1), (2, 3)]


def test_build_matrix_rejects_bad_input():
    with pytest.raises(DomainError):
        build_matrix(0, 1)
    with pytest.raises(DomainError):
        build_matrix(2, 0.5)


def field_build_matrix(s, t):
    """build_matrix transcribed into field arithmetic: 1 / ((2l)^2 - t^2 (2i-1)^2)."""
    t = coerce_scalar(t)
    rows, singular = [], []
    for i in range(1, s + 1):
        row = []
        for l in range(1, s + 1):
            den = (2 * l) ** 2 - t * t * (2 * i - 1) ** 2
            if den == 0:
                singular.append((i, l))
                row.append(None)
            else:
                row.append(1 / den)
        rows.append(row)
    if singular:
        raise SingularEntry(singular, t=t)
    return ExactMatrix(rows)


def _outcome(build, s, t):
    """(entry types, matrix), or the full identity of its SingularEntry."""
    try:
        m = build(s, t)
    except SingularEntry as exc:
        return SingularEntry, exc.positions, exc.note, str(exc)
    return [type(x) for row in m.rows for x in row], m


# t = +-2l/(2i-1) zeroes the denominator of entry (i, l).
entry_roots = st.builds(
    lambda i, l, sign: Fraction(sign * 2 * l, 2 * i - 1),
    st.integers(1, 10),
    st.integers(1, 10),
    st.sampled_from([1, -1]),
)
family_t = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)),
    entry_roots,
)


@given(st.integers(1, 10), family_t)
def test_build_matrix_equals_field_form_numeric(s, t):
    assert _outcome(build_matrix, s, t) == _outcome(field_build_matrix, s, t)


@pytest.mark.parametrize(
    "t",
    [SYMBOLIC_T, RationalFunction(T + 1, T - 1), RationalFunction(2 * T, 3)],
    ids=str,
)
def test_build_matrix_equals_field_form_symbolic(t):
    assert _outcome(build_matrix, 10, t) == _outcome(field_build_matrix, 10, t)


def test_symbolic_matrix_is_one_ratio_per_entry(monkeypatch):
    # Each entry is normalised once, from ring products, with no field
    # operation before it.
    inits, field_ops = [], []
    init = RationalFunction.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(
            RationalFunction, name, lambda a, b, name=name: field_ops.append(name)
        )
    build_matrix(10, SYMBOLIC_T)
    assert len(inits) == 100
    assert field_ops == []


@pytest.mark.parametrize("entry", [0.5, 2.0, complex(1, 0), "1/2", None])
def test_inexact_entries_are_rejected(entry):
    with pytest.raises(DomainError):
        ExactMatrix([[entry, 1], [1, 2]])
    with pytest.raises(DomainError):
        ExactMatrix([[1, 2], [3, entry]])


small_polys = st.builds(Polynomial, st.lists(entries, max_size=3))
mixed_entries = st.one_of(
    small_ints,
    st.booleans(),
    entries,
    small_polys,
    st.builds(RationalFunction, small_polys, small_polys.filter(lambda p: not p.is_zero)),
)


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(mixed_entries, min_size=n, max_size=n), min_size=1, max_size=3)
))
def test_entries_are_lifted_into_one_field(rows):
    m = ExactMatrix(rows)
    symbolic = any(isinstance(x, (Polynomial, RationalFunction)) for row in rows for x in row)
    field = RationalFunction if symbolic else Fraction
    assert all(type(x) is field for row in m.rows for x in row)
    assert m.rows == tuple(map(tuple, rows))


def test_at_is_one_based():
    m = build_matrix(2, 1)
    assert m.at(2, 1) == Fraction(-1, 5)
    with pytest.raises(DomainError):
        m.at(0, 1)
    with pytest.raises(DomainError):
        m.at(1, 3)


@pytest.mark.parametrize("i, l", [(1.5, 1), ("1", 1), (1, 2.0), (None, 1)])
def test_at_refuses_indices_that_are_not_ints(i, l):
    with pytest.raises(DomainError, match="must be an int"):
        build_matrix(2, 1).at(i, l)


@pytest.mark.parametrize(
    "kernel, m",
    [
        pytest.param(lu_doolittle, 5, id="lu_doolittle-int"),
        pytest.param(lu_doolittle, [[1]], id="lu_doolittle-list"),
        pytest.param(det_elimination, [[1]], id="det_elimination-list"),
        pytest.param(det_elimination, None, id="det_elimination-None"),
    ],
)
def test_kernels_refuse_what_is_not_a_matrix(kernel, m):
    with pytest.raises(DomainError, match="needs an ExactMatrix"):
        kernel(m)


@pytest.mark.parametrize(
    "rows", [5, [5], [[1], 5], None], ids=["int", "list-of-int", "int-row", "None"]
)
def test_rows_that_are_not_iterables_of_entries_are_refused(rows):
    with pytest.raises(DomainError, match="iterable of rows of entries"):
        ExactMatrix(rows)


@pytest.mark.parametrize("rows", [[], [[]], [[], []]], ids=["no-rows", "empty-row", "empty-rows"])
def test_empty_matrices_are_refused(rows):
    with pytest.raises(DomainError, match="at least one row and one column"):
        ExactMatrix(rows)


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], []]])
def test_ragged_rows_are_refused(rows):
    with pytest.raises(DomainError, match="ragged rows"):
        ExactMatrix(rows)


def test_equality_is_by_entries_and_never_with_other_types():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m == ExactMatrix([[Fraction(1), 2], [3, Fraction(8, 2)]])
    assert m != ExactMatrix([[1, 2], [3, 5]])
    assert m != ((1, 2), (3, 4)) and m.__eq__(m.rows) is NotImplemented


# -- transpose -------------------------------------------------------------


@given(square_matrices())
def test_transpose_preserves_determinant(m):
    assert det_elimination(m) == det_elimination(ExactMatrix(zip(*m.rows)))


def test_transpose_preserves_determinant_symbolic():
    for s in range(1, 5):
        m = build_matrix(s, SYMBOLIC_T)
        assert det_elimination(m) == det_elimination(ExactMatrix(zip(*m.rows)))


def test_transpose_preserves_determinant_numeric_family():
    for s in range(1, 6):
        m = build_matrix(s, 1)
        assert det_elimination(m) == det_elimination(ExactMatrix(zip(*m.rows)))


# -- matmul ----------------------------------------------------------------


def test_matmul_identity_and_zero():
    eye = _eye(2)
    zero = ExactMatrix([[0, 0], [0, 0]])
    assert M2_T1 @ eye == M2_T1
    assert zero @ M2_T1 == zero


def test_matmul_recovers_symbolic_matrix():
    for s in range(1, 5):
        m = build_matrix(s, SYMBOLIC_T)
        factors = lu_doolittle(m)
        assert factors.L @ factors.U == m


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ExactMatrix([[1, 2]]) @ ExactMatrix([[1, 2]])


@pytest.mark.parametrize(
    "a, b",
    [
        ([[Fraction(1, 2), 1]], [[1, 2]]),
        ([[SYMBOLIC_T, 1]], [[1, 2]]),
    ],
)
def test_matmul_dimension_mismatch_on_every_entry_kind(a, b):
    with pytest.raises(DimensionMismatch):
        ExactMatrix(a) @ ExactMatrix(b)


def _naive_product(a, b):
    """Term-by-term field sums of the lifted entries: the reference for
    matmul."""
    a, b = ExactMatrix(a).rows, ExactMatrix(b).rows
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


huge = st.integers(-(2**1100), 2**1100)
exact_ints = st.one_of(st.integers(-9, 9), huge)
exact_fractions = st.builds(
    Fraction, exact_ints, st.one_of(st.integers(1, 9), st.integers(1, 2**1100))
)


# Common factors of a line: large, with both numerator and denominator.
contents = st.builds(
    Fraction, st.integers(1, 2**200).map(lambda x: x * (-1) ** x), st.integers(1, 2**200)
)


@st.composite
def matmul_operands(draw):
    """(a, b): n-by-k and k-by-p entry lists of one kind.

    Shapes include 1-by-n and n-by-1, entries are negative, huge or zero, and
    a whole row of a or column of b may be zero.  A row of b may carry a
    large common content, and zeros beside it.
    """
    n, k, p = (draw(st.integers(1, 4)) for _ in range(3))
    kind = draw(st.sampled_from([exact_ints, exact_fractions, st.one_of(exact_ints, exact_fractions)]))
    a = draw(st.lists(st.lists(kind, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(kind, min_size=p, max_size=p), min_size=k, max_size=k))
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [0] * k
    if draw(st.booleans()):
        col = draw(st.integers(0, p - 1))
        for row in b:
            row[col] = 0
    if draw(st.booleans()):
        r, c = draw(st.integers(0, k - 1)), draw(contents)
        zeros = draw(st.sets(st.integers(0, p - 1), max_size=p - 1))
        b[r] = [0 if j in zeros else c * x for j, x in enumerate(b[r])]
    return a, b


@given(matmul_operands())
def test_matmul_equals_naive_sums(operands):
    a, b = operands
    product = ExactMatrix(a) @ ExactMatrix(b)
    assert _typed(product.rows) == _typed(_naive_product(a, b))


@pytest.mark.parametrize(
    "a, b",
    [
        (lu_doolittle(build_matrix(3, SYMBOLIC_T)).L.rows, lu_doolittle(build_matrix(3, SYMBOLIC_T)).U.rows),
        (_eye(2).rows, build_matrix(2, SYMBOLIC_T).rows),
        ([[T + 1, Fraction(1, 2)]], [[T], [3]]),
    ],
)
def test_matmul_of_field_elements_equals_naive_sums(a, b):
    product = ExactMatrix(a) @ ExactMatrix(b)
    assert _typed(product.rows) == _typed(_naive_product(a, b))


def test_field_products_skip_zero_factors(monkeypatch):
    lower, upper = build_L(6, SYMBOLIC_T), build_U(6, SYMBOLIC_T)
    with_zero = []
    field_mul = RationalFunction.__mul__

    def spy(a, b):
        if not a or not b:
            with_zero.append((a, b))
        return field_mul(a, b)

    monkeypatch.setattr(RationalFunction, "__mul__", spy)
    monkeypatch.setattr(RationalFunction, "__rmul__", spy)
    product = lower @ upper
    monkeypatch.undo()
    assert with_zero == []
    assert product == build_matrix(6, SYMBOLIC_T)


# -- Doolittle LU ------------------------------------------------------------


def test_doolittle_symbolic_subdiagonal_entry():
    factors = lu_doolittle(build_matrix(2, SYMBOLIC_T))
    assert factors.L.at(2, 1) == RationalFunction(T**2 - 4, 9 * T**2 - 4)


def test_doolittle_on_diagonal_matrix():
    m = ExactMatrix([[Fraction(3), 0], [0, Fraction(5, 7)]])
    factors = lu_doolittle(m)
    assert factors.L == _eye(2)
    assert factors.U == m


def test_doolittle_size_one():
    factors = lu_doolittle(build_matrix(1, 1))
    assert factors.L == ExactMatrix([[1]])
    assert factors.U == ExactMatrix([[Fraction(1, 3)]])


def test_doolittle_triangularity_structure():
    factors = lu_doolittle(build_matrix(4, 1))
    for i in range(1, 5):
        assert factors.L.at(i, i) == 1
        for j in range(1, 5):
            if j > i:
                assert factors.L.at(i, j) == 0
            if j < i:
                assert factors.U.at(i, j) == 0


def test_doolittle_zero_pivot_is_reported_with_step():
    with pytest.raises(ZeroPivot) as info:
        lu_doolittle(ExactMatrix([[0, 1], [1, 0]]))
    assert info.value.step == 1
    # t = 0 collapses the matrix to rank one: second pivot vanishes
    with pytest.raises(ZeroPivot) as info:
        lu_doolittle(build_matrix(2, 0))
    assert info.value.step == 2


@given(square_matrices())
def test_doolittle_reconstructs_input(m):
    try:
        factors = lu_doolittle(m)
    except ZeroPivot:
        return
    assert factors.L @ factors.U == m


def test_int_matrices_factor_over_the_rationals():
    eye = _eye(3)
    factors = lu_doolittle(eye)
    assert factors.L == eye and factors.U == eye
    assert {type(x) for f in factors for row in f.rows for x in row} == {Fraction}
    det = det_elimination(ExactMatrix([[1, 2], [3, 4]]))
    assert det == -2 and type(det) is Fraction


def test_polynomial_entries_are_lifted_to_rational_functions():
    m = ExactMatrix([[T, 1], [1, T]])
    factors = lu_doolittle(m)
    assert factors.L.at(2, 1) == RationalFunction(1, T)
    assert factors.U.at(2, 2) == RationalFunction(T**2 - 1, T)
    assert {type(x) for f in factors for row in f.rows for x in row} == {RationalFunction}
    assert factors.L @ factors.U == m
    assert det_elimination(m) == T**2 - 1


@given(square_matrices(max_size=5))
def test_factors_and_determinants_are_exact(m):
    # L @ U == m on the same matrices is test_doolittle_reconstructs_input.
    assert type(det_elimination(m)) in (int, Fraction)
    try:
        factors = lu_doolittle(m)
    except ZeroPivot:
        return
    assert {type(x) for f in factors for row in f.rows for x in row} == {Fraction}


# -- compact Doolittle against right-looking elimination ---------------------


def right_looking_doolittle(m):
    """Reference: forward elimination, updating every trailing row at each step.

    This is the elimination ``lu_doolittle`` used before the compact scheme,
    with the entries first lifted into their field (ints to Fraction, all to
    RationalFunction when any entry is a polynomial or rational function).
    """
    symbolic = any(isinstance(x, (Polynomial, RationalFunction)) for row in m.rows for x in row)
    field = RationalFunction if symbolic else Fraction
    a = [[x if type(x) is field else field(x) for x in row] for row in m.rows]
    n = len(a)
    zero = a[0][0] * 0
    one = zero + 1
    low = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            raise ZeroPivot(k + 1)
        for r in range(k + 1, n):
            f = a[r][k] / pivot
            low[r][k] = f
            if f == 0:
                continue
            for c in range(k, n):
                a[r][c] = a[r][c] - f * a[k][c]
    upper = [[a[i][j] if j >= i else zero for j in range(n)] for i in range(n)]
    return LUFactors(ExactMatrix(low), ExactMatrix(upper))


def _lu_outcome(lu, m):
    """The factors, entry types included, or the ZeroPivot step."""
    try:
        factors = lu(m)
    except ZeroPivot as e:
        return ("ZeroPivot", e.step)
    return tuple(_typed(f.rows) for f in factors)


def _assert_equals_reference(m):
    assert _lu_outcome(lu_doolittle, m) == _lu_outcome(right_looking_doolittle, m)


@given(square_matrices(max_size=6))
def test_compact_equals_right_looking(m):
    _assert_equals_reference(m)


@pytest.mark.parametrize(
    "t", [0, 1, -1, Fraction(1, 2), Fraction(37, 11), Fraction(49, 3), Fraction(3, 49), Fraction(-5, 7)]
)
def test_compact_equals_right_looking_on_family(t):
    _assert_equals_reference(build_matrix(12, t))


def test_compact_equals_right_looking_symbolic():
    for s in range(1, 7):
        _assert_equals_reference(build_matrix(s, SYMBOLIC_T))


def _field_sum_lengths(monkeypatch):
    """Record the length of every sum taken in the field, not as integers."""
    lengths = []
    field_sum = matrix_mod._field_sum

    def spy(row, col):
        lengths.append(len(row))
        return field_sum(row, col)

    monkeypatch.setattr(matrix_mod, "_field_sum", spy)
    return lengths


def test_family_sums_are_integer_dot_products(monkeypatch):
    m = build_matrix(12, Fraction(37, 11))
    lengths = _field_sum_lengths(monkeypatch)
    _assert_equals_reference(m)
    # The reference's own field operations do not go through _field_sum.
    assert lengths == []


def test_symbolic_family_sums_are_polynomial_dot_products(monkeypatch):
    m = build_matrix(8, SYMBOLIC_T)
    lengths = _field_sum_lengths(monkeypatch)
    _assert_equals_reference(m)
    assert lengths == []


# Distinct 11-bit primes: the lcm of j of them has between 10j + 1 and 11j bits.
PRIMES_11_BITS = [p for p in range(1024, 1200) if all(p % q for q in range(2, 35))][:9]


def test_lines_with_coprime_denominators_fall_back_to_field_sums(monkeypatch):
    # Unit lower triangular, so L = m and U = I: row r of L holds r entries
    # 1/p for distinct primes p.  Six of them stay within 6 * 11 bits of
    # common denominator, seven exceed it, and the row falls back.
    n = len(PRIMES_11_BITS) + 1
    primes = iter(PRIMES_11_BITS * n)
    m = ExactMatrix(
        [[Fraction(1, next(primes)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    )
    lengths = _field_sum_lengths(monkeypatch)
    _assert_equals_reference(m)
    assert lu_doolittle(m) == (m, _eye(n))
    assert min(lengths) == 7


def test_polynomial_lines_with_coprime_denominators_fall_back_to_field_sums(monkeypatch):
    # The same over Q(t), where the guard compares degrees: row r of L holds
    # 1/(t - p) for r distinct p.  Six of them stay within 6 * 1 degrees of
    # common denominator, seven exceed it, and the row falls back.
    n = 10
    points = iter(range(1, n * n))
    m = ExactMatrix(
        [[RationalFunction(1, T - next(points)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    )
    lengths = _field_sum_lengths(monkeypatch)
    _assert_equals_reference(m)
    assert lu_doolittle(m) == (m, _eye(n))
    assert min(lengths) == 7


def test_fallback_sums_take_the_scaled_entries(monkeypatch):
    # L as above, with U upper triangular and row k of U a multiple of
    # 7^(k+1)/2 (its content), so that the rows of L hold L[r][k] 7^(k+1)/2
    # and the columns of U hold small ints.  The rows of L fall back, and
    # their field sums must pair each scaled entry of L with the scaled
    # entry of U.  The entry denominators 2p have 12 bits, and 2 times seven
    # of the primes stays within 6 * 12 bits, so they fall back at eight.
    n = len(PRIMES_11_BITS) + 1
    primes = iter(PRIMES_11_BITS * n)
    lower = ExactMatrix(
        [[Fraction(1, next(primes)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    )
    upper = ExactMatrix(
        [[Fraction(7 ** (i + 1), 2) * (1 + (i * j) % 5) if j >= i else 0 for j in range(n)] for i in range(n)]
    )
    m = lower @ upper
    lengths = _field_sum_lengths(monkeypatch)
    _assert_equals_reference(m)
    assert lu_doolittle(m) == (lower, upper)
    assert min(lengths) == 8


@st.composite
def pq_matrices(draw, max_size=7):
    """Square matrices of p/q, |p| < 100 and 1 <= q < 100, some with each
    row and column scaled by a large common content."""
    n = draw(st.integers(1, max_size))
    pq = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99))
    rows = draw(st.lists(st.lists(pq, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        by_row = draw(st.lists(contents, min_size=n, max_size=n))
        by_col = draw(st.lists(contents, min_size=n, max_size=n))
        rows = [[r * x * c for x, c in zip(row, by_col)] for r, row in zip(by_row, rows)]
    return ExactMatrix(rows)


@given(pq_matrices())
def test_compact_equals_right_looking_on_random_fractions(m):
    _assert_equals_reference(m)


nonzero_ints = st.integers(1, 9).map(lambda x: x * (-1) ** x)
qt_entries = st.one_of(
    st.just(0),
    st.builds(
        lambda a, b, c, k, d: RationalFunction(a * T + b, c * T**k + d),
        small_ints, small_ints, nonzero_ints, st.integers(1, 2), small_ints,
    ),
)
# Common factors of a row over Q(t), with both numerator and denominator.
qt_contents = st.builds(
    lambda e, f, g, h: RationalFunction(e * T**2 + f, g * T + h),
    nonzero_ints, small_ints, nonzero_ints, small_ints,
)


@st.composite
def qt_rows(draw, n):
    """n-by-n entries over Q(t), (a t + b)/(c t^k + d) with k = 1 or 2, and
    exact zeros, some with one row scaled by a common content."""
    rows = draw(st.lists(st.lists(qt_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        r, c = draw(st.integers(0, n - 1)), draw(qt_contents)
        rows[r] = [c * x for x in rows[r]]
    return rows


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(qt_rows))
def test_compact_equals_right_looking_over_qt(rows):
    _assert_equals_reference(ExactMatrix(rows))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(qt_rows(n), qt_rows(n))))
def test_qt_matmul_equals_naive_sums(operands):
    a, b = operands
    product = ExactMatrix(a) @ ExactMatrix(b)
    assert _typed(product.rows) == _typed(_naive_product(a, b))


def _cleared_column_sizes(monkeypatch, size):
    """Record size(den) of every cleared column of the right factor in @,
    and of the column of U read by every cleared inner product in
    lu_doolittle."""
    cleared, reduced = matrix_mod._cleared, matrix_mod._reduced
    product_sizes, factor_sizes = [], []

    def clearing(ring, lines):
        out = cleared(ring, lines)
        product_sizes.append([size(den) for _, den in out])
        return out

    def reducing(x, row, col, pivot=None):
        if col.nums is not None:
            factor_sizes.append(size(col.den))
        return reduced(x, row, col, pivot)

    monkeypatch.setattr(matrix_mod, "_cleared", clearing)
    monkeypatch.setattr(matrix_mod, "_reduced", reducing)
    return product_sizes, factor_sizes


def test_numeric_factor_lines_keep_small_denominators(monkeypatch):
    """With the content of each row of U moved onto the column of L, no
    column of U cleared at s = 40, t = 37/11 has a common denominator of
    1000 bits or more, in L @ U (567 bits) or in lu_doolittle (551 bits).
    Cleared with its contents, such a column collects the denominators of
    every row's Cauchy generator: 5076 and 4876 bits."""
    t = Fraction(37, 11)
    m = build_matrix(40, t)
    product_dens, factor_dens = _cleared_column_sizes(monkeypatch, int.bit_length)
    product = build_L(40, t) @ build_U(40, t)
    factors = lu_doolittle(m)
    monkeypatch.undo()
    _, cols_of_u = product_dens  # rows of L, then columns of U
    assert len(cols_of_u) == 40 and max(cols_of_u) < 1000
    assert len(factor_dens) == 40 * 40 and max(factor_dens) < 1000  # one per entry
    assert product == m
    assert factors == (build_L(40, t), build_U(40, t))


def test_symbolic_factor_lines_keep_small_degrees(monkeypatch):
    """The same over Q(t): at s = 16 no column of U cleared in L @ U or in
    lu_doolittle has a common denominator of degree 60 or more (30 in
    both).  Cleared with its contents, such a column has degree 244."""
    m = build_matrix(16, SYMBOLIC_T)
    # The denominator of a line with no entries yet is the int 1.
    degree = lambda den: den.degree if isinstance(den, Polynomial) else 0
    product_dens, factor_dens = _cleared_column_sizes(monkeypatch, degree)
    product = build_L(16, SYMBOLIC_T) @ build_U(16, SYMBOLIC_T)
    factors = lu_doolittle(m)
    monkeypatch.undo()
    _, cols_of_u = product_dens
    assert len(cols_of_u) == 16 and max(cols_of_u) < 60
    assert len(factor_dens) == 16 * 16 and max(factor_dens) < 60
    assert product == m
    assert factors == (build_L(16, SYMBOLIC_T), build_U(16, SYMBOLIC_T))


def random_qt_matrix(n, seed):
    """An n x n matrix over Q(t) with entries (a t + b)/(c t^k + d): a, b, c,
    d in -9..9 with a, c != 0 and k in 1..3, drawn row by row."""
    rng = random.Random(seed)
    nonzero = [x for x in range(-9, 10) if x]
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            a, b = rng.choice(nonzero), rng.randint(-9, 9)
            c, d, k = rng.choice(nonzero), rng.randint(-9, 9), rng.randint(1, 3)
            row.append((a * SYMBOLIC_T + b) / (c * SYMBOLIC_T**k + d))
        rows.append(row)
    return ExactMatrix(rows)


def _refused_points(monkeypatch):
    """A list that collects the k of each GCDHEU point the size bound refuses."""
    refused = []
    heu = polynomial_module._heu_at

    def record(a, b, k):
        result = heu(a, b, k)
        if result is None:
            refused.append(k)
        return result

    monkeypatch.setattr(polynomial_module, "_heu_at", record)
    return refused


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_qt_doolittle_settles_every_pair_at_the_first_point(monkeypatch, seed):
    # The cleared inner products share factors, with values at 2^k of up to
    # 29k bits; GCDHEU settles all 389 pairs that reach it over the three
    # seeds, each at its first point.
    m = random_qt_matrix(6, seed)
    refused = _refused_points(monkeypatch)
    factors = lu_doolittle(m)
    assert refused == []
    monkeypatch.undo()
    assert factors.L @ factors.U == m


def test_symbolic_doolittle_retries_seven_refused_points(monkeypatch):
    # Doolittle over Q(t) at s = 16 sends 661 pairs to GCDHEU.  The size
    # bound refuses the first point of 6 of them and the second point of
    # one; each settles when its margin has doubled once or twice.
    refused = _refused_points(monkeypatch)
    factors = lu_doolittle(build_matrix(16, SYMBOLIC_T))
    assert len(refused) == 7
    monkeypatch.undo()
    assert factors == (build_L(16, SYMBOLIC_T), build_U(16, SYMBOLIC_T))


def test_det_elimination_does_not_use_the_compact_kernel(monkeypatch):
    def unavailable(*args):
        raise AssertionError("compact Doolittle kernel called")

    for name in ("_Line", "_reduced", "_field_sum", "_cleared", "_divided", "_multiplied"):
        monkeypatch.setattr(matrix_mod, name, unavailable)
    assert det_elimination(build_matrix(5, Fraction(37, 11))) == det_closed(5, Fraction(37, 11))
    with pytest.raises(AssertionError):
        lu_doolittle(build_matrix(2, 1))


# -- determinant oracle -----------------------------------------------------


def _expansion_det(rows):
    """Reference: the determinant by first-row cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    minors = (tuple(r[:c] + r[c + 1:] for r in rows[1:]) for c in range(len(rows)))
    return sum((-1) ** c * x * _expansion_det(minor)
               for c, (x, minor) in enumerate(zip(rows[0], minors)) if x)


def test_det_elimination_values():
    assert det_elimination(build_matrix(1, 1)) == Fraction(1, 3)
    assert det_elimination(build_matrix(2, 1)) == Fraction(32, 525)
    assert det_elimination(build_matrix(3, 1)) == Fraction(524288, 68762925)


def test_det_elimination_triangular_is_diagonal_product():
    m = ExactMatrix([[2, 5, 1], [0, Fraction(1, 3), 9], [0, 0, Fraction(7, 2)]])
    assert det_elimination(m) == 2 * Fraction(1, 3) * Fraction(7, 2)


def test_det_elimination_equal_rows_vanish():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det_elimination(m) == 0


def test_det_elimination_singular_returns_zero():
    for m in (
        ExactMatrix([[1, 2], [2, 4]]),
        ExactMatrix([[0, 1, 2], [0, Fraction(1, 3), 4], [0, 7, Fraction(5, 9)]]),
    ):
        det = det_elimination(m)
        assert det == 0 and type(det) is Fraction


def test_det_elimination_uses_row_swaps():
    for rows, det in (
        ([[0, 1], [1, 0]], -1),
        # One swap at step 1: -(1/2 * 3 * 2 * 5).
        ([[0, 0, 2, 1], [0, 3, 1, 0], [Fraction(1, 2), 1, 0, 0], [0, 0, 0, 5]], -15),
        # Swaps at steps 1 and 2, so the sign flips twice: 1/2 * 4 * 2 * 5/2.
        ([[0, 0, 2, 1], [0, 0, 1, 3], [Fraction(1, 2), 1, 0, 0], [0, 4, 0, 5]], 10),
    ):
        m = ExactMatrix(rows)
        assert det_elimination(m) == det


def test_det_requires_square():
    with pytest.raises(DomainError):
        det_elimination(ExactMatrix([[1, 2]]))


@given(square_matrices())
def test_oracles_agree(m):
    assert _expansion_det(m.rows) == det_elimination(m)


def test_oracles_agree_symbolic():
    for s in (1, 2, 3):
        m = build_matrix(s, SYMBOLIC_T)
        assert _expansion_det(m.rows) == det_elimination(m)


@pytest.mark.parametrize("s", [7, 8])
def test_symbolic_det_elimination_equals_closed_form(s):
    assert det_elimination(build_matrix(s, SYMBOLIC_T)) == det_closed(s, SYMBOLIC_T)


@given(square_matrices(), entries)
def test_determinant_is_multilinear_in_rows(m, c):
    scaled = ExactMatrix([tuple(c * x for x in row) if i == 0 else row for i, row in enumerate(m.rows)])
    assert det_elimination(scaled) == c * det_elimination(m)


# -- det_elimination on zero-heavy input -----------------------------------
#
# No Schur complement of the family has a zero entry, so these matrices are
# where the elimination updates by an exact zero: a zero below the pivot
# (upper triangular, permutation) or beside it (lower triangular).


def _zero_heavy(kind, n, field):
    """An n x n identity, permutation, triangular or zero-row matrix over
    ``field`` (Fraction or RationalFunction), with its known determinant."""
    rng = random.Random(n)
    one = field(1)
    zero = one - one
    if kind == "identity":
        return ExactMatrix([[one if i == j else zero for j in range(n)] for i in range(n)]), one
    if kind == "permutation":
        perm = list(range(n))
        rng.shuffle(perm)
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        rows = [[one if perm[i] == j else zero for j in range(n)] for i in range(n)]
        return ExactMatrix(rows), (-1) ** inversions

    def entry():  # never zero
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if field is Fraction:
            return x
        return (x * SYMBOLIC_T + rng.randint(1, 9)) / (SYMBOLIC_T + rng.randint(1, 9))

    rows = [[entry() if j >= i else zero for j in range(n)] for i in range(n)]
    det = prod((rows[i][i] for i in range(n)), start=one)
    if kind == "lower":
        rows = [list(col) for col in zip(*rows)]
    elif kind == "zero-row":
        rows[n // 2] = [zero] * n
        det = zero
    return ExactMatrix(rows), det


@pytest.mark.parametrize("kind", ["identity", "permutation", "upper", "lower", "zero-row"])
@pytest.mark.parametrize(
    "field, n",
    [(Fraction, 20), (Fraction, 30), (RationalFunction, 20), (RationalFunction, 30)],
    ids=["q-20", "q-30", "qt-20", "qt-30"],
)
def test_det_elimination_on_zero_heavy_matrices(kind, field, n):
    m, expected = _zero_heavy(kind, n, field)
    det = det_elimination(m)
    assert type(det) is field
    assert det == expected


# -- det_elimination on reduced int pairs against the field loop -------------


def right_looking_det(m):
    """Reference: det_elimination's loop over Fractions, one Fraction operation
    per update, as it ran before numeric entries became reduced int pairs."""
    a = [[Fraction(x) for x in row] for row in m.rows]
    n = len(a)
    sign = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for r in range(k + 1, n):
            if a[r][k] == 0:
                continue
            f = a[r][k] / pivot
            for c in range(k, n):
                a[r][c] = a[r][c] - f * a[k][c]
    det = a[0][0] if sign == 1 else -a[0][0]
    for k in range(1, n):
        det = det * a[k][k]
    return det


nonzero_entries = entries.filter(bool)


@st.composite
def det_matrices(draw, max_size=6):
    """Square matrices of ints, Fractions or both, some with many zero
    entries (zero pivots that force row swaps), some with one row a
    multiple of another (singular), and some with every row and every
    column scaled by a common rational factor, so that the lines have
    contents in both numerators and denominators."""
    n = draw(st.integers(1, max_size))
    kind = draw(st.sampled_from([small_ints, entries, st.one_of(small_ints, entries)]))
    if draw(st.booleans()):
        kind = st.one_of(st.just(0), kind)
    rows = draw(st.lists(st.lists(kind, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(kind)
        rows[i] = [c * x for x in rows[j]]
    if draw(st.booleans()):
        factors = st.lists(nonzero_entries, min_size=n, max_size=n)
        by_row, by_col = draw(factors), draw(factors)
        rows = [[r * x * c for x, c in zip(row, by_col)] for r, row in zip(by_row, rows)]
    return ExactMatrix(rows)


def _assert_det_equals_reference(m):
    det = det_elimination(m)
    assert type(det) is Fraction
    assert det == right_looking_det(m)


@given(det_matrices())
def test_det_elimination_equals_field_loop(m):
    _assert_det_equals_reference(m)


@pytest.mark.parametrize("t", [1, Fraction(37, 11), Fraction(49, 3), Fraction(3, 49)])
def test_det_elimination_equals_field_loop_on_family(t):
    for s in (12, 24):
        _assert_det_equals_reference(build_matrix(s, t))


def test_numeric_det_elimination_runs_no_fraction_arithmetic(monkeypatch):
    m = build_matrix(12, Fraction(37, 11))
    expected = right_looking_det(m)
    calls = []

    def counting(name):
        op = getattr(Fraction, name)

        def wrapper(*args):
            calls.append(name)
            return op(*args)

        return wrapper

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, counting(name))
    det = det_elimination(m)
    assert calls == []
    monkeypatch.undo()
    assert det == expected


def test_numeric_det_elimination_keeps_pairs_small(monkeypatch):
    """With each trailing line's content set aside, every pair the update
    writes at s = 40, t = 37/11 stays below 200 bits (79 at most); with
    the contents left in, the pairs carry the Cauchy generators of their
    row and column and grow to about 1100 bits by step 38."""
    largest = []
    update = matrix_mod._pair_update

    def measuring(pivot_row, row, k):
        update(pivot_row, row, k)
        nums, dens, _ = row
        largest.append(max(x.bit_length() for x in nums[k + 1 :] + dens[k + 1 :]))

    monkeypatch.setattr(matrix_mod, "_pair_update", measuring)
    t = Fraction(37, 11)
    det = det_elimination(build_matrix(40, t))
    assert len(largest) == 40 * 39 // 2
    assert max(largest) < 200
    monkeypatch.undo()
    assert det == det_closed(40, t)


def test_numeric_det_elimination_takes_no_gcd_per_entry(monkeypatch):
    """The pairs are reduced only through the contents set aside, one gcd
    call per line and step: at s = 40, t = 37/11 that is 8120 calls, under
    6 n^2 = 9600, where two gcds per updated entry made 49200."""
    t = Fraction(37, 11)
    m = build_matrix(40, t)
    calls = []
    gcd = matrix_mod.gcd

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(matrix_mod, "gcd", counting)
    det = det_elimination(m)
    monkeypatch.undo()
    assert len(calls) < 6 * 40**2
    assert det == det_closed(40, t)


@pytest.mark.parametrize(
    "rows, pivots",
    [
        # 1/2 - (1/2) * 1 leaves 0/4 at (2, 2); the row's content takes it to
        # 0/2, and row 3 is swapped in.
        ([[1, 1, 1], [Fraction(1, 2), Fraction(1, 2), 3], [1, 2, 5]], [(1, 1), (0, 2), (1, 1)]),
        # The same zero, and row 3 leaves 0/3 below it: singular.
        ([[1, 1, 1], [Fraction(1, 2), Fraction(1, 2), 3], [Fraction(1, 3), Fraction(1, 3), 4]], [(1, 1), (0, 2)]),
        # A negative pivot gives the multiplier a negative denominator, and
        # the pairs keep its sign: the second pivot is -4/-2.
        ([[-1, 1, 1], [Fraction(1, 2), Fraction(1, 2), 3], [1, 2, 5]], [(-1, 1), (-4, -2), (-1, 1)]),
    ],
)
def test_unreduced_zero_pivot_is_a_zero(monkeypatch, rows, pivots):
    """An update leaves a zero as 0/d, d != 1, and a pivot that is 0/d still
    calls for a row swap, or makes the determinant the exact zero.  A
    denominator may be negative; the determinant is normalised once."""
    m = ExactMatrix(rows)
    seen = []
    set_aside = matrix_mod._set_contents_aside

    def recording(a, cols, k):
        set_aside(a, cols, k)
        seen.append((a[k][0][k], a[k][1][k]))

    monkeypatch.setattr(matrix_mod, "_set_contents_aside", recording)
    det = det_elimination(m)
    monkeypatch.undo()
    assert seen == pivots
    assert type(det) is Fraction
    assert det == right_looking_det(m)
