"""Dense exact matrices and the Cauchy-like family 1/((2l)^2 - t^2(2i-1)^2).

Matrices are immutable, with entries drawn from one exact field: Fraction
when the scalar t is numeric, RationalFunction when t is symbolic (pass
``SYMBOLIC_T``); plain ints coerce into either.  Any other entry, such as a
float, raises DomainError.  Logical indices are 1-based everywhere in this
API; ``at(i, l) == rows[i-1][l-1]`` and ``dot_products`` are the only
places the 0-based row-major storage mapping appears.

``lu_doolittle`` is the compact Doolittle scheme: each entry of L and U is
one inner product over the factors found so far, and over int/Fraction
entries that inner product is an integer dot product.  Two independent
determinant oracles live here -- recursive cofactor expansion and
right-looking Gaussian elimination with row swaps.  They share none of that
arithmetic with ``lu_doolittle``, so each can check the others: an error in
the compact kernel cannot repeat itself in the determinant it is checked
against.  ``lu_doolittle`` and ``det_elimination`` divide in the entries'
field (``_field_rows``), so int entries give Fractions, never floats.

Over int/Fraction entries ``det_elimination`` keeps each entry as a reduced
pair of ints and updates it by Fraction's own steps (cross-cancelled
product, Henrici subtraction), so every pair has the value, and the pivots
and swaps are the ones, of the same loop run on Fractions.  It does not
clear a row to ints over one lcm, as ``lu_doolittle`` does: a Schur
complement row of this family collects the factors of the whole trailing
block in that lcm, and clearing ran 3 to 9 times slower than the pairs at
s = 40 (t = 37/11, 49/3, 3/49) and 12 times slower at s = 80.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    DomainError,
    SingularEntry,
    SizeCapExceeded,
    ZeroPivot,
    require_at_least,
)
from .polynomial import Polynomial
from .ratfunc import RationalFunction, coerce_scalar

_ENTRY_TYPES = (int, Fraction, Polynomial, RationalFunction)

COFACTOR_CAP_DEFAULT = 7


class ExactMatrix:
    __slots__ = ("_rows",)

    def __init__(self, rows):
        data = tuple(tuple(row) for row in rows)
        if not data or not data[0]:
            raise DomainError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DomainError("ragged rows")
        for row in data:
            for x in row:
                if not isinstance(x, _ENTRY_TYPES):
                    raise DomainError(f"matrix entry is not exact: {x!r}")
        self._rows = data

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> tuple[tuple, ...]:
        return self._rows

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), len(self._rows[0])

    def at(self, i: int, l: int):
        """Entry at 1-based (row i, column l)."""
        if not (1 <= i <= self.n_rows and 1 <= l <= self.n_cols):
            raise DomainError(f"index ({i}, {l}) outside {self.shape}")
        return self._rows[i - 1][l - 1]

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(zip(*self._rows))

    def matmul(self, other: ExactMatrix) -> ExactMatrix:
        """The matrix product, entry by entry from ``dot_products``.

        When every entry is an int or Fraction, each entry is an integer dot
        product and one Fraction; an all-int row times an all-int column
        stays an int, as the term-by-term sum would.
        """
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        entry = self.dot_products(other)
        n = self.n_cols
        return ExactMatrix(
            tuple(
                tuple(entry(i, l, n) for l in range(1, other.n_cols + 1))
                for i in range(1, self.n_rows + 1)
            )
        )

    __matmul__ = matmul

    def dot_products(self, other: ExactMatrix):
        """The function (i, l, m) -> sum_{k=1..m} self[i,k] * other[k,l].

        With m = n_cols this is entry (i, l) of the product; a smaller m
        gives that entry of the product of leading blocks.  When every entry
        of both matrices is an int or Fraction, each row of self and each
        column of other is cleared to ints over the lcm of its denominators,
        once, so an entry costs an integer dot product and one Fraction
        (none when both lines are all ints).  Other entries are summed in the
        field term by term.
        """
        if self.n_cols != other.n_rows:
            raise DimensionMismatch(self.shape, other.shape)
        rows, cols = self._rows, tuple(zip(*other._rows))
        cleared_rows = _cleared(rows)
        cleared_cols = _cleared(cols) if cleared_rows is not None else None
        if cleared_cols is None:
            def entry(i, l, m):
                return sum(a * b for a, b in zip(rows[i - 1][:m], cols[l - 1][:m]))
            return entry

        def entry(i, l, m):
            a, da = cleared_rows[i - 1]
            b, db = cleared_cols[l - 1]
            dot = sum(map(mul, a[:m], b[:m]))
            return dot if da is None and db is None else Fraction(dot, (da or 1) * (db or 1))

        return entry

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return all(
            a == b for ra, rb in zip(self._rows, other._rows) for a, b in zip(ra, rb)
        )

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self._rows)
        return f"ExactMatrix[{body}]"


def _cleared(lines):
    """Each line as (ints, den) with line[k] == ints[k] / den, where den is
    the lcm of the line's Fraction denominators, or None for a line of ints.
    None in place of the list when some entry is neither int nor Fraction.
    """
    out = []
    for line in lines:
        den = None
        for x in line:
            if isinstance(x, Fraction):
                den = lcm(den or 1, x.denominator)
            elif not isinstance(x, int):
                return None
        if den is None:
            out.append((line, None))
        else:
            out.append(([x.numerator * (den // x.denominator) if isinstance(x, Fraction)
                         else x * den for x in line], den))
    return out


class LUFactors(NamedTuple):
    L: ExactMatrix
    U: ExactMatrix


def _require_square(m: ExactMatrix) -> int:
    if m.n_rows != m.n_cols:
        raise DomainError(f"operation needs a square matrix, got {m.shape}")
    return m.n_rows


def build_matrix(s: int, t) -> ExactMatrix:
    """The s-by-s matrix with entry 1/((2l)^2 - t^2 (2i-1)^2) at (i, l).

    Numeric t values that zero any entry denominator raise SingularEntry
    listing every offending (i, l) pair.
    """
    require_at_least(1, s=s)
    t = coerce_scalar(t)
    tt = t * t
    rows = []
    singular = []
    for i in range(1, s + 1):
        row = []
        for l in range(1, s + 1):
            den = (2 * l) ** 2 - tt * (2 * i - 1) ** 2
            if den == 0:
                singular.append((i, l))
                row.append(None)
            else:
                row.append(1 / den)
        rows.append(row)
    if singular:
        raise SingularEntry(singular, t=t)
    return ExactMatrix(rows)


def _field_rows(m: ExactMatrix) -> list[list]:
    """The rows of m, each entry lifted into the one field the entries share.

    Ints become Fractions, as ``coerce_scalar`` makes them; when any entry is
    a Polynomial or RationalFunction, every entry becomes a RationalFunction.
    Values do not change, but division stays in the field: int / int would
    give a float, and a Polynomial has no division.
    """
    rows = m.rows
    symbolic = any(isinstance(x, (Polynomial, RationalFunction)) for row in rows for x in row)
    field = RationalFunction if symbolic else Fraction
    return [[x if type(x) is field else field(x) for x in row] for row in rows]


# A cleared line falls back to field sums once the bit length of its common
# denominator exceeds this many times that of its longest entry denominator.
# In this family the denominators along a line nest, so the lcm stays near
# the longest one; in matrices whose denominators do not nest it grows with
# every entry, and the integer sums would cost more than the field sums.
_LCM_BITS_PER_ENTRY_BITS = 6


class _Line:
    """A growing row of L or column of U, as used by ``lu_doolittle``.

    ``entries`` holds the field elements.  While the line is cleared,
    ``ints`` holds the same entries as ints over the common denominator
    ``den`` (the ``_cleared`` form); it is None for a line of
    RationalFunctions, or once ``den`` outgrows the guard above.
    """

    __slots__ = ("entries", "ints", "den", "bits")

    def __init__(self, cleared: bool):
        self.entries = []
        self.ints = [] if cleared else None
        self.den = 1
        self.bits = 1  # bit length of the longest entry denominator

    def append(self, x) -> None:
        self.entries.append(x)
        if self.ints is None:
            return
        d = x.denominator
        den = lcm(self.den, d)
        self.bits = max(self.bits, d.bit_length())
        if den.bit_length() > _LCM_BITS_PER_ENTRY_BITS * self.bits:
            self.ints = None
            return
        if den != self.den:
            scale = den // self.den
            self.ints = [v * scale for v in self.ints]
            self.den = den
        self.ints.append(x.numerator * (den // d))


def _reduced(x, row: _Line, col: _Line, pivot=None):
    """(x - sum_q row[q] * col[q]) / pivot, where pivot None stands for 1.

    When both lines are cleared the sum is one integer dot product, and the
    result is one Fraction; otherwise the sum is taken in the field.
    """
    if row.ints is None or col.ints is None:
        x = _field_sum(x, row.entries, col.entries)
        return x if pivot is None else x / pivot
    den = row.den * col.den
    num = x.numerator * den - sum(map(mul, row.ints, col.ints)) * x.denominator
    den *= x.denominator
    if pivot is not None:
        num *= pivot.denominator
        den *= pivot.numerator
    return Fraction(num, den)


def _field_sum(x, row, col):
    """x - sum_q row[q] * col[q], one field operation at a time."""
    for a, b in zip(row, col):
        if a:
            x = x - a * b
    return x


def lu_doolittle(m: ExactMatrix) -> LUFactors:
    """LU factorization by the compact Doolittle scheme: unit-diagonal L, no pivoting.

    Step k computes row k of U and then column k of L, each entry as one
    inner product over the rows of L and columns of U found so far:

        U[k][c] = M[k][c] - sum_{q<k} L[k][q] U[q][c]
        L[r][k] = (M[r][k] - sum_{q<k} L[r][q] U[q][k]) / U[k][k]

    So each entry is normalised once, where elimination updates it O(s)
    times.  Over int/Fraction entries each row of L and column of U is kept
    as ints over one common denominator, so an inner product is an integer
    dot product and one Fraction; ``_LCM_BITS_PER_ENTRY_BITS`` sends a line
    back to field sums when that denominator grows too large.  Entries are
    computed in their field (``_field_rows``), so ints give Fractions, never
    floats.

    A vanishing pivot U[k][k] (equivalently, a vanishing k-th leading
    principal minor) raises ZeroPivot(k); there is deliberately no row
    exchange, so the factor ordering is the one the closed forms predict.
    """
    n = _require_square(m)
    a = _field_rows(m)
    zero = a[0][0] * 0
    one = zero + 1
    cleared = isinstance(zero, Fraction)
    rows_of_l = [_Line(cleared) for _ in range(n)]
    cols_of_u = [_Line(cleared) for _ in range(n)]
    low = [[one if i == j else zero for j in range(n)] for i in range(n)]
    upper = [[zero] * n for _ in range(n)]
    for k in range(n):
        pivot = _reduced(a[k][k], rows_of_l[k], cols_of_u[k])
        if not pivot:
            raise ZeroPivot(k + 1)
        upper[k][k] = pivot
        for c in range(k + 1, n):
            upper[k][c] = u = _reduced(a[k][c], rows_of_l[k], cols_of_u[c])
            cols_of_u[c].append(u)
        for r in range(k + 1, n):
            low[r][k] = f = _reduced(a[r][k], rows_of_l[r], cols_of_u[k], pivot)
            rows_of_l[r].append(f)
    return LUFactors(ExactMatrix(low), ExactMatrix(upper))


def det_cofactor(m: ExactMatrix, cap: int = COFACTOR_CAP_DEFAULT):
    """Determinant by recursive first-row cofactor expansion.

    Factorial cost, so refuses sizes above ``cap``; this is the slow,
    obviously-correct oracle.
    """
    n = _require_square(m)
    if n > cap:
        raise SizeCapExceeded(n, cap)
    return _cofactor(m.rows)


def _cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] * 0
    sign = 1
    for col in range(n):
        entry = rows[0][col]
        if entry != 0:
            minor = tuple(r[:col] + r[col + 1 :] for r in rows[1:])
            total = total + sign * entry * _cofactor(minor)
        sign = -sign
    return total


def det_elimination(m: ExactMatrix):
    """Determinant by right-looking Gaussian elimination with row swaps and sign tracking.

    Independent of lu_doolittle by construction: it updates the trailing rows
    at each step and swaps rows where the compact scheme would stop, so the
    two can serve as mutual oracles.  A singular matrix returns the field's
    exact zero rather than raising.

    Over int/Fraction entries (``_det_pairs``) each entry is a reduced
    (numerator, denominator) pair of ints, and each update takes the steps
    of Fraction's own arithmetic on them, so every pair equals the Fraction
    the field loop below would hold and the pivots and swaps are the same.
    Rows are not cleared to ints over one lcm: a Schur complement row of
    this family collects the factors (x_l - y_m) of the whole trailing block
    in that lcm.  RationalFunction entries take the field loop.
    """
    n = _require_square(m)
    a = _field_rows(m)
    if isinstance(a[0][0], Fraction):
        return _det_pairs(a)
    zero = a[0][0] * 0
    sign = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return zero
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


def _det_pairs(a: list[list[Fraction]]) -> Fraction:
    """det_elimination's loop on rows of Fractions, kept as reduced int pairs.

    Row r is two int lists, numerators and positive denominators in lowest
    terms.  The multiplier f = a[r][k] / pivot is reduced once per row; each
    update a[r][c] - f * a[k][c] cross-cancels the product and then
    subtracts by Henrici's scheme, which keeps the gcds on the small common
    parts (Henrici, JACM 3 (1956) 6-9).
    """
    nums = [[x.numerator for x in row] for row in a]
    dens = [[x.denominator for x in row] for row in a]
    n = len(a)
    sign = 1
    for k in range(n):
        if not nums[k][k]:
            for r in range(k + 1, n):
                if nums[r][k]:
                    nums[k], nums[r] = nums[r], nums[k]
                    dens[k], dens[r] = dens[r], dens[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        kn, kd = nums[k], dens[k]
        pn, pd = kn[k], kd[k]
        for r in range(k + 1, n):
            rn, rd = nums[r], dens[r]
            fn, fd = rn[k], rd[k]
            if not fn:
                continue
            g1, g2 = gcd(fn, pn), gcd(pd, fd)
            fn, fd = fn // g1 * (pd // g2), fd // g2 * (pn // g1)
            if fd < 0:
                fn, fd = -fn, -fd
            for c in range(k + 1, n):
                bn = kn[c]
                if not bn:
                    continue
                bd = kd[c]
                g1, g2 = gcd(fn, bd), gcd(bn, fd)
                qn, qd = fn // g1 * (bn // g2), fd // g2 * (bd // g1)
                xn, xd = rn[c], rd[c]
                g = gcd(xd, qd)
                if g == 1:
                    rn[c], rd[c] = xn * qd - qn * xd, xd * qd
                else:
                    s = xd // g
                    t = xn * (qd // g) - qn * s
                    g2 = gcd(t, g)
                    rn[c], rd[c] = t // g2, s * (qd // g2)
    num, den = sign, 1
    for k in range(n):
        num *= nums[k][k]
        den *= dens[k][k]
    return Fraction(num, den)
