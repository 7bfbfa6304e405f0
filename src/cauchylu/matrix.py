"""Dense exact matrices and the Cauchy-like family 1/((2l)^2 - t^2(2i-1)^2).

Matrices are immutable, and every matrix holds entries of one exact field:
Fraction when the scalar t is numeric, RationalFunction when t is symbolic
(pass ``SYMBOLIC_T``).  The constructor decides the field once.  Ints
(bools too) become Fractions, and when any entry is a Polynomial or
RationalFunction every entry becomes a RationalFunction; any other entry,
such as a float, raises DomainError.  So every kernel below reads its field
from the type of one entry, and division never leaves the field.  Logical
indices are 1-based everywhere in this API; ``at(i, l) == rows[i-1][l-1]``
is the only place the 0-based row-major storage mapping appears.

``lu_doolittle`` is the compact Doolittle scheme: each entry of L and U is
one inner product over the factors found so far, taken as a dot product
in the ring under the field: int under Fraction, Polynomial under
RationalFunction (``_Ring``).  ``matmul`` (``@``) sums the same way.
Both run one path for both fields, on reduced pairs (num, den) of ring
elements.  Both first move the content of each row of the right factor
onto the matching column of the left one, since (L D)(D^-1 U) = L U for
any diagonal D, and only then clear each line over the lcm of its
denominators: row k of U carries the Cauchy generator u_k, whose
denominator differs from row to row, and a column of U cleared with its
contents would collect all of them.  The determinant oracle here,
``det_elimination``, is right-looking Gaussian elimination with row swaps.
It shares none of that arithmetic with ``lu_doolittle``, so each can check
the other: an error in the compact kernel cannot repeat itself in the
determinant it is checked against.

Over Fractions the elimination runs on int pairs, not reduced, whose
row and column contents are set aside as scales (see ``det_elimination``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, prod
from operator import attrgetter, floordiv, mul
from typing import Callable, NamedTuple

from .errors import (
    DimensionMismatch,
    DomainError,
    SingularEntry,
    ZeroPivot,
    require_at_least,
)
from .polynomial import Polynomial
from .ratfunc import RationalFunction, coerce_scalar


class ExactMatrix:
    __slots__ = ("_rows",)

    def __init__(self, rows):
        try:
            data = tuple(tuple(row) for row in rows)
        except TypeError:
            raise DomainError("matrix needs an iterable of rows of entries") from None
        if not data or not data[0]:
            raise DomainError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DomainError("ragged rows")
        types = {type(x) for row in data for x in row}
        if types not in ({Fraction}, {RationalFunction}):
            data = _lifted(data)
        self._rows = data

    @property
    def rows(self) -> tuple[tuple, ...]:
        return self._rows

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), len(self._rows[0])

    def at(self, i: int, l: int):
        """Entry at 1-based (row i, column l)."""
        n_rows, n_cols = self.shape
        if not (isinstance(i, int) and isinstance(l, int)):
            require_at_least(None, i=i, l=l)
        if not (1 <= i <= n_rows and 1 <= l <= n_cols):
            raise DomainError(f"index ({i}, {l}) outside {self.shape}")
        return self._rows[i - 1][l - 1]

    def matmul(self, other: ExactMatrix) -> ExactMatrix:
        """The matrix product.

        The entries are taken as reduced pairs (num, den) in the ring under
        their field (``_Ring``): ints under Fraction, Polynomials under
        RationalFunction.  Row k of other first gives its content g_k
        (``_divided``) to column k of self: (self D)(D^-1 other) is the same
        product for any diagonal D.  Then each row of self and each column
        of other is cleared over the lcm of its denominators, once, so an
        entry costs one dot product in the ring and one field element.  A
        matrix of Fractions times one of RationalFunctions is taken over
        Q(t).

        The content matters for factors of a Cauchy matrix: row k of U
        carries the generator u_k, whose denominator differs from row to
        row, and the lcm of a column of U would collect all of them.  At
        s = 40, t = 37/11 that lcm had 5076 bits against entry denominators
        of at most 1121; with the contents moved into L it has 567.  Over
        Q(t) at s = 16 it has degree 30, where it had 244.
        """
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(self.shape, other.shape)
        rows, right = self._rows, other._rows
        if type(rows[0][0]) is not type(right[0][0]):
            rows, right = _lifted(rows, RationalFunction), _lifted(right, RationalFunction)
        ring = _RINGS[type(rows[0][0])]
        contents, right = zip(*(_divided(ring, list(map(ring.parts, row))) for row in right))
        left = ([_multiplied(ring, x, g) for x, g in zip(map(ring.parts, row), contents)] for row in rows)
        rows, cols = _cleared(ring, left), _cleared(ring, zip(*right))
        return ExactMatrix(
            [ring.field(sum(map(mul, a, b)), da * db) for b, db in cols] for a, da in rows
        )

    __matmul__ = matmul

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self._rows)
        return f"ExactMatrix[{body}]"


def _lifted(rows, field=Fraction):
    """rows with every entry lifted into the one field the entries share,
    at least ``field``.

    Ints become Fractions, as ``coerce_scalar`` makes them; when any entry is
    a Polynomial or RationalFunction, every entry becomes a RationalFunction.
    Values do not change, but division stays in the field: int / int would
    give a float, and a Polynomial has no division.
    """
    for row in rows:
        for x in row:
            if isinstance(x, (Polynomial, RationalFunction)):
                field = RationalFunction
            elif not isinstance(x, (int, Fraction)):
                raise DomainError(f"matrix entry is not exact: {x!r}")
    return tuple(tuple(x if type(x) is field else field(x) for x in row) for row in rows)


class _Ring(NamedTuple):
    """The gcd ring under a field: int under Fraction, Polynomial under
    RationalFunction.  The inner-product kernels hold a field element as
    its reduced pair (num, den) of ring elements, a zero as (0, 1), and
    use only these operations of the ring.

    ``cofactors(a, b)`` is (g, a / g, b / g) for g = gcd(a, b), which is
    positive, and over Q(t) primitive with a positive lead.
    ``quotient(a, b)`` is a / b for b dividing a.  Over Q(t) it is the
    cofactor a / g, as g == b for every divisor below, so no polynomial is
    divided.  The first operand of both is a nonzero ring element; the
    second may be the int 0 or 1 of an empty gcd or lcm.
    """

    field: type
    parts: Callable
    size: Callable  # the size of a denominator that _Line's guard compares
    cofactors: Callable
    quotient: Callable


def _int_cofactors(a, b):
    g = gcd(a, b)
    return g, a // g, b // g


_RINGS = {
    Fraction: _Ring(
        Fraction, attrgetter("numerator", "denominator"), int.bit_length, _int_cofactors, floordiv
    ),
    RationalFunction: _Ring(
        RationalFunction, attrgetter("num", "den"), attrgetter("degree"), Polynomial.cofactors,
        lambda a, b: a.cofactors(b)[1],
    ),
}


def _cleared(ring, lines):
    """Each line of reduced pairs (num, den) as (nums, den) with num/den ==
    nums[k] / den, where den is the lcm of the line's denominators."""
    out = []
    for line in lines:
        den = 1
        for n, d in line:
            if n:
                den *= ring.cofactors(d, den)[1]
        out.append(([n * ring.quotient(den, d) if n else n for n, d in line], den))
    return out


def _divided(ring, line):
    """(g, line / g) for the content g = (gn, gd) of a line of reduced
    pairs: gn is the gcd of its numerators and gd the gcd of the
    denominators of its nonzero entries.  gn and gd divide every nonzero
    numerator and denominator, so the quotients are reduced pairs.

    A zero is 0/1, so counting its denominator would make gd = 1 in every
    line with a zero, such as each row of a triangular factor.  gn and gd
    are coprime: a common factor would divide both terms of a nonzero
    entry.  A line of zeros has content 1.
    """
    gn = gd = 0
    for n, d in line:
        if n:
            gn, gd = ring.cofactors(n, gn)[0], ring.cofactors(d, gd)[0]
    gn, gd = gn or 1, gd or 1
    return (gn, gd), [(ring.quotient(n, gn), ring.quotient(d, gd)) if n else (n, d) for n, d in line]


def _multiplied(ring, x, g):
    """The reduced pair x times g = (gn, gd), coprime, as a reduced pair,
    with Fraction's cross-cancellation."""
    n, d = x
    if not n:
        return x
    gn, gd = g
    _, n, gd = ring.cofactors(n, gd)
    _, d, gn = ring.cofactors(d, gn)
    return n * gn, d * gd


class LUFactors(NamedTuple):
    L: ExactMatrix
    U: ExactMatrix


def _require_square(m: ExactMatrix) -> int:
    if not isinstance(m, ExactMatrix):
        raise DomainError(f"operation needs an ExactMatrix, got {type(m).__name__}")
    n_rows, n_cols = m.shape
    if n_rows != n_cols:
        raise DomainError(f"operation needs a square matrix, got {m.shape}")
    return n_rows


def build_matrix(s: int, t) -> ExactMatrix:
    """The s-by-s matrix with entry 1/((2l)^2 - t^2 (2i-1)^2) at (i, l).

    Numeric t values that zero any entry denominator raise SingularEntry
    listing every offending (i, l) pair.

    Each entry is one ratio in the ring under t's field: with t = p/q it is
    q^2 / ((2l)^2 q^2 - (2i-1)^2 p^2), normalised once.  A denominator
    vanishes exactly when its field form does, since q != 0.
    """
    require_at_least(1, s=s)
    t = coerce_scalar(t)
    # t = p/q is split here rather than by closed_form's ``_ring``: the closed
    # form factors are checked against this matrix, so it shares no code with them.
    p, q = (t.numerator, t.denominator) if isinstance(t, Fraction) else (t.num, t.den)
    pp, qq = p * p, q * q
    rows = []
    singular = []
    for i in range(1, s + 1):
        row = []
        for l in range(1, s + 1):
            den = (2 * l) ** 2 * qq - (2 * i - 1) ** 2 * pp
            if not den:
                singular.append((i, l))
                row.append(None)
            else:
                row.append(type(t)(qq, den))
        rows.append(row)
    if singular:
        raise SingularEntry(singular, t=t)
    return ExactMatrix(rows)


# A cleared line falls back to field sums once the size of its common
# denominator exceeds this many times that of its largest entry
# denominator: a ratio of bit lengths over Q, of degrees over Q(t).  In
# this family the denominators along a line nest, so the lcm stays near
# the largest one; in matrices whose denominators do not nest it grows
# with every entry, and the sums in the ring would cost more than the
# field sums.  Over Q(t) the lines of this family nest exactly (ratio 1 at
# s = 10 and 16), and those of random matrices with entries
# (a t + b)/(c t^k + d), n <= 7, reach 2.0 in degree, 1.5 in degree plus
# coefficient bits: neither measure trips at 6, so the cheaper one, the
# degree, is used.
_LCM_BITS_PER_ENTRY_BITS = 6


class _Line:
    """A growing row of L or column of U, as used by ``lu_doolittle``.

    It is given reduced pairs (num, den) of ``ring`` (``_Ring``), already
    scaled by the contents of the rows of U (see ``lu_doolittle``), which
    ``pairs`` holds.  While it is cleared, ``nums`` holds the same entries
    over the common denominator ``den`` (the ``_cleared`` form); it is None
    once ``den`` outgrows the guard above.  A field sum reads the entries
    through ``field_entries``, which makes each pair a field element once,
    in ``entries``.
    """

    __slots__ = ("ring", "entries", "pairs", "nums", "den", "size")

    def __init__(self, ring: _Ring):
        self.ring = ring
        self.entries, self.pairs, self.nums = [], [], []
        self.den = 1
        self.size = 1  # the size of the largest entry denominator

    def append(self, x) -> None:
        self.pairs.append(x)
        if self.nums is None:
            return
        n, d = x
        _, scale, mult = self.ring.cofactors(d, self.den)
        den = self.den * scale
        self.size = max(self.size, self.ring.size(d))
        if self.ring.size(den) > _LCM_BITS_PER_ENTRY_BITS * self.size:
            self.nums = None
            return
        if scale != 1:
            self.nums = [v * scale for v in self.nums]
        self.den = den
        self.nums.append(n * mult)

    def field_entries(self) -> list:
        field = self.ring.field
        self.entries += [field(n, d) for n, d in self.pairs[len(self.entries) :]]
        return self.entries


def _reduced(x, row: _Line, col: _Line, pivot):
    """(x - sum_q row[q] * col[q]) / pivot.

    When both lines are cleared the sum is one dot product in the ring, and
    the result is one field element; otherwise the sum is taken in the
    field.
    """
    if row.nums is None or col.nums is None:
        dot = _field_sum(row.field_entries(), col.field_entries())
        return (x - dot if dot else x) / pivot
    ring = row.ring
    (xn, xd), (pn, pd) = ring.parts(x), ring.parts(pivot)
    den = row.den * col.den
    return ring.field((xn * den - sum(map(mul, row.nums, col.nums)) * xd) * pd, den * xd * pn)


def _field_sum(row, col):
    """sum_q row[q] * col[q], one field operation at a time.

    A term with an exact zero factor is skipped, and the sum starts from the
    first term that is not, since a RationalFunction product or sum with
    zero still runs its gcds.  0 is returned when every term is skipped.
    """
    terms = (a * b for a, b in zip(row, col) if a and b)
    total = next(terms, 0)
    for term in terms:
        total = total + term
    return total


def lu_doolittle(m: ExactMatrix) -> LUFactors:
    """LU factorization by the compact Doolittle scheme: unit-diagonal L, no pivoting.

    Step k computes row k of U and then column k of L, each entry as one
    inner product over the rows of L and columns of U found so far:

        U[k][c] = M[k][c] - sum_{q<k} L[k][q] U[q][c]
        L[r][k] = (M[r][k] - sum_{q<k} L[r][q] U[q][k]) / U[k][k]

    So each entry is normalised once, where elimination updates it O(s)
    times.  Each row of L and column of U is kept as reduced pairs of the
    ring under the field (``_Ring``), cleared over one common denominator
    (``_Line``), so an inner product is one dot product in the ring and one
    field element; ``_LCM_BITS_PER_ENTRY_BITS`` sends a line back to field
    sums when that denominator grows too large.  Row k of U is complete
    before column k of L is computed, so its content g_k (``_divided``) is
    known then: the columns of U take U[k][c] / g_k and the rows of L take
    L[r][k] * g_k.  Each term L[r][q] U[q][c] of an inner product is
    unchanged, and so is every returned entry, but the lines no longer
    collect each other's contents.  For the Cauchy matrix of this family
    row k of U carries the generator u_k, whose denominator differs from row
    to row; at s = 40, t = 37/11 a column of U cleared with its contents
    reached a 4876-bit lcm, and without them 551 bits.  Over Q(t) at s = 16
    the lcm of a column of U has degree 30, where it had 244.

    A vanishing pivot U[k][k] (equivalently, a vanishing k-th leading
    principal minor) raises ZeroPivot(k); there is deliberately no row
    exchange, so the factor ordering is the one the closed forms predict.
    """
    n = _require_square(m)
    a = m.rows
    ring = _RINGS[type(a[0][0])]
    zero, one = ring.field(0), ring.field(1)
    rows_of_l = [_Line(ring) for _ in range(n)]
    cols_of_u = [_Line(ring) for _ in range(n)]
    low = [[one if i == j else zero for j in range(n)] for i in range(n)]
    upper = [[zero] * n for _ in range(n)]
    for k in range(n):
        pivot = _reduced(a[k][k], rows_of_l[k], cols_of_u[k], one)
        if not pivot:
            raise ZeroPivot(k + 1)
        row = upper[k]
        row[k] = pivot
        for c in range(k + 1, n):
            row[c] = _reduced(a[k][c], rows_of_l[k], cols_of_u[c], one)
        g, line = _divided(ring, list(map(ring.parts, row[k:])))
        for c in range(k + 1, n):
            cols_of_u[c].append(line[c - k])
        for r in range(k + 1, n):
            low[r][k] = f = _reduced(a[r][k], rows_of_l[r], cols_of_u[k], pivot)
            rows_of_l[r].append(_multiplied(ring, ring.parts(f), g))
    return LUFactors(ExactMatrix(low), ExactMatrix(upper))


def det_elimination(m: ExactMatrix):
    """Determinant by right-looking Gaussian elimination with row swaps and sign tracking.

    Independent of lu_doolittle by construction: it updates the trailing rows
    at each step and swaps rows where the compact scheme would stop, so the
    two can serve as mutual oracles.  A singular matrix returns the field's
    exact zero rather than raising.

    One loop finds the pivots, swaps rows, tracks the sign and multiplies
    the diagonal; the field picks only the row update.  A RationalFunction
    row is its entries and None, updated in the field (``_field_update``).

    A Fraction row is the numerators and the denominators of its entries,
    int pairs not reduced, and the row's scale R_r; beside the rows are the
    column scales C_c.  The trailing block is kept as

        A[r][c] = R_r * B[r][c] * C_c,

    with R_r, C_c positive int pairs and B the pairs, whose denominators
    are nonzero, of either sign.  The update commutes with the scaling,

        A[r][c] - A[r][k] A[k][c] / A[k][k]
            = R_r C_c (B[r][c] - B[r][k] B[k][c] / B[k][k]),

    so ``_pair_update`` runs on B alone.  Before each step
    ``_set_contents_aside`` moves the content of every trailing row of B
    into its R_r, then that of every trailing column into its C_c.  Every
    Schur complement of a Cauchy matrix is Cauchy-like,
    S[r][c] = u_r v_c / (x_c - y_r) (Gohberg, Kailath, Olshevsky, Math. Comp.
    64 (1995) 1557-1576), so without this each pair carries its row's u_r
    and its column's v_c: at s = 40, t = 37/11 they reached 1100 bits by
    step 38, and with the contents aside no pair passes 79 bits.  That is
    the only reducing the pairs get, one gcd per line and step.

    Row swaps carry R_r with the row.  No scale is zero, so the zero tests,
    pivots and swaps are those of a loop over Fractions.  Every row below
    the pivot is updated, one with a zero in the pivot column too: no Schur
    complement of this family has a zero entry, so a test for one would
    never fire.  The determinant is sign * prod_k R_k C_k B[k][k],
    normalised once.
    """
    n = _require_square(m)
    field = type(m.rows[0][0])
    if field is Fraction:
        a = [([x.numerator for x in row], [x.denominator for x in row], [1, 1]) for row in m.rows]
        cols = [[1, 1] for _ in range(n)]
        update = _pair_update
    else:
        a = [(list(row), None) for row in m.rows]
        cols = None
        update = _field_update
    sign = 1
    for k in range(n):
        if cols:
            _set_contents_aside(a, cols, k)
        if not a[k][0][k]:
            for r in range(k + 1, n):
                if a[r][0][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return field(0)
        for r in range(k + 1, n):
            update(a[k], a[r], k)
    det = a[0][0][0] if sign == 1 else -a[0][0][0]
    for k in range(1, n):
        det = det * a[k][0][k]
    if cols:
        num = det * prod(rs[0] * cs[0] for (_, _, rs), cs in zip(a, cols))
        den = prod(dens[k] * rs[1] * cs[1] for k, ((_, dens, rs), cs) in enumerate(zip(a, cols)))
        return Fraction(num, den)
    return det


def _set_contents_aside(a, cols, k):
    """Move the content of each trailing row a[r][k:], r >= k, into the
    row's scale, then that of each trailing column into cols[c].

    The content of a line of pairs n/d is gcd(n...) / gcd(d...), positive,
    and every line is divided by it, a content of 1 too.  The pairs are not
    reduced, so the two gcds may share a factor, and a pair may keep one
    its line does not share.  A zero entry is 0/d, and its d counts like
    any other; an all-zero line has numerator content 1.  Each scale takes
    its content through ``_cross``: in a generic matrix a row's
    denominators share the last pivot's minor, which the next step's
    numerators give back, and the cross-cancellation removes it.
    """
    block = a[k:]
    tails_n, tails_d = [], []
    for nums, dens, scale in block:
        tn, td = nums[k:], dens[k:]
        gn, gd = gcd(*tn) or 1, gcd(*td)
        scale[:] = _cross(*scale, gn, gd)
        tails_n.append(list(map(floordiv, tn, repeat(gn))))
        tails_d.append(list(map(floordiv, td, repeat(gd))))
    col_n = [gcd(*col) or 1 for col in zip(*tails_n)]
    col_d = [gcd(*col) for col in zip(*tails_d)]
    for (nums, dens, _), tn, td in zip(block, tails_n, tails_d):
        nums[k:] = map(floordiv, tn, col_n)
        dens[k:] = map(floordiv, td, col_d)
    for scale, gn, gd in zip(cols[k:], col_n, col_d):
        scale[:] = _cross(*scale, gn, gd)


def _cross(n, d, gn, gd):
    """The int pair (n/d) * (gn/gd), d and gd nonzero, with Fraction's
    cross-cancellation: n and gd lose their gcd, and so do gn and d.  The
    result is reduced only as far as the factors were."""
    g1, g2 = gcd(n, gd), gcd(gn, d)
    return n // g1 * (gn // g2), d // g2 * (gd // g1)


def _pair_update(pivot_row, row, k):
    """row[c] -= f * pivot_row[c] for c > k, f = row[k] / pivot_row[k], on
    int pairs (numerators, nonzero denominators of either sign), not reduced.

    The multiplier is one ``_cross``.  Each update is n/d - f * b over the
    product of the denominators, with no gcd, so a zero comes out as 0/d.
    Every c is updated, where the product is 0 too.
    """
    (kn, kd, _), (rn, rd, _) = pivot_row, row
    fn, fd = _cross(rn[k], rd[k], kd[k], kn[k])
    for c in range(k + 1, len(kn)):
        qd, xd = fd * kd[c], rd[c]
        rn[c], rd[c] = rn[c] * qd - fn * kn[c] * xd, xd * qd


def _field_update(pivot_row, row, k):
    """row[c] -= f * pivot_row[c] for every c > k, f = row[k] / pivot_row[k], in the field."""
    pivots, values = pivot_row[0], row[0]
    f = values[k] / pivots[k]
    for c in range(k + 1, len(values)):
        values[c] = values[c] - f * pivots[c]
