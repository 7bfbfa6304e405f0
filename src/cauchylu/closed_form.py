"""Closed forms: the guessed LU factor entries, their Gamma-product
identities, the determinant as a diagonal product, and the six-way t=1
product chain.

Every function transcribes one displayed formula.  The paper's closed forms
are ratios of two products over k = 1..j,

    row product     P(a, j) = prod_{k=1..j} ((2a-1)^2 t^2 - (2k)^2)
    column product  Q(l, j) = prod_{k=1..j} ((2k-1)^2 t^2 - (2l)^2)

and each is written once, factor by factor, in ``_row_factors`` and
``_column_factors``.  The factor entries multiply them, and the two Gamma
identities state their rising-factorial forms, so the Gamma suite checks the
very factors the entries use.  Both products are computed in the ring
beneath t's field: with t = p/q (ints, or Polynomials), every factor is
multiplied by q^2, the powers of q cancel, and an entry is one ratio of ring
products, normalised once.  Each docstring shows the displayed formula and
its cleared ring form side by side.

The products are kept as running prefixes in a ``_Products`` table and read
through its one accessor, which also raises ``SingularEntry`` when a
denominator product vanishes.  One build_L or build_U call shares one table
across all its entries, so each product grows one factor at a time instead
of being multiplied out again for every entry; the table is dropped when
the call returns.  An entry called on its own makes a table of its own.

Both Gamma identities are equalities of polynomials, so both sides are built
in Q[t] and compared there, with no field operation.  ``gamma_sides_left``
and ``gamma_sides_right`` give both sides for j = 1, 2, ... as running
prefixes -- the product grows one factor per j, and so do the two rising
factorials of the other side -- so a pair costs O(1) polynomial products
where multiplying it out afresh costs O(j); ``gamma_identity_left`` and
``gamma_identity_right`` return one pair.  The determinant and the chain
stay in exact field arithmetic; the compact chain forms E4-E6
multiply their denominators up as ints and normalise once (in E1-E3 the
stepwise reduction is cheaper than one gcd of the huge factorial products).
The chain expressions are each coded independently, reading their own
factors, so a transcription slip in any one of them shows up as
disagreement with the other five rather than passing silently.
"""

from __future__ import annotations

import math
from collections import deque
from contextvars import ContextVar
from fractions import Fraction
from itertools import accumulate, count, islice
from operator import mul
from typing import NamedTuple

from .combinatorics import binomial, double_factorial, factorial, rising_factorials
from .errors import SingularEntry, require_at_least
from .matrix import ExactMatrix
from .polynomial import Polynomial, T
from .ratfunc import coerce_scalar


def _row_factors(a: int, ks: range, pp, qq):
    """The factors (2a-1)^2 pp - (2k)^2 qq, k in ks, of the row product
    P(a, .), each cleared by q^2, with pp = p^2 and qq = q^2."""
    head = (2 * a - 1) ** 2 * pp
    return (head - (2 * k) ** 2 * qq for k in ks)


def _column_factors(l: int, ks: range, pp, qq):
    """The factors (2k-1)^2 pp - (2l)^2 qq, k in ks, of the column product
    Q(l, .), each cleared by q^2, with pp = p^2 and qq = q^2."""
    tail = (2 * l) ** 2 * qq
    return ((2 * k - 1) ** 2 * pp - tail for k in ks)


class _Products:
    """The row and column products of one t, kept as running prefixes.

    ``_product(_row_factors, a, j)`` is P(a, j) and
    ``_product(_column_factors, l, j)`` is Q(l, j), cleared by q^(2j).  One
    dict keyed by (factors, index) holds each product's prefix list, index 0
    the empty product 1; a list grows one factor at a time, and only when an
    entry asks for a longer product.  Given an entry's position, a product
    that vanishes raises ``SingularEntry`` there, naming its first vanishing
    factor: the first k with a zero prefix (the ring has no zero divisors).
    ``key`` is the object the table was made for: an entry uses a build's
    table only when it is called with that very object.
    """

    __slots__ = ("key", "t", "pp", "qq", "_lists")

    def __init__(self, key, t, p, q):
        self.key, self.t = key, t
        self.pp, self.qq = p * p, q * q
        self._lists: dict[tuple, list] = {}

    def _product(self, factors, index: int, j: int, where=None, note: str = ""):
        prefixes = self._lists.get((factors, index))
        if prefixes is None:
            prefixes = self._lists[factors, index] = [1]
        if len(prefixes) <= j:
            product = prefixes[-1]
            for factor in factors(index, range(len(prefixes), j + 1), self.pp, self.qq):
                product = product * factor
                prefixes.append(product)
        if where is None or prefixes[j]:
            return prefixes[j]
        k = next(k for k in range(1, j + 1) if not prefixes[k])
        raise SingularEntry([where], t=self.t, note=f"denominator factor k={k}{note}")


def _ring(t) -> _Products:
    """A new product table for t: t coerced to its field and split as t = p/q
    in the ring under it (ints for a Fraction, Polynomials for a
    RationalFunction)."""
    field = coerce_scalar(t)
    if isinstance(field, Fraction):
        return _Products(t, field, field.numerator, field.denominator)
    return _Products(t, field, field.num, field.den)


# The table of the build_L/build_U call running in this context, if any.  It
# lives exactly as long as that call; a ContextVar keeps threads apart.
_BUILD_TABLE: ContextVar[_Products | None] = ContextVar("_BUILD_TABLE", default=None)


def _products(t) -> _Products:
    """The running build's table when it was made for this very t, else a
    throwaway one."""
    table = _BUILD_TABLE.get()
    return table if table is not None and table.key is t else _ring(t)


def entry_L(i: int, j: int, t):
    """Entry (i, j) of the unit lower-triangular factor.

    L[i,j] = [prod_{k=1..j} ((2j-1)^2 t^2 - (2k)^2)
              / prod_{k=1..j} ((2i-1)^2 t^2 - (2k)^2)]
             * (i+j-2)! / ((i-j)! (2j-2)!)
           = P(j, j) / P(i, j) * (i+j-2)! / ((i-j)! (2j-2)!)

    with 1/n! = 0 for n < 0, since 1/Gamma vanishes at the nonpositive
    integers: 1/(i-j)! = 0 for j > i, hence zero above the diagonal.  On the
    diagonal the two products cancel identically and the value is 1.

    Computed in the ring of t = p/q: multiplying every factor by q^2 turns
    it into (2a-1)^2 p^2 - (2b)^2 q^2, and the j powers of q^2 above and
    below cancel, so

    L[i,j] = (i+j-2)! prod_{k=1..j} ((2j-1)^2 p^2 - (2k)^2 q^2)
             / [(i-j)! (2j-2)! prod_{k=1..j} ((2i-1)^2 p^2 - (2k)^2 q^2)]

    with a single division in the field at the end.  A factor vanishes
    exactly when its field form does, since q != 0.
    """
    if not (isinstance(i, int) and isinstance(j, int) and i >= 1 and j >= 1):
        require_at_least(1, i=i, j=j)
    table = _products(t)
    t = table.t
    if i < j:  # 1/(i-j)! = 0
        return type(t)(0)
    if i == j:
        return type(t)(1)
    den = table._product(_row_factors, i, j, (i, j))
    num = factorial(i + j - 2) * table._product(_row_factors, j, j)
    return type(t)(num, factorial(i - j) * factorial(2 * j - 2) * den)


def entry_U(j: int, l: int, t):
    """Entry (j, l) of the upper-triangular factor.

    U[j,l] = t^(2j-2) (-1)^j 16^(j-1) (2j-2)!
             / [prod_{k=1..j} ((2k-1)^2 t^2 - (2l)^2)
                * prod_{k=1..j-1} ((2j-1)^2 t^2 - (2k)^2)]
             * (j+l-1)! / (l (l-j)!)
           = t^(2j-2) (-1)^j 16^(j-1) (2j-2)! (j+l-1)!
             / [Q(l, j) P(j, j-1) l (l-j)!]

    with 1/n! = 0 for n < 0, as for entry_L: 1/(l-j)! = 0 for l < j,
    hence zero below the diagonal.

    Computed in the ring of t = p/q, as entry_L is: the 2j-1 denominator
    factors each take a q^2, and with t^(2j-2) = p^(2j-2) / q^(2j-2)

    U[j,l] = (-1)^j 16^(j-1) (2j-2)! (j+l-1)! p^(2j-2) q^(2j)
             / [l (l-j)! prod_{k=1..j} ((2k-1)^2 p^2 - (2l)^2 q^2)
                * prod_{k=1..j-1} ((2j-1)^2 p^2 - (2k)^2 q^2)]
    """
    if not (isinstance(j, int) and isinstance(l, int) and j >= 1 and l >= 1):
        require_at_least(1, j=j, l=l)
    table = _products(t)
    t = table.t
    if l < j:  # 1/(l-j)! = 0
        return type(t)(0)
    first = table._product(_column_factors, l, j, (j, l), ", first product")
    second = table._product(_row_factors, j, j - 1, (j, l), ", second product")
    scale = (-1) ** j * 16 ** (j - 1) * factorial(2 * j - 2) * factorial(j + l - 1)
    num = table.pp ** (j - 1) * table.qq ** j * scale
    return type(t)(num, l * factorial(l - j) * first * second)


def _build(s: int, t, entry) -> ExactMatrix:
    """The s-by-s matrix of entry(a, b, t), with one product table shared by
    every entry for the length of the call."""
    require_at_least(1, s=s)
    token = _BUILD_TABLE.set(_ring(t))
    try:
        return ExactMatrix(
            [[entry(a, b, t) for b in range(1, s + 1)] for a in range(1, s + 1)]
        )
    finally:
        _BUILD_TABLE.reset(token)


def build_L(s: int, t) -> ExactMatrix:
    """The s-by-s lower factor, assembled entrywise from entry_L."""
    return _build(s, t, entry_L)


def build_U(s: int, t) -> ExactMatrix:
    """The s-by-s upper factor, assembled entrywise from entry_U."""
    return _build(s, t, entry_U)


def det_closed(s: int, t):
    """Determinant as the diagonal product of the upper factor.

    The empty product (s = 0) is the field's 1.  Symbolic t multiplies
    rational functions with no intermediate evaluation; numeric t stays in
    Fraction arithmetic throughout.
    """
    require_at_least(0, s=s)
    t = coerce_scalar(t)
    result = type(t)(1)
    for j in range(1, s + 1):
        result = result * entry_U(j, j, t)
    return result


# -- Gamma-product identities -------------------------------------------------


def gamma_sides_left(i: int, j_max: int):
    """Both sides of the row-product identity for j = 1..j_max, in turn, as
    pairs (lhs, rhs) of polynomials in Q[t].

    lhs = prod_{k=1..j} ((2i-1)^2 t^2 - (2k)^2) = P(i, j)
    rhs = (-1)^j 4^j (1 - t(i - 1/2))_j (1 + t(i - 1/2))_j

    where (x)_j is the rising factorial -- the Gamma-ratio form of the same
    product.  Both sides are built in Q[t] as running prefixes, one factor
    per j: the lhs from the same factors the factor entries use (at p = t,
    q = 1), the rhs from the two rising factorials' prefixes
    (``rising_factorials``), so each pair costs O(1) polynomial products.
    The caller compares the two.
    """
    require_at_least(1, i=i)
    require_at_least(0, j_max=j_max)
    lhs = accumulate(_row_factors(i, range(1, j_max + 1), T * T, 1), mul)
    half_odd = Fraction(2 * i - 1, 2)
    falling = rising_factorials(Polynomial((1, -half_odd)), j_max)
    rising = rising_factorials(Polynomial((1, half_odd)), j_max)
    rhs = ((-4) ** j * a * b for j, a, b in zip(count(), falling, rising))
    return zip(lhs, islice(rhs, 1, None))


def gamma_sides_right(l: int, j_max: int):
    """Both sides of the column-product identity for j = 1..j_max, in turn,
    as pairs (lhs, rhs) of polynomials in Q[t].

    lhs = prod_{k=1..j} ((2k-1)^2 t^2 - (2l)^2) = Q(l, j)
    rhs = 4^j t^(2j) (1/2 + l/t)_j (1/2 - l/t)_j

    The t^(2j) factor clears the poles of l/t.  With u = 1/t the rhs is
    t^(2j) f(1/t) for the polynomial f(u) = 4^j (1/2 + l u)_j (1/2 - l u)_j,
    which is built in Q[u] and read backwards.  Both sides are running
    prefixes, one factor per j, as in ``gamma_sides_left``.
    """
    require_at_least(1, l=l)
    require_at_least(0, j_max=j_max)
    lhs = accumulate(_column_factors(l, range(1, j_max + 1), T * T, 1), mul)
    half = Fraction(1, 2)
    plus = rising_factorials(Polynomial((half, l)), j_max)
    minus = rising_factorials(Polynomial((half, -l)), j_max)
    # f has degree exactly 2j (leading coefficient (-4 l^2)^j, nonzero as
    # l >= 1), so t^(2j) f(1/t) is f's coefficient list reversed.
    rhs = (Polynomial((4 ** j * a * b).coeffs[::-1]) for j, a, b in zip(count(), plus, minus))
    return zip(lhs, islice(rhs, 1, None))


def gamma_identity_left(i: int, j: int) -> tuple[Polynomial, Polynomial]:
    """The j-th pair of ``gamma_sides_left(i, .)``: both sides of the
    row-product identity P(i, j) = (-1)^j 4^j (1 - t(i - 1/2))_j
    (1 + t(i - 1/2))_j in Q[t]."""
    require_at_least(1, i=i, j=j)
    return deque(gamma_sides_left(i, j), maxlen=1).pop()


def gamma_identity_right(j: int, l: int) -> tuple[Polynomial, Polynomial]:
    """The j-th pair of ``gamma_sides_right(l, .)``: both sides of the
    column-product identity Q(l, j) = 4^j t^(2j) (1/2 + l/t)_j (1/2 - l/t)_j
    in Q[t]."""
    require_at_least(1, j=j, l=l)
    return deque(gamma_sides_right(l, j), maxlen=1).pop()


# -- the t = 1 simplification chain -------------------------------------------


class ChainValues(NamedTuple):
    """The six t=1 product expressions for one s, from the raw signed
    diagonal product (E1) to the compact odd-binomial form (E6).

    All six are equal -- that is the theorem -- but they are stored
    separately so a failure names the expression that broke.
    """

    s: int
    values: tuple[Fraction, ...]

    @property
    def all_equal(self) -> bool:
        return all(v == self.values[0] for v in self.values)


def chain_e1(s: int) -> Fraction:
    """Raw diagonal product: signed integer factor products, no regrouping."""
    total = Fraction(1, factorial(s))
    for j in range(1, s + 1):
        num = (-1) ** j * 16 ** (j - 1) * factorial(2 * j - 2) * factorial(2 * j - 1)
        den = 1
        for k in range(1, j + 1):
            den *= (2 * k - 2 * j - 1) * (2 * k + 2 * j - 1)
        for k in range(1, j):
            den *= (2 * j - 2 * k - 1) * (2 * j + 2 * k - 1)
        total *= Fraction(num, den)
    return total


def chain_e2(s: int) -> Fraction:
    """Double-factorial form."""
    total = Fraction(1, factorial(s))
    for j in range(1, s + 1):
        total *= Fraction(
            16 ** (j - 1) * factorial(2 * j - 1) ** 2,
            double_factorial(4 * j - 1) * double_factorial(4 * j - 3),
        )
    return total


def chain_e3(s: int) -> Fraction:
    """Single-factorial form."""
    total = Fraction(4 ** s, factorial(s))
    for j in range(1, s + 1):
        total *= Fraction(
            256 ** (j - 1) * factorial(2 * j - 1) ** 4,
            factorial(4 * j - 1) * factorial(4 * j - 2),
        )
    return total


def chain_e4(s: int) -> Fraction:
    """Paired central-binomial form."""
    den = factorial(s) ** 2 * math.prod(
        binomial(4 * j, 2 * j) * binomial(4 * j - 2, 2 * j - 1) for j in range(1, s + 1)
    )
    return Fraction(4 ** s * 16 ** (s * (s - 1)), den)


def chain_e5(s: int) -> Fraction:
    """Flattened central-binomial form over j = 1..2s."""
    den = factorial(s) ** 2 * math.prod(binomial(2 * j, j) for j in range(1, 2 * s + 1))
    return Fraction(4 ** s * 16 ** (s * (s - 1)), den)


def chain_e6(s: int) -> Fraction:
    """Odd-binomial form over j = 0..2s-1."""
    den = factorial(s) ** 2 * math.prod(binomial(2 * j + 1, j) for j in range(0, 2 * s))
    return Fraction(16 ** (s * (s - 1)), den)


def chain_t1(s: int) -> ChainValues:
    """All six t=1 expressions, each evaluated from its own formula."""
    require_at_least(1, s=s)
    values = (
        chain_e1(s),
        chain_e2(s),
        chain_e3(s),
        chain_e4(s),
        chain_e5(s),
        chain_e6(s),
    )
    return ChainValues(s=s, values=values)


def det_t1(s: int) -> Fraction:
    """Determinant at t=1 via the last (most compact) chain expression."""
    require_at_least(1, s=s)
    return chain_e6(s)
