"""Closed forms: the guessed LU factor entries, their Gamma-product
identities, the determinant as a diagonal product, and the six-way t=1
product chain.

Every function transcribes one displayed formula.  The paper's closed forms
are ratios of two products over k = 1..j,

    row product     P(a, j) = prod_{k=1..j} ((2a-1)^2 t^2 - (2k)^2)
    column product  Q(l, j) = prod_{k=1..j} ((2k-1)^2 t^2 - (2l)^2)

and each is written once, in ``_left_product`` and ``_right_product``.  The
factor entries multiply them, and the two Gamma identities state their
rising-factorial forms, so the Gamma suite checks the very products the
entries use.  Both products are computed in the ring beneath t's field:
with t = p/q (ints, or Polynomials), every factor is multiplied by q^2, the
powers of q cancel, and an entry is one ratio of ring products, normalised
once.  Each docstring shows the displayed formula and its cleared ring form
side by side.  Both Gamma identities are equalities of polynomials, so both
sides are built in Q[t] and compared there, with no field operation.  The
determinant and the chain stay in exact field arithmetic; the compact chain
forms E4-E6 multiply their denominators up as ints and normalise once (in
E1-E3 the stepwise reduction is cheaper than one gcd of the huge factorial
products).  The chain expressions are each coded independently, reading
their own factors, so a
transcription slip in any one of them shows up as disagreement with the
other five rather than passing silently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import binomial, double_factorial, factorial, rising_factorial
from .errors import SingularEntry, require_at_least
from .matrix import ExactMatrix
from .polynomial import Polynomial, T
from .ratfunc import coerce_scalar


def _ring(t):
    """(t, p, q): t coerced to its field, and t = p/q in the ring under it
    (ints for a Fraction, Polynomials for a RationalFunction)."""
    t = coerce_scalar(t)
    if isinstance(t, Fraction):
        return t, t.numerator, t.denominator
    return t, t.num, t.den


def _left_product(a: int, j: int, pp, qq):
    """prod_{k=1..j} ((2a-1)^2 pp - (2k)^2 qq), the row product P(a, j)
    cleared by q^(2j), with pp = p^2 and qq = q^2; the empty product is 1."""
    head = (2 * a - 1) ** 2 * pp
    return math.prod(head - (2 * k) ** 2 * qq for k in range(1, j + 1))


def _right_product(l: int, j: int, pp, qq):
    """prod_{k=1..j} ((2k-1)^2 pp - (2l)^2 qq), the column product Q(l, j)
    cleared by q^(2j), with pp = p^2 and qq = q^2; the empty product is 1."""
    tail = (2 * l) ** 2 * qq
    return math.prod((2 * k - 1) ** 2 * pp - tail for k in range(1, j + 1))


def _singular(product, j: int, t, where: tuple[int, int], note: str = "") -> SingularEntry:
    """The error for a denominator product(j) of j factors that vanished,
    naming its first vanishing factor: the first k with product(k) == 0
    (the ring has no zero divisors)."""
    k = next(k for k in range(1, j + 1) if not product(k))
    return SingularEntry([where], t=t, note=f"denominator factor k={k}{note}")


def entry_L(i: int, j: int, t):
    """Entry (i, j) of the unit lower-triangular factor.

    L[i,j] = [prod_{k=1..j} ((2j-1)^2 t^2 - (2k)^2)
              / prod_{k=1..j} ((2i-1)^2 t^2 - (2k)^2)]
             * (i+j-2)! / ((i-j)! (2j-2)!)
           = P(j, j) / P(i, j) * (i+j-2)! / ((i-j)! (2j-2)!)

    with 1/(i-j)! = 0 for j > i (``reciprocal_factorial``'s convention),
    hence zero above the diagonal; on the diagonal the two products cancel
    identically and the value is 1.

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
    t, p, q = _ring(t)
    if i < j:  # 1/(i-j)! = 0
        return type(t)(0)
    if i == j:
        return type(t)(1)
    pp, qq = p * p, q * q
    den = _left_product(i, j, pp, qq)
    if not den:
        raise _singular(lambda k: _left_product(i, k, pp, qq), j, t, (i, j))
    num = factorial(i + j - 2) * _left_product(j, j, pp, qq)
    return type(t)(num, factorial(i - j) * factorial(2 * j - 2) * den)


def entry_U(j: int, l: int, t):
    """Entry (j, l) of the upper-triangular factor.

    U[j,l] = t^(2j-2) (-1)^j 16^(j-1) (2j-2)!
             / [prod_{k=1..j} ((2k-1)^2 t^2 - (2l)^2)
                * prod_{k=1..j-1} ((2j-1)^2 t^2 - (2k)^2)]
             * (j+l-1)! / (l (l-j)!)
           = t^(2j-2) (-1)^j 16^(j-1) (2j-2)! (j+l-1)!
             / [Q(l, j) P(j, j-1) l (l-j)!]

    with 1/(l-j)! = 0 for l < j (``reciprocal_factorial``'s convention),
    hence zero below the diagonal.

    Computed in the ring of t = p/q, as entry_L is: the 2j-1 denominator
    factors each take a q^2, and with t^(2j-2) = p^(2j-2) / q^(2j-2)

    U[j,l] = (-1)^j 16^(j-1) (2j-2)! (j+l-1)! p^(2j-2) q^(2j)
             / [l (l-j)! prod_{k=1..j} ((2k-1)^2 p^2 - (2l)^2 q^2)
                * prod_{k=1..j-1} ((2j-1)^2 p^2 - (2k)^2 q^2)]
    """
    if not (isinstance(j, int) and isinstance(l, int) and j >= 1 and l >= 1):
        require_at_least(1, j=j, l=l)
    t, p, q = _ring(t)
    if l < j:  # 1/(l-j)! = 0
        return type(t)(0)
    pp, qq = p * p, q * q
    first = _right_product(l, j, pp, qq)
    if not first:
        raise _singular(lambda k: _right_product(l, k, pp, qq), j, t, (j, l), ", first product")
    second = _left_product(j, j - 1, pp, qq)
    if not second:
        raise _singular(lambda k: _left_product(j, k, pp, qq), j - 1, t, (j, l), ", second product")
    scale = (-1) ** j * 16 ** (j - 1) * factorial(2 * j - 2) * factorial(j + l - 1)
    num = p ** (2 * j - 2) * q ** (2 * j) * scale
    return type(t)(num, l * factorial(l - j) * first * second)


def build_L(s: int, t) -> ExactMatrix:
    """The s-by-s lower factor, assembled entrywise from entry_L."""
    require_at_least(1, s=s)
    return ExactMatrix(
        [[entry_L(i, j, t) for j in range(1, s + 1)] for i in range(1, s + 1)]
    )


def build_U(s: int, t) -> ExactMatrix:
    """The s-by-s upper factor, assembled entrywise from entry_U."""
    require_at_least(1, s=s)
    return ExactMatrix(
        [[entry_U(j, l, t) for l in range(1, s + 1)] for j in range(1, s + 1)]
    )


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


def gamma_identity_left(i: int, j: int) -> tuple[Polynomial, Polynomial]:
    """Both sides of the row-product identity, as polynomials in Q[t].

    lhs = prod_{k=1..j} ((2i-1)^2 t^2 - (2k)^2) = P(i, j)
    rhs = (-1)^j 4^j (1 - t(i - 1/2))_j (1 + t(i - 1/2))_j

    where (x)_j is the rising factorial -- the Gamma-ratio form of the same
    product.  Both sides are built in Q[t] (the lhs by the same helper the
    factor entries use, at p = t, q = 1).  The caller compares the two.
    """
    require_at_least(1, i=i, j=j)
    lhs = _left_product(i, j, T * T, 1)
    half_odd = Fraction(2 * i - 1, 2)
    rhs = (
        (-1) ** j * 4 ** j
        * rising_factorial(Polynomial((1, -half_odd)), j)
        * rising_factorial(Polynomial((1, half_odd)), j)
    )
    return lhs, rhs


def gamma_identity_right(j: int, l: int) -> tuple[Polynomial, Polynomial]:
    """Both sides of the column-product identity, as polynomials in Q[t].

    lhs = prod_{k=1..j} ((2k-1)^2 t^2 - (2l)^2) = Q(l, j)
    rhs = 4^j t^(2j) (1/2 + l/t)_j (1/2 - l/t)_j

    The t^(2j) factor clears the poles of l/t.  With u = 1/t the rhs is
    t^(2j) f(1/t) for the polynomial f(u) = 4^j (1/2 + l u)_j (1/2 - l u)_j,
    which is built in Q[u] and read backwards.
    """
    require_at_least(1, j=j, l=l)
    lhs = _right_product(l, j, T * T, 1)
    half = Fraction(1, 2)
    f = (
        4 ** j
        * rising_factorial(Polynomial((half, l)), j)
        * rising_factorial(Polynomial((half, -l)), j)
    )
    # f has degree exactly 2j (leading coefficient (-4 l^2)^j, nonzero as
    # l >= 1), so t^(2j) f(1/t) is f's coefficient list reversed.
    return lhs, Polynomial(f.coeffs[::-1])


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
