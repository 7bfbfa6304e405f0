"""Closed forms: the guessed LU factor entries, their Gamma-product
identities, the determinant as a diagonal product, and the six-way t=1
product chain.

Every function transcribes one displayed formula.  The factor entries work
over numeric t (Fraction) and symbolic t (RationalFunction, pass
``SYMBOLIC_T``) alike, and each is computed in the ring beneath t's field:
with t = p/q (ints, or Polynomials), every factor (2a-1)^2 t^2 - (2b)^2 is
multiplied by q^2, the powers of q cancel, and the entry is one ratio of
ring products, normalised once.  Each docstring shows the displayed formula
and its cleared ring form side by side.  The Gamma identities, the
determinant and the chain stay in exact field arithmetic.  The chain
expressions are each coded independently, reading their own factors, so a
transcription slip in any one of them shows up as disagreement with the
other five rather than passing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (
    binomial,
    double_factorial,
    factorial,
    reciprocal_factorial,
    rising_factorial,
)
from .errors import SingularEntry, require_at_least
from .matrix import ExactMatrix
from .polynomial import Polynomial, T
from .ratfunc import RationalFunction, coerce_scalar


def _ring(t):
    """(t, p, q): t coerced to its field, and t = p/q in the ring under it
    (ints for a Fraction, Polynomials for a RationalFunction)."""
    t = coerce_scalar(t)
    if isinstance(t, Fraction):
        return t, t.numerator, t.denominator
    return t, t.num, t.den


def entry_L(i: int, j: int, t):
    """Entry (i, j) of the unit lower-triangular factor.

    L[i,j] = [prod_{k=1..j} ((2j-1)^2 t^2 - (2k)^2)
              / prod_{k=1..j} ((2i-1)^2 t^2 - (2k)^2)]
             * (i+j-2)! / ((i-j)! (2j-2)!)

    with 1/(i-j)! = 0 for j > i, hence zero above the diagonal; on the
    diagonal the two products cancel identically and the value is 1.

    Computed in the ring of t = p/q: multiplying every factor by q^2 turns
    it into (2a-1)^2 p^2 - (2b)^2 q^2, and the j powers of q^2 above and
    below cancel, so

    L[i,j] = (i+j-2)! prod_{k=1..j} ((2j-1)^2 p^2 - (2k)^2 q^2)
             / [(i-j)! (2j-2)! prod_{k=1..j} ((2i-1)^2 p^2 - (2k)^2 q^2)]

    with a single division in the field at the end.  A factor vanishes
    exactly when its field form does, since q != 0.
    """
    require_at_least(1, i=i, j=j)
    t, p, q = _ring(t)
    one = t ** 0
    if reciprocal_factorial(i - j) == 0:
        return one * 0
    if i == j:
        return one
    pp, qq = p * p, q * q
    num = factorial(i + j - 2)
    den = factorial(i - j) * factorial(2 * j - 2)
    for k in range(1, j + 1):
        num = num * ((2 * j - 1) ** 2 * pp - (2 * k) ** 2 * qq)
        factor = (2 * i - 1) ** 2 * pp - (2 * k) ** 2 * qq
        if factor == 0:
            raise SingularEntry([(i, j)], t=t, note=f"denominator factor k={k}")
        den = den * factor
    return type(t)(num, den)


def entry_U(j: int, l: int, t):
    """Entry (j, l) of the upper-triangular factor.

    U[j,l] = t^(2j-2) (-1)^j 16^(j-1) (2j-2)!
             / [prod_{k=1..j} ((2k-1)^2 t^2 - (2l)^2)
                * prod_{k=1..j-1} ((2j-1)^2 t^2 - (2k)^2)]
             * (j+l-1)! / (l (l-j)!)

    with 1/(l-j)! = 0 for l < j, hence zero below the diagonal.

    Computed in the ring of t = p/q, as entry_L is: the 2j-1 denominator
    factors each take a q^2, and with t^(2j-2) = p^(2j-2) / q^(2j-2)

    U[j,l] = (-1)^j 16^(j-1) (2j-2)! (j+l-1)! p^(2j-2) q^(2j)
             / [l (l-j)! prod_{k=1..j} ((2k-1)^2 p^2 - (2l)^2 q^2)
                * prod_{k=1..j-1} ((2j-1)^2 p^2 - (2k)^2 q^2)]
    """
    require_at_least(1, j=j, l=l)
    t, p, q = _ring(t)
    if reciprocal_factorial(l - j) == 0:
        return t ** 0 * 0
    pp, qq = p * p, q * q
    den = l * factorial(l - j)
    for k in range(1, j + 1):
        factor = (2 * k - 1) ** 2 * pp - (2 * l) ** 2 * qq
        if factor == 0:
            raise SingularEntry([(j, l)], t=t, note=f"denominator factor k={k}, first product")
        den = den * factor
    for k in range(1, j):
        factor = (2 * j - 1) ** 2 * pp - (2 * k) ** 2 * qq
        if factor == 0:
            raise SingularEntry([(j, l)], t=t, note=f"denominator factor k={k}, second product")
        den = den * factor
    scale = (-1) ** j * 16 ** (j - 1) * factorial(2 * j - 2) * factorial(j + l - 1)
    num = p ** (2 * j - 2) * q ** (2 * j) * scale
    return type(t)(num, den)


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
    result = t ** 0
    for j in range(1, s + 1):
        result = result * entry_U(j, j, t)
    return result


# -- Gamma-product identities -------------------------------------------------


def gamma_identity_left(i: int, j: int) -> tuple[RationalFunction, RationalFunction]:
    """Both sides of the row-product identity, as exact rational functions.

    lhs = prod_{k=1..j} ((2i-1)^2 t^2 - (2k)^2)
    rhs = (-1)^j 4^j (1 - t(i - 1/2))_j (1 + t(i - 1/2))_j

    where (x)_j is the rising factorial -- the Gamma-ratio form of the same
    product.  The caller compares the two.
    """
    require_at_least(1, i=i, j=j)
    lhs_poly = Polynomial((1,))
    for k in range(1, j + 1):
        lhs_poly = lhs_poly * Polynomial((-((2 * k) ** 2), 0, (2 * i - 1) ** 2))
    half_odd = Fraction(2 * i - 1, 2)
    down = RationalFunction(Polynomial((1, -half_odd)))
    up = RationalFunction(Polynomial((1, half_odd)))
    rhs = (
        Fraction((-1) ** j * 4 ** j)
        * rising_factorial(down, j)
        * rising_factorial(up, j)
    )
    return RationalFunction(lhs_poly), rhs


def gamma_identity_right(j: int, l: int) -> tuple[RationalFunction, RationalFunction]:
    """Both sides of the column-product identity, as exact rational functions.

    lhs = prod_{k=1..j} ((2k-1)^2 t^2 - (2l)^2)
    rhs = 4^j t^(2j) (1/2 + l/t)_j (1/2 - l/t)_j

    The t^(2j) factor clears the poles of l/t, so the rhs normalizes back to
    a polynomial (denominator 1).
    """
    require_at_least(1, j=j, l=l)
    lhs_poly = Polynomial((1,))
    for k in range(1, j + 1):
        lhs_poly = lhs_poly * Polynomial((-((2 * l) ** 2), 0, (2 * k - 1) ** 2))
    half = Fraction(1, 2)
    l_over_t = RationalFunction(Polynomial((l,)), T)
    rhs = (
        Fraction(4 ** j)
        * RationalFunction(T ** (2 * j))
        * rising_factorial(half + l_over_t, j)
        * rising_factorial(half - l_over_t, j)
    )
    return RationalFunction(lhs_poly), rhs


# -- the t = 1 simplification chain -------------------------------------------


@dataclass(frozen=True)
class ChainValues:
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

    def first_disagreement(self) -> tuple[int, int] | None:
        """1-based (reference, offender) expression numbers, or None."""
        for m, v in enumerate(self.values[1:], start=2):
            if v != self.values[0]:
                return 1, m
        return None


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
    total = Fraction(4 ** s * 16 ** (s * (s - 1)), factorial(s) ** 2)
    for j in range(1, s + 1):
        total /= binomial(4 * j, 2 * j) * binomial(4 * j - 2, 2 * j - 1)
    return total


def chain_e5(s: int) -> Fraction:
    """Flattened central-binomial form over j = 1..2s."""
    total = Fraction(4 ** s * 16 ** (s * (s - 1)), factorial(s) ** 2)
    for j in range(1, 2 * s + 1):
        total /= binomial(2 * j, j)
    return total


def chain_e6(s: int) -> Fraction:
    """Odd-binomial form over j = 0..2s-1."""
    total = Fraction(16 ** (s * (s - 1)), factorial(s) ** 2)
    for j in range(0, 2 * s):
        total /= binomial(2 * j + 1, j)
    return total


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
