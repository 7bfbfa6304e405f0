"""Rational functions in t: normalized quotients of :class:`Polynomial`.

Every instance is held in one canonical form, fixed at construction time:

* numerator and denominator share no nonconstant factor;
* the denominator has integer coefficients with content 1 and positive
  leading coefficient (the numerator absorbs the matching scale);
* zero is exactly 0/1.

Arithmetic keeps denominators in that form by construction.  Common factors
are cancelled by ``Polynomial.cofactors``, which returns the primitive,
positive-lead gcd together with both operands already divided by it, so no
division follows the gcd.  By Gauss's lemma every product of primitive
integer polynomials is primitive, and so is every exact quotient of one by
a primitive divisor.  So a sum, product or power of canonical operands has a
canonical denominator, and only a denominator from elsewhere (``__init__``,
an inverted numerator) is rescaled.

Canonical form makes equality a plain structural comparison and printing
deterministic.  Arithmetic coerces ``int``, ``Fraction``, and ``Polynomial``
operands, and refuses an inexact one (float, complex, Decimal) with
DomainError.  ``SYMBOLIC_T`` is the indeterminate as a field element --
passing it as the scalar t switches the matrix and formula code into
symbolic mode.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, DomainError, PoleAtPoint
from .polynomial import Polynomial, T, _positive_primitive, _t_exponent, _unsupported, parse_polynomial


class RationalFunction:
    __slots__ = ("_num", "_den")

    def __init__(self, num=0, den=1):
        p, q = Polynomial._coerce(num), Polynomial._coerce(den)
        if p is None or q is None:
            value = num if p is None else den
            raise DomainError(f"cannot build a rational function from {value!r}")
        if not q:
            raise DivisionByZero("zero denominator polynomial")
        _, num, den = p.cofactors(q)
        self._num, self._den = _scale_canonical(num, den)

    @classmethod
    def _from_coprime(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """Fast path when num and den are already known to be coprime."""
        self = object.__new__(cls)
        self._num, self._den = _scale_canonical(num, den)
        return self

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    # -- field arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> RationalFunction | None:
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return _unsupported(other)
        an, ad = self._num, self._den
        bn, bd = o._num, o._den
        # Henrici's scheme: gcd work stays on the small common parts.
        d1, adr, bdr = ad.cofactors(bd)
        _, num, d1 = (an * bdr + bn * adr).cofactors(d1)
        return RationalFunction._from_coprime(num, adr * bdr * d1)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._from_coprime(-self._num, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return _unsupported(other)
        return self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return _unsupported(other)
        an, ad = self._num, self._den
        bn, bd = o._num, o._den
        _, an, bd = an.cofactors(bd)
        _, bn, ad = bn.cofactors(ad)
        return RationalFunction._from_coprime(an * bn, ad * bd)

    __rmul__ = __mul__

    def invert(self) -> RationalFunction:
        if not self._num:
            raise DivisionByZero("inverse of the zero rational function")
        return RationalFunction._from_coprime(self._den, self._num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return _unsupported(other)
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return _unsupported(other)
        return o * self.invert()

    def __pow__(self, n: int) -> RationalFunction:
        if not isinstance(n, int):
            raise DomainError(f"rational-function power must be int, got {n!r}")
        if n < 0:
            return self.invert() ** (-n)
        return RationalFunction._from_coprime(self._num ** n, self._den ** n)

    __rpow__ = _t_exponent

    def __call__(self, t0) -> Fraction:
        """Exact value at t0; raises PoleAtPoint where the denominator vanishes."""
        if isinstance(t0, int):
            t0 = Fraction(t0)
        if not isinstance(t0, Fraction):
            raise DomainError(f"evaluation point must be exact, got {t0!r}")
        d = self._den(t0)
        if d == 0:
            raise PoleAtPoint(t0)
        return self._num(t0) / d

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other):
        # Canonical form decides equality; an int, Fraction or Polynomial
        # operand equals self iff self is a polynomial with its coefficients,
        # which needs no RationalFunction (and no gcd) built from it.
        if isinstance(other, RationalFunction):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self._den == 1 and self._num == other
        return NotImplemented

    def __hash__(self):
        if self._den == 1:  # hash as the equal Polynomial (and so as a constant's value)
            return hash(self._num)
        return hash((self._num, self._den))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        return f"parse_ratfunc({str(self)!r})"

    def __str__(self):
        """'(num)/(den)' in canonical form; bare polynomial when den is 1."""
        if self._den == 1:
            return str(self._num)
        return f"({self._num})/({self._den})"


def _scale_canonical(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Scale a reduced pair so den is integer, content 1, positive leading;
    a den already in that form is kept, with no rescaling."""
    if not num:
        return Polynomial(), Polynomial((1,))
    c, ints = _positive_primitive(den._nums)
    if c == 1 and den._den == 1:
        return num, den
    return num * Fraction(den._den, c), Polynomial(ints, _den=1)


def coerce_scalar(t):
    """Coerce int to Fraction; pass Fraction and RationalFunction through.

    This is the single gate deciding numeric versus symbolic mode: matrix
    and closed-form code runs in whichever field the scalar t lives in.
    """
    if isinstance(t, int):
        return Fraction(t)
    if isinstance(t, (Fraction, RationalFunction)):
        return t
    raise DomainError(f"t must be an exact scalar, got {t!r}")


def parse_ratfunc(text: str) -> RationalFunction:
    """Inverse of ``str(RationalFunction)``: accepts exactly the text it prints.

    ``(num)/(den)`` is split at ``)/(``, anything else is read as a bare
    polynomial, and the value is returned only when it prints back as
    ``text``; any other text, and any input that is not a str, is a
    DomainError, and a zero denominator is DivisionByZero.
    """
    if not isinstance(text, str):
        raise DomainError(f"not text: {text!r}")
    num, quotient, den = text.partition(")/(")
    if quotient:
        value = RationalFunction(parse_polynomial(num[1:]), parse_polynomial(den[:-1]))
    else:
        value = RationalFunction(parse_polynomial(text))
    if str(value) != text:
        raise DomainError(f"not a printed rational function: {text!r}")
    return value


SYMBOLIC_T = RationalFunction(T)
