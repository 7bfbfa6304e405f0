"""Dense univariate polynomials in t over the exact rationals.

A polynomial is stored as a tuple of Python ints over one positive common
denominator: index k of the tuple holds the numerator of the coefficient of
t^k.  The form is canonical: trailing zeros are stripped, and the ints and
the denominator share no common factor, so every nonzero polynomial ends in
its (nonzero) leading numerator and the zero polynomial is the empty tuple
over 1.  The degree of the zero polynomial is the marker ``NEG_INFINITY``,
which compares below every integer, so ``deg(remainder) < deg(divisor)``
holds uniformly.

All arithmetic runs on ints: sums scale by the lcm of the denominators,
products are integer convolutions, division scales its remainder by the
least factor that keeps it integral, and the gcd is a primitive
pseudo-remainder sequence (Collins 1967; Brown 1971).  Ahead of that
sequence, a pair whose smaller degree is ``MODULAR_GATE`` or more first
takes a deterministic coprimality test modulo the prime ``MODULUS`` =
2^61 - 1 (``_coprime_mod_p``): when p divides neither leading coefficient,
the integer gcd reduces mod p to a divisor of the same degree, so a constant
gcd mod p proves the pair coprime.  Any other outcome falls through to the
sequence, which stays the reference.  The public accessors
(``coeffs``, ``leading``, ``coefficient``, ``content``) hand out
``Fraction``s.

Instances are immutable and hashable; a constant hashes as its value.
Arithmetic coerces ``int`` and ``Fraction`` scalars to constant
polynomials; floats are refused everywhere.

``T`` is the indeterminate itself, the building block for all symbolic work:

    >>> str((T + 2) * (T - 2))
    't^2 - 4'
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Union

from .errors import DivisionByZero, DomainError
from .rational import format_ratio, parse_int

NEG_INFINITY = float("-inf")

MODULUS = (1 << 61) - 1  # a Mersenne prime; a residue fits one 64-bit word
# Smaller operand degree from which ``gcd`` tries the modular coprimality
# test before the pseudo-remainder sequence.  Below it the sequence is cheap
# and about half the pairs share a factor, so the test mostly adds its own
# cost to the sequence's.  Timing both on every gcd of the s=10 symbolic pipeline (Python 3.11,
# 2-vCPU Xeon), the gcds sum to 168 ms without the test, 153 ms with the gate
# at 8, 119 ms at 16, 108 ms at 24, 107 ms at 28 and 109 ms at 32.
MODULAR_GATE = 24

Scalar = Union[int, Fraction]


def _as_ints(coeffs: Iterable[Scalar]) -> tuple[list[int], int]:
    """(ints, den) with coeffs[k] == ints[k] / den; refuses inexact values."""
    cs = list(coeffs)
    den = 1
    for c in cs:
        if isinstance(c, int):
            continue
        if not isinstance(c, Fraction):
            raise DomainError(f"not an exact coefficient: {c!r}")
        den = _int_lcm(den, c.denominator)
    if den == 1:
        return [int(c) for c in cs], 1
    return [c.numerator * (den // c.denominator) if isinstance(c, Fraction) else c * den
            for c in cs], den


def _divrem(rem: list[int], div: tuple[int, ...], quotient: bool):
    """Integer division with lazy scaling: (quot, rem, scale).

    On return scale * old_rem == quot * div + rem with deg(rem) < deg(div),
    where rem is the first deg(div) entries of the list, updated in place.
    Before each step only the part of rem still to be divided is multiplied
    by lead / gcd(c, lead), the least factor making c a multiple of lead.
    """
    d = len(div) - 1
    lead = div[-1]
    scale = 1
    quot = [0] * (len(rem) - d) if quotient else None
    for k in range(len(rem) - d - 1, -1, -1):
        c = rem[k + d]
        if not c:
            continue
        mult = abs(lead) // _int_gcd(c, lead)
        if mult != 1:
            scale *= mult
            for m in range(k + d):
                rem[m] *= mult
            if quotient:
                for m in range(k + 1, len(quot)):
                    quot[m] *= mult
            c *= mult
        c //= lead
        if quotient:
            quot[k] = c
        for m in range(d):
            rem[k + m] -= c * div[m]
    del rem[d:]
    return quot, rem, scale


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """Whether the int polynomials a and b, deg a >= deg b >= 1, are coprime
    modulo MODULUS, whose residues of both leading coefficients are nonzero.

    Euclid's algorithm over GF(p).  A remainder step reduces only the
    coefficients it eliminates; the rest take unreduced products and are
    reduced once, when the step ends.
    """
    p = MODULUS
    a = [c % p for c in a]
    b = [c % p for c in b]
    while True:
        d = len(b) - 1
        inv = pow(b[-1], -1, p)
        for k in range(len(a) - 1 - d, -1, -1):
            c = a[k + d] * inv % p
            if c:
                a[k:k + d] = [x - c * y for x, y in zip(a[k:k + d], b)]
        rem = [x % p for x in a[:d]]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return False
        if len(rem) == 1:
            return True
        a, b = b, rem


def _primitive_ints(cs) -> list[int]:
    """cs divided by the gcd of its entries (sign kept)."""
    g = _int_gcd(*cs)
    return [c // g for c in cs] if g != 1 else list(cs)


class Polynomial:
    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = (), *, den: int | None = None):
        """Build from int/Fraction coefficients, lowest power first.

        With ``den`` the coefficients must be ints: they are the numerators
        over the positive int ``den``, and no Fraction is formed.
        """
        if den is None:
            nums, den = _as_ints(coeffs)
        else:
            nums = list(coeffs)
            if den < 1:
                raise DomainError(f"common denominator must be positive, got {den!r}")
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            den = 1
        elif den != 1:
            g = _int_gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        self._nums = tuple(nums)
        self._den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @property
    def degree(self):
        """Degree of the polynomial; NEG_INFINITY for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_positive_primitive(self) -> bool:
        """Integer coefficients with content 1 and a positive leading one."""
        nums = self._nums
        return self._den == 1 and bool(nums) and nums[-1] > 0 and _int_gcd(*nums) == 1

    @property
    def leading(self) -> Fraction:
        if not self._nums:
            raise DomainError("the zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t^k; zero beyond the stored degree."""
        if k < 0:
            raise DomainError(f"negative power {k}")
        return Fraction(self._nums[k], self._den) if k < len(self._nums) else Fraction(0)

    # -- ring arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial((other,), den=1)
        if isinstance(other, Fraction):
            return Polynomial((other.numerator,), den=other.denominator)
        return None

    def _combine(self, other: Polynomial, sign: int) -> Polynomial:
        """self + sign * other."""
        a, da = self._nums, self._den
        b, db = other._nums, other._den
        if da == db:
            den = da
        else:
            den = da // _int_gcd(da, db) * db
            sa, sb = den // da, den // db
            a = [c * sa for c in a] if sa != 1 else a
            b = [c * sb for c in b] if sb != 1 else b
        if sign < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out, den=den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self._nums], den=self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return Polynomial([c * other for c in self._nums], den=self._den)
            if isinstance(other, Fraction):
                n = other.numerator
                return Polynomial([c * n for c in self._nums], den=self._den * other.denominator)
            return NotImplemented
        a, b = self._nums, other._nums
        if not a or not b:
            return Polynomial()
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                for i, ca in enumerate(a, j):
                    out[i] += ca * cb
        return Polynomial(out, den=self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"polynomial power must be a nonnegative int, got {n!r}")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("polynomial division by the zero polynomial")
        if self.degree < other.degree:
            return Polynomial(), self
        # self = A/da, other = B/db and scale*A = Q*B + R give
        # self = (Q*db/(da*scale)) * other + R/(da*scale).
        quot, rem, scale = _divrem(list(self._nums), other._nums, True)
        den = self._den * scale
        db = other._den
        return (Polynomial([c * db for c in quot] if db != 1 else quot, den=den),
                Polynomial(rem, den=den))

    def __floordiv__(self, other):
        q, _ = divmod(self, other)
        return q

    def __mod__(self, other):
        _, r = divmod(self, other)
        return r

    def __call__(self, t0: Scalar) -> Fraction:
        """Evaluate at t0 = p/q by Horner's rule on q^deg * self(p/q)."""
        if not isinstance(t0, (int, Fraction)):
            raise DomainError(f"not an exact coefficient: {t0!r}")
        if not self._nums:
            return Fraction(0)
        p, q = t0.numerator, t0.denominator
        acc = 0
        qk = 1
        for c in reversed(self._nums):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, self._den * (qk // q))

    # -- normal forms ------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer and coprime; 0 for zero."""
        if not self._nums:
            return Fraction(0)
        return Fraction(_int_gcd(*self._nums), self._den)

    def primitive(self) -> Polynomial:
        """self divided by its content (integer coefficients, content 1)."""
        if not self._nums:
            return self
        return Polynomial(_primitive_ints(self._nums), den=1)

    def gcd(self, other) -> Polynomial:
        """Monic greatest common divisor.

        Works on the integer numerators, since scaling by a constant does
        not change the gcd, and returns the primitive pseudo-remainder
        sequence's result (``_prs_gcd``), but for one shortcut.  When the
        smaller degree reaches MODULAR_GATE and p = MODULUS divides neither
        leading coefficient, a constant gcd mod p returns 1 at once.  Proof:
        the primitive integer gcd g divides both operands in Z[t] (Gauss's
        lemma), so p does not divide lead(g) and g mod p, of degree deg g,
        divides both residues; so deg g <= deg gcd_p = 0.
        """
        b = self._coerce(other)
        if b is None:
            raise DomainError(f"cannot take gcd with {other!r}")
        a, b = self._nums, b._nums
        if not a or not b:
            if not a and not b:
                return Polynomial()
            return _monic(a or b)
        if len(a) == 1 or len(b) == 1:
            return Polynomial((1,), den=1)
        if len(a) < len(b):
            a, b = b, a
        if (len(b) > MODULAR_GATE and a[-1] % MODULUS and b[-1] % MODULUS
                and _coprime_mod_p(a, b)):
            return Polynomial((1,), den=1)
        return _prs_gcd(a, b)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self):
        if len(self._nums) <= 1:  # a constant hashes as its Fraction value
            return hash(Fraction(self._nums[0], self._den) if self._nums else 0)
        return hash((self._nums, self._den))

    def __bool__(self):
        return bool(self._nums)

    def __repr__(self):
        return f"Polynomial.parse({str(self)!r})"

    def __str__(self):
        """Sparse descending form, e.g. '9*t^2 - 4' or '3/2*t^3 + t - 1/2'."""
        if not self._nums:
            return "0"
        den = self._den
        parts: list[str] = []
        for k in range(len(self._nums) - 1, -1, -1):
            c = self._nums[k]
            if not c:
                continue
            g = _int_gcd(c, den)
            n, d = abs(c) // g, den // g
            if k == 0:
                body = format_ratio(n, d)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if n == d == 1 else f"{format_ratio(n, d)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    @staticmethod
    def parse(text: str) -> Polynomial:
        return parse_polynomial(text)


def _prs_gcd(a, b) -> Polynomial:
    """Monic gcd of the int polynomials a and b, deg a >= deg b >= 1, by the
    primitive pseudo-remainder sequence: each remainder is cut to its
    primitive part, which keeps coefficient growth tame.  It decides every
    gcd that the modular test does not, and is the reference for that test.
    """
    a = _primitive_ints(a)
    b = _primitive_ints(b)
    while True:
        _, rem, _ = _divrem(a, b, False)
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return _monic(b)
        if len(rem) == 1:
            return Polynomial((1,), den=1)
        a, b = b, _primitive_ints(rem)


def _monic(nums) -> Polynomial:
    """The monic polynomial proportional to the nonzero ints nums."""
    lead = nums[-1]
    if lead < 0:
        return Polynomial([-c for c in nums], den=-lead)
    return Polynomial(nums, den=lead)


T = Polynomial((0, 1))

_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<num>\d+)(?:/(?P<den>\d+))?\*?)?"
    r"(?:(?P<var>t)(?:\^(?P<power>\d+))?)?"
)


def parse_polynomial(text: str) -> Polynomial:
    """Inverse of ``str(Polynomial)``; accepts any order of sparse terms.

    Every term after the first must start with an explicit sign.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise DomainError("empty polynomial text")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if (not m or m.end() == pos or (m.group("num") is None and m.group("var") is None)
                or (pos and not m.group("sign"))):
            raise DomainError(f"unparseable polynomial text: {text!r}")
        coeff = Fraction(1)
        if m.group("num"):
            den = parse_int(m.group("den")) if m.group("den") else 1
            if den == 0:
                raise DivisionByZero(f"zero denominator in polynomial text: {text!r}")
            coeff = Fraction(parse_int(m.group("num")), den)
        if m.group("sign") == "-":
            coeff = -coeff
        if m.group("var"):
            power = int(m.group("power")) if m.group("power") else 1
        else:
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + coeff
        pos = m.end()
    size = max(coeffs) + 1
    out = [Fraction(0)] * size
    for power, value in coeffs.items():
        out[power] = value
    return Polynomial(out)
