"""Dense univariate polynomials in t over the exact rationals.

A polynomial is stored as a tuple of Python ints over one positive common
denominator: index k of the tuple holds the numerator of the coefficient of
t^k.  The form is canonical: trailing zeros are stripped, and the ints and
the denominator share no common factor, so every nonzero polynomial ends in
its (nonzero) leading numerator and the zero polynomial is the empty tuple
over 1.  The degree of the zero polynomial is the marker ``NEG_INFINITY``,
which compares below every integer.

All arithmetic runs on ints: sums scale by the lcm of the denominators and
products are integer convolutions.  There is no division operator:
``cofactors`` returns the primitive gcd g with positive lead together with
both operands divided by it, which is how ``RationalFunction`` cancels.
When one operand is a monomial c t^e, g is t^min(e, ord_t of the other),
read off the int lists.  Every other pair runs GCDHEU (``_heu_at``, Char,
Geddes and Gonnet 1989): the integer gcd of both operands' values at a
power of two 2^k, read back as a polynomial in base 2^k; its cofactors come
from the same values and are accepted only when a size bound proves them
exact, and a constant candidate proves the pair coprime.  A refused point
is tried again at a larger k until the bound accepts (``_int_cofactors``).

GCDHEU runs on F(u), H(u) with u = t^2 when both operands are even.
The public accessors (``coeffs``, ``leading``, ``content``) hand out
``Fraction``s.

Instances are immutable and hashable; a constant hashes as its value.
Arithmetic coerces ``int`` and ``Fraction`` scalars to constant
polynomials; floats are refused everywhere.

``T`` is the indeterminate itself, the building block for all symbolic work:

    >>> str((T + 2) * (T - 2))
    't^2 - 4'
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Union

from .errors import DomainError
from .rational import format_ratio, parse_rational

NEG_INFINITY = float("-inf")

# The largest power ``parse_polynomial`` reads.  A Polynomial is dense, so
# t^n costs a list of n + 1 coefficients; the CLI prints degrees up to 512.
POWER_CAP = 100_000

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


def _order(nums) -> int:
    """ord_t of the nonzero int polynomial nums: the index of its first
    nonzero coefficient."""
    k = 0
    while not nums[k]:
        k += 1
    return k


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

    def cofactors(self, other) -> tuple[Polynomial, Polynomial, Polynomial]:
        """(g, self / g, other / g) for g the gcd with integer coefficients,
        content 1 and positive lead.

        g is 1 for a coprime pair, which returns both operands as they are,
        and 0 when both are zero.  Works on the integer numerators, since
        scaling by a constant does not change the gcd.

        When one operand is a monomial c t^e (a constant when e = 0), the
        gcd is t^m with m = min(e, ord_t of the other), since t is the only
        irreducible factor of c t^e; both cofactors drop their first m
        (zero) coefficients.  Every other pair runs GCDHEU at a power of
        two 2^k, retried at a larger k while the size bound refuses the
        point (``_int_cofactors``).

        It runs on F(u), H(u) with u = t^2 when both operands are even:
        gcd(F(t^2), H(t^2)) = gcd(F, H)(t^2), and so for the cofactors.
        """
        o = self._coerce(other)
        if o is None:
            raise DomainError(f"cannot take gcd with {other!r}")
        a, b = self._nums, o._nums
        if not a or not b:
            if not a and not b:
                return self, self, o
            # gcd(p, 0) is p's primitive form, and p divided by it a constant.
            nums, den = (a, self._den) if a else (b, o._den)
            g = _primitive_ints(nums)
            if g[-1] < 0:
                g = [-c for c in g]
            unit = Polynomial((nums[-1] // g[-1],), den=den)
            zero = Polynomial()
            return Polynomial(g, den=1), (unit if a else zero), (zero if a else unit)
        oa, ob = _order(a), _order(b)
        if oa == len(a) - 1 or ob == len(b) - 1:
            m = min(oa, ob)
            if not m:
                return _ONE, self, o
            return (Polynomial((0,) * m + (1,), den=1), Polynomial(a[m:], den=self._den),
                    Polynomial(b[m:], den=o._den))
        g, ca, cb = _int_cofactors(a, b)
        if len(g) == 1:
            return _ONE, self, o
        return Polynomial(g, den=1), Polynomial(ca, den=self._den), Polynomial(cb, den=o._den)

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


def _int_cofactors(a, b):
    """(g, a / g, b / g) for the int polynomials a and b, both of degree at
    least 1, with g primitive and of positive lead; g == [1] and the operands
    themselves for a coprime pair, by GCDHEU alone.

    The first point 2^k puts 2^k above 2 max(|a|, |b|) + 2 (|.| the largest
    coefficient size) by a margin of 16 bits; a refused point is tried again
    with the margin doubled: 32 bits, then 64, and so on.  With the first
    margin every one of the 1309 GCDHEU calls of the s=10 symbolic pipeline
    settles the pair.

    The loop ends.  Let G be the primitive gcd of the operands GCDHEU sees,
    A and B their cofactors, and |.|_1 the sum of the coefficient sizes.  A
    and B are coprime, so S A + R B = r for some S, R in Z[t] and a nonzero
    integer r: their resultant, or the one of them that is a constant.  At
    xi = 2^k, gcd(a(xi), b(xi)) = e G(xi) with e = gcd(A(xi), B(xi)), and e
    divides r, which does not depend on xi.  So once 2^(k-1) exceeds both
    e |G| and |G|_1 (max(|A|, |B|) + 1), the xi-adic image is e G, its
    primitive part is G, and both cofactor images, A and B, pass the size
    bound of ``_heu_at``.  Doubling the margin reaches that k in O(log k)
    tries, and the last point dominates the cost.  Any candidate the bound
    accepts, at any point, is already proven exact (``_heu_at``).
    """
    even = not any(a[1::2]) and not any(b[1::2])
    fa, fb = (a[::2], b[::2]) if even else (a, b)
    bits = (2 * max(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()
    margin = 16
    while (found := _heu_at(fa, fb, bits + margin)) is None:
        margin *= 2
    g, ca, cb = found
    if len(g) == 1:
        return [1], a, b
    if even:
        return _spread(g), _spread(ca), _spread(cb)
    return g, ca, cb


def _heu_at(a, b, k):
    """GCDHEU (Char, Geddes, Gonnet, J. Symbolic Comput. 7 (1989) 31-48) at
    the one point xi = 2^k > 2 max(|a|, |b|) + 2: (g, a / g, b / g) as
    ``_int_cofactors`` gives them, or None when the candidate is refused.

    h is the symmetric xi-adic image of gcd(a(xi), b(xi)), H its primitive
    part with positive lead, and the cofactor candidates ca, cb are the
    images of the exact integer quotients a(xi) / H(xi), b(xi) / H(xi).

    Exact division in Z[t]: (H ca)(xi) = a(xi), and when
    sum|H| * max|ca| < xi/2 every coefficient of H ca, like every one of a,
    is below xi/2 in size.  Two such polynomials that agree at xi are equal,
    so H ca == a; so for b.  A candidate failing that bound is refused.

    H is then the primitive gcd G.  Proof: H divides G, say G = H K, and
    G(xi) divides h(xi) = content(h) H(xi), so K(xi) divides
    content(h) <= xi/2.  Every root of K is a root of a, so of size below
    1 + |a|, hence |K(xi)| > (xi - 1 - |a|)^deg K >= (xi/2)^deg K, and K is
    constant.  A constant h thus proves the pair coprime with no division.
    """
    va, vb = _at_power_of_two(a, k), _at_power_of_two(b, k)
    gamma = _int_gcd(va, vb)
    h = _xi_adic(gamma, k)
    if len(h) == 1:
        return [1], a, b
    c = _int_gcd(*h) if h[-1] > 0 else -_int_gcd(*h)
    if c != 1:
        h = [x // c for x in h]
    hv = gamma // c  # H(xi)
    limit = (1 << (k - 1)) // sum(map(abs, h))  # max|ca| < limit: sum|H| max|ca| < xi/2
    ca = _xi_adic(va // hv, k)
    if max(map(abs, ca)) >= limit:
        return None
    cb = _xi_adic(vb // hv, k)
    if max(map(abs, cb)) >= limit:
        return None
    return h, ca, cb


def _at_power_of_two(a, k):
    """The int polynomial a evaluated at 2^k."""
    v = 0
    for c in reversed(a):
        v = (v << k) + c
    return v


def _xi_adic(v, k):
    """The int polynomial h with h(2^k) == v and every |h[i]| <= 2^(k-1)."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    h = []
    while v:
        c = v & mask
        if c > half:
            c -= mask + 1
        h.append(c)
        v = (v - c) >> k
    return h


def _spread(u):
    """The coefficients of u(t^2) from those of u."""
    t = [0] * (2 * len(u) - 1)
    t[::2] = u
    return t


T = Polynomial((0, 1))
_ONE = Polynomial((1,), den=1)


def parse_polynomial(text: str) -> Polynomial:
    """Inverse of ``str(Polynomial)``: accepts exactly the text it prints.

    The terms are split at `` + `` and `` - ``; each coefficient is read by
    ``parse_rational``.  A power above ``POWER_CAP`` is a DomainError raised
    before any list is allocated, and one with more digits than the cap is
    refused unconverted.  The polynomial is returned only when it prints
    back as ``text``; any other text is a DomainError, and a zero
    denominator is DivisionByZero.
    """
    terms: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        head, var, power = term.partition("t")
        power = (power or "^1") if var else "^0"  # a bare t is t^1, a constant c*t^0
        digits = power[1:]
        if power[0] != "^" or not digits.isdecimal():
            raise DomainError(f"not a printed polynomial: {text!r}")
        if len(digits) > len(str(POWER_CAP)) or int(digits) > POWER_CAP:
            raise DomainError(f"power exceeds cap {POWER_CAP}")
        coeff = head + "1" if head in ("", "-") else head.removesuffix("*")
        terms[int(digits)] = parse_rational(coeff)
    coeffs = [0] * (max(terms) + 1)
    for power, coeff in terms.items():
        coeffs[power] = coeff
    value = Polynomial(coeffs)
    if str(value) != text:
        raise DomainError(f"not a printed polynomial: {text!r}")
    return value
