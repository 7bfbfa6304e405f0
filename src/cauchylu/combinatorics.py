"""Factorials, double factorials, binomials, and rising factorials.

These are the combinatorial atoms of every closed-form matrix entry and of
the t=1 product chain.  ``factorial`` and ``binomial`` delegate to the
standard library.  The closed forms of the factors also read 1/n! as 0 for
n < 0, since 1/Gamma vanishes at the nonpositive integers; ``entry_L`` and
``entry_U`` return that 0 by an index test, and verify checks the triangles.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import DomainError, require_at_least
from .polynomial import Polynomial
from .ratfunc import RationalFunction


def factorial(n: int) -> int:
    """Exact n! for an int n >= 0."""
    if not (isinstance(n, int) and n >= 0):
        require_at_least(0, n=n)
    return math.factorial(n)


def double_factorial(n: int) -> int:
    """n!! = n(n-2)...3*1 for odd n >= -1; (-1)!! is the empty product 1."""
    if not (isinstance(n, int) and n >= -1 and n % 2):
        require_at_least(-1, n=n)
        raise DomainError(f"double factorial needs odd n >= -1, got {n}")
    return math.prod(range(1, n + 1, 2))


def binomial(n: int, k: int) -> int:
    """n choose k for ints n >= 0 and k; 0 whenever k lies outside 0..n."""
    if not (isinstance(n, int) and isinstance(k, int) and n >= 0):
        require_at_least(0, n=n)
        require_at_least(None, k=k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rising_factorials(a, n: int):
    """The prefixes (a)_0, (a)_1, ..., (a)_n of the rising factorial, one
    factor at a time: (a)_m = a(a+1)...(a+m-1) in a's ring, and (a)_0 is
    the empty product 1.

    a is an exact element: an int, Fraction, Polynomial or RationalFunction;
    any other base, a float or complex included, raises DomainError.  This
    is how every Gamma-function ratio with integer offset is computed here
    -- as a finite product, never through floating point.  a and n are
    checked when this is called, not when the first prefix is read.
    """
    if not (isinstance(n, int) and n >= 0):
        require_at_least(0, n=n)
    if not isinstance(a, (int, Fraction, Polynomial, RationalFunction)):
        raise DomainError(f"rising factorial needs an exact base, got {a!r}")
    return accumulate((a + m for m in range(n)), mul, initial=a ** 0)


def rising_factorial(a, n: int):
    """The product a(a+1)...(a+n-1) in a's ring: the last of
    ``rising_factorials(a, n)``."""
    return deque(rising_factorials(a, n), maxlen=1).pop()
