"""Exact rational scalars.

Exact rationals are the standard-library ``fractions.Fraction``: arbitrary
precision, always reduced, denominator positive, zero stored as 0/1 --
exactly the invariants the rest of the package relies on, so no wrapper
class is introduced.  What this module adds is the strict text format used
on every CLI/JSON surface: ``p/q`` in lowest terms, or ``p`` alone when the
denominator is 1.  Decimal and exponent notation are rejected outright so
nothing is ever rounded on the way in.

Python refuses ``str(n)`` and ``int(text)`` beyond a digit limit (4300 by
default, ``sys.set_int_max_str_digits``).  ``format_int`` and ``parse_int``
try the builtin first and, only when it refuses, convert in chunks that stay
under the limit, so exact values of any size print and parse back.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionByZero, DomainError

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:\s*/\s*([0-9]+))?")


def format_int(n: int) -> str:
    """``str(n)`` for an int of any size."""
    try:
        return str(n)
    except ValueError:  # over the digit limit: print two halves
        pass
    if n < 0:
        return "-" + format_int(-n)
    half = n.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(n, 10**half)
    return format_int(high) + format_int(low).zfill(half)


def parse_int(text: str) -> int:
    """``int(text)`` for a signed decimal string of any length."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not digits.isdigit():
            raise
    # Over the digit limit: parse two halves.
    sign = -1 if text[0] == "-" else 1
    half = len(digits) // 2
    return sign * (parse_int(digits[:-half]) * 10**half + parse_int(digits[-half:]))


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` in ASCII digits into an exact Fraction.

    This is the lenient reader of ``--t``: a sign, surrounding spaces and a
    fraction not in lowest terms are accepted (``parse_value`` accepts only
    the printed form).  Anything else (input that is not a str, decimals,
    exponents, a zero denominator) is an error.
    """
    if not isinstance(text, str):
        raise DomainError(f"not text: {text!r}")
    m = _RATIONAL_RE.fullmatch(text.strip())
    if not m:
        raise DomainError(f"not an exact rational 'p' or 'p/q': {text!r}")
    numerator = parse_int(m.group(1))
    denominator = parse_int(m.group(2)) if m.group(2) else 1
    if denominator == 0:
        raise DivisionByZero(f"zero denominator in {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction | int) -> str:
    """Lowest-terms text: ``p/q``, or just ``p`` when the denominator is 1.

    Only exact values are accepted: a float or a string is a DomainError.
    """
    if not isinstance(value, (int, Fraction)):
        raise DomainError(f"not an exact rational (int or Fraction): {value!r}")
    return format_ratio(value.numerator, value.denominator)


def format_ratio(numerator: int, denominator: int) -> str:
    """Text of numerator/denominator, already in lowest terms, denominator > 0."""
    if denominator == 1:
        return format_int(numerator)
    return f"{format_int(numerator)}/{format_int(denominator)}"
