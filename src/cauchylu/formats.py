"""Canonical text for exact values, and the matching parser.

Values print minimally: rationals as ``p/q`` (or ``p``), polynomial-valued
rational functions as the bare polynomial, proper quotients as
``(num)/(den)``.  ``parse_value`` accepts exactly that text: it returns a
value only when ``serialize_value`` prints it back as the same string, so
``2/4``, ``+3``, `` 3 ``, ``1 + t``, ``(t)/(1)`` and input that is not a str
are DomainErrors.  The parse result may land in a wider field (``"1"``
parses as a Fraction even if it came from a RationalFunction), and
cross-field equality handles that.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .polynomial import Polynomial
from .ratfunc import RationalFunction, parse_ratfunc
from .rational import format_rational, parse_rational


def serialize_value(value) -> str:
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, (Polynomial, RationalFunction)):
        return str(value)
    raise DomainError(f"cannot serialize {value!r}")


def parse_value(text: str) -> Fraction | RationalFunction:
    """Parse any serialized exact value, preferring the narrowest field."""
    try:
        value = parse_rational(text)
    except DomainError:
        return parse_ratfunc(text)
    if format_rational(value) != text:
        raise DomainError(f"not a printed rational: {text!r}")
    return value
