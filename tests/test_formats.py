"""Value text contracts: the parsers accept exactly the text the package prints."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cauchylu import (
    DivisionByZero,
    DomainError,
    parse_polynomial,
    parse_ratfunc,
    parse_value,
    serialize_value,
)

# Short strings over the printed alphabet.  Exponents stay at 3 digits or
# fewer: t^99999999 is canonical and builds a list of about 10^8 entries.
printed_alphabet = st.text(alphabet="0123456789t^*/+-() ", max_size=12).filter(
    lambda text: not re.search(r"\^[0-9]{4}", text)
)


@pytest.mark.parametrize(
    "text",
    [
        "1 2",
        "208+38",
        "t ^ 1 0",
        "1 + t",
        "t + t",
        "t^1",
        "1*t",
        "2*t^0",
        "2/4",
        "+3",
        "04",
        " 3 ",
        "(t)/(1)",
        "(1)/(4 - t^2)",
        "٣*t",
    ],
)
def test_parse_value_refuses_text_it_would_not_print(text):
    with pytest.raises(DomainError):
        parse_value(text)


@given(printed_alphabet)
def test_accepted_text_prints_back_identically(text):
    for parse, serialize in (
        (parse_value, serialize_value),
        (parse_polynomial, str),
        (parse_ratfunc, str),
    ):
        try:
            value = parse(text)
        except (DomainError, DivisionByZero):
            continue
        assert serialize(value) == text
