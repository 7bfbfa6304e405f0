"""Value text contracts: the parsers accept exactly the text the package prints."""

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
from cauchylu.polynomial import POWER_CAP

# Short strings over the printed alphabet.
printed_alphabet = st.text(alphabet="0123456789t^*/+-() ", max_size=12)


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


@pytest.mark.parametrize(
    "text", [f"t^{POWER_CAP + 1}", "t^" + "9" * 12, f"(1)/(t^{POWER_CAP + 1} - 1)"]
)
def test_parse_value_refuses_a_power_past_the_cap(text):
    with pytest.raises(DomainError, match="exceeds cap"):
        parse_value(text)


def test_power_at_the_cap_round_trips():
    text = f"(1)/(t^{POWER_CAP} - 1)"
    assert serialize_value(parse_value(text)) == text


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
