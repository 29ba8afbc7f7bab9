"""Parsing of exact values: only 'p/q' and 'p' in decimal digits."""

from fractions import Fraction

import pytest

from skeletron.valq import INF, NEG_INF, parse_extended, parse_rational


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), (" -2/6 ", Fraction(-1, 3)), ("+7/1", Fraction(7)),
    ("0/5", Fraction(0)),
])
def test_parse_rational_reads_p_q(text, value):
    got = parse_rational(text)
    assert type(got) is Fraction and got == value


@pytest.mark.parametrize("text", [
    "1e3", "1.5", "1_0", ".5", "1/2e3", "0x10", "1 / 2", "--1", "1/-2",
    "", "nan", "inf",
])
def test_parse_rational_rejects_other_literals(text):
    with pytest.raises(ValueError, match="must be 'p/q' or 'p' in digits"):
        parse_rational(text)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="^zero denominator in a rational"):
        parse_rational("1/0")


def test_parse_extended():
    assert parse_extended(" +inf") == INF
    assert parse_extended("-oo") == NEG_INF
    assert parse_extended("5/10") == Fraction(1, 2)
    for text in ("1e3", "1.5", "-inf/2"):
        with pytest.raises(ValueError):
            parse_extended(text)
