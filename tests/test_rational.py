import sys
from fractions import Fraction

import pytest

from minproj.errors import InputFormatError
from minproj.rational import approx_decimal, format_rational, parse_rational


def test_parse_ints_and_strings():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational(-2) == Fraction(-2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("+4/2") == Fraction(2)
    assert parse_rational(" 5/3 ") == Fraction(5, 3)
    assert parse_rational(Fraction(9, 4)) == Fraction(9, 4)


@pytest.mark.parametrize("bad", [
    1.5, True, False, "1.5", "1e3", "3/0", "a/b", "1/2/3", "", None, [1],
    # decimal digits of other scripts, which int() would read as 3/4 and 3
    "３/４", "٣",
])
def test_parse_rejects(bad):
    with pytest.raises(InputFormatError):
        parse_rational(bad)


def test_parse_rejects_integers_past_the_conversion_limit():
    digits = sys.get_int_max_str_digits()
    assert parse_rational("7" * digits) == int("7" * digits)
    for text in ("7" * (digits + 1), "1/" + "7" * (digits + 1)):
        with pytest.raises(InputFormatError, match=f"more than {digits} digits"):
            parse_rational(text)


def test_format_round_trip():
    for p in range(-12, 13):
        for q in range(1, 9):
            x = Fraction(p, q)
            assert parse_rational(format_rational(x)) == x
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-3, 2)) == "-3/2"


def test_approx_decimal_significant_digits():
    assert approx_decimal(Fraction(4, 3)) == "1.33333333333"
    assert approx_decimal(Fraction(1, 3)) == "0.333333333333"
    assert approx_decimal(Fraction(2)) == "2"
    assert approx_decimal(Fraction(-8, 5)) == "-1.6"
    assert approx_decimal(Fraction(1, 7), significant_digits=5) == "0.14286"



def test_format_past_the_conversion_limit():
    # integers with more digits than str() converts are printed exactly,
    # and the limit is left as it is
    limit = sys.get_int_max_str_digits()
    high, low = "4" * (limit - 2), "0" * 5 + "7" * (limit - 6)
    n = int(high) * 10 ** (limit - 1) + int(low)
    assert format_rational(Fraction(n)) == high + low
    assert format_rational(Fraction(-n, 10)) == "-" + high + low + "/10"
    assert format_rational(Fraction(1, 10 ** (3 * limit))) == "1/1" + "0" * (3 * limit)
    assert sys.get_int_max_str_digits() == limit
