"""Exact rational scalars and their serialized forms.

The whole package computes over ``fractions.Fraction``, which already
guarantees lowest terms, a positive denominator and value equality.
Files and reports carry rationals as strings ``"p/q"`` or ``"p"``;
anything float-shaped is rejected so that no approximation ever sneaks
into an exact pipeline.  Decimal renderings exist only for humans
and are clearly marked as approximate by the callers.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

from .errors import InputFormatError

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(value: object) -> Fraction:
    """Parse an ``int`` or a ``"p/q"`` / ``"p"`` string into a Fraction.

    Floats, decimal strings ("1.5") and scientific notation are rejected:
    only exact integer and ratio syntax in ASCII digits is allowed, with
    integers no longer than int() converts (sys.get_int_max_str_digits()).
    """
    if isinstance(value, bool):
        raise InputFormatError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise InputFormatError(
            f"float literal {value!r} rejected: use a rational string like \"3/2\"")
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise InputFormatError(
                f"malformed rational string {value!r}: expected \"p\" or \"p/q\"")
        num, _, den = text.partition("/")
        try:
            p, q = int(num), int(den or 1)
        except ValueError:
            raise InputFormatError(
                f"rational string of {len(text)} characters: an integer in it "
                f"has more than {sys.get_int_max_str_digits()} digits") from None
        if q == 0:
            raise InputFormatError(f"zero denominator in {value!r}")
        return Fraction(p, q)
    raise InputFormatError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"``, or ``"p"`` when the denominator is 1,
    at any length (see _decimal)."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """format_rational of num / den for integers, den > 0, with no
    Fraction: the ratio in lowest terms, at any length."""
    g = gcd(num, den)
    text = _decimal(num // g)
    return text if den == g else f"{text}/{_decimal(den // g)}"


def _decimal(n: int) -> str:
    """The decimal form of n, exactly, also past the interpreter's
    limit on int-to-str conversion (sys.get_int_max_str_digits()), which
    is left as it is.  Below 8**limit, so with at most limit digits, this
    is str(n); past it, n splits as divmod(n, 10**k) at about half its
    digits, and the lower half is zero-padded to k digits."""
    limit = sys.get_int_max_str_digits()
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def approx_decimal(value: Fraction, significant_digits: int = 12) -> str:
    """Decimal approximation to the given number of significant digits.

    Advisory output only -- never parsed back.
    """
    with localcontext() as ctx:
        ctx.prec = significant_digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))

