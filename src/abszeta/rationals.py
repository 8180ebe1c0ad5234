"""Exact rational scalars: coercion and printing.

All symbolic data in this package (exponents, multiplicities, roots,
shifts) is exact: `fractions.Fraction` scalars, and term maps held as
integers over common denominators (``counting.TermMap``), so algebraic
identities hold exactly.  Floats are deliberately rejected by the
coercion helper: converting a float silently would smuggle rounding
error into the exact layer.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable

from .errors import ParameterRangeError

Rational = Fraction


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or string like ``"-3/2"`` to a Fraction.

    A decimal exponent above ``sys.get_int_max_str_digits()`` (4300) in
    magnitude, which Fraction would expand in unbounded time, raises
    :class:`ParameterRangeError`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        digits = value.lower().partition("e")[2].rstrip().lstrip("+-").replace("_", "").lstrip("0")
        limit = sys.get_int_max_str_digits()
        if limit and digits.isdecimal() and (len(digits) > 18 or int(digits) > limit):
            raise ParameterRangeError(f"the decimal exponent of {value[:40]!r} exceeds {limit}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"expected int, str, or Fraction, got {type(value).__name__}")


def qstr(value: int | str | Fraction, den: int = 1) -> str:
    """Canonical rational string of value / den: ``"p"`` when the reduced
    denominator is 1, else ``"p/q"``.

    An integer part longer than ``str(int)`` prints (4300 digits by default)
    raises :class:`ParameterRangeError` naming its digit count.
    """
    q = as_rational(value) if den == 1 else Fraction(value, den)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        n = max(abs(q.numerator), q.denominator)
        k = int(n.bit_length() * 0.30102999566398120)  # log10(2): n has k or k + 1 digits
        raise ParameterRangeError(
            f"a number of {k + (n >= 10 ** k)} digits is too long to print "
            f"(the limit is {sys.get_int_max_str_digits()})") from None


def signed_sum(pairs: Iterable[tuple[int, int]], den: int, base) -> str:
    """Print (key, C) pairs as ``c0*b0 + b1 - c2*b2 ...``, the coefficients
    C / den, where ``base(key)`` renders a factor ("" for none); unit
    coefficients are left out."""
    pieces: list[str] = []
    for k, m in pairs:
        c = abs(m)
        b = base(k)
        body = qstr(c, den) if not b else b if c == den else f"{qstr(c, den)}*{b}"
        sign = ("" if m > 0 else "-") if not pieces else ("+ " if m > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"
