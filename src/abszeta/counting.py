"""Finite counting functions N(u) = sum of m(a) * u^a with exact rational data.

A counting function is a finite formal sum of rational powers of u with
rational multiplicities.  The direct sum adds term maps pointwise; the
tensor product multiplies values N1(u) * N2(u), i.e. convolves the
exponent maps.  Both operations keep the representation canonical:
terms sorted by descending exponent, zero multiplicities dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .errors import DomainError, ParameterRangeError
from .rationals import as_rational, canonical_terms, qstr, signed_sum

TermPair = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CountingFunction:
    """Immutable finite map exponent -> multiplicity, exponent-descending.

    Instances should be built through :func:`normalize` (or the module
    constants / arithmetic operators), which guarantee the canonical
    ordering and absence of zero multiplicities.
    """

    terms: tuple[TermPair, ...]

    def as_dict(self) -> dict[Fraction, Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(a for a, _ in self.terms)

    def multiplicity(self, exponent) -> Fraction:
        target = as_rational(exponent)
        for a, m in self.terms:
            if a == target:
                return m
        return Fraction(0)

    def multiplicity_sum(self) -> Fraction:
        return sum((m for _, m in self.terms), Fraction(0))

    def weighted_multiplicity_sum(self) -> Fraction:
        """Sum of exponent * multiplicity over all terms."""
        return sum((a * m for a, m in self.terms), Fraction(0))

    def max_exponent(self) -> Fraction | None:
        return self.terms[0][0] if self.terms else None

    def __add__(self, other: "CountingFunction") -> "CountingFunction":
        return oplus(self, other)

    def __mul__(self, other: "CountingFunction") -> "CountingFunction":
        return otimes(self, other)

    def __pow__(self, r: int) -> "CountingFunction":
        return tensor_power(self, r)

    def __str__(self) -> str:
        """Render as an expression the package's parser accepts back."""
        return signed_sum(self.terms, _monomial)


def _monomial(a: Fraction) -> str:
    if a == 0:
        return ""
    if a == 1:
        return "u"
    if a.denominator == 1:
        return f"u^{a.numerator}"
    return f"u^({qstr(a)})"


def normalize(raw_terms: Iterable[tuple[object, object]]) -> CountingFunction:
    """Build a canonical counting function from (exponent, multiplicity) pairs.

    Pairs with equal exponents are merged; zero multiplicities are dropped;
    the result is sorted by descending exponent.
    """
    return CountingFunction(canonical_terms(raw_terms, descending=True))


def oplus(n1: CountingFunction, n2: CountingFunction) -> CountingFunction:
    """Direct sum: pointwise addition of the term maps."""
    return normalize(n1.terms + n2.terms)


def otimes(n1: CountingFunction, n2: CountingFunction) -> CountingFunction:
    """Tensor product: multiply the functions, i.e. convolve exponent maps."""
    return normalize((a1 + a2, m1 * m2) for a1, m1 in n1.terms for a2, m2 in n2.terms)


def tensor_power(n: CountingFunction, r: int) -> CountingFunction:
    """r-fold tensor power, r >= 1."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ParameterRangeError(f"tensor power needs an integer r >= 1, got {r!r}")
    result = n
    for _ in range(r - 1):
        result = otimes(result, n)
    return result


def eval_at(n: CountingFunction, u: float) -> float:
    """Evaluate N(u) for real u > 1 (rational exponents need a positive base)."""
    u = float(u)
    if not (math.isfinite(u) and u > 1.0):
        raise DomainError(f"counting functions are evaluated at finite u > 1, got u={u}")
    lu = math.log(u)
    total = 0.0
    try:
        for a, m in n.terms:
            if a.denominator == 1:
                # integer powers directly: keeps e.g. 4^3 - 4 at exactly 60.0
                total += float(m) * u ** a.numerator
            else:
                total += float(m) * math.exp(float(a) * lu)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"the value N(u) at u={u} must be finite, got {total}")
    return total


def eval_rational(n: CountingFunction, u) -> Fraction:
    """Exact evaluation at a rational point; requires integer exponents."""
    u = as_rational(u)
    total = Fraction(0)
    for a, m in n.terms:
        if a.denominator != 1:
            raise DomainError(f"exact evaluation needs integer exponents, found {qstr(a)}")
        if a < 0 and u == 0:
            raise DomainError("negative exponent at u = 0")
        total += m * u ** a.numerator
    return total


#: The zero function.
ZERO = CountingFunction(())
#: The constant function 1 (the one-point scheme).
ONE = normalize([(0, 1)])
#: The identity monomial u (the affine line counts u, its unit group u - 1).
U = normalize([(1, 1)])
#: u - 1, the counting function of the multiplicative group.
U_MINUS_ONE = normalize([(1, 1), (0, -1)])
