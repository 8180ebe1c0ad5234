"""Finite counting functions N(u) = sum of m(a) * u^a with exact rational data.

A counting function is a finite formal sum of rational powers of u with
rational multiplicities.  The direct sum adds term maps pointwise; the
tensor product multiplies values N1(u) * N2(u), i.e. convolves the
exponent maps.  Both operations keep the representation canonical:
terms sorted by descending exponent, zero multiplicities dropped.

A tensor product of k1 and k2 terms forms k1 * k2 term pairs, each a few
`Fraction` operations; :data:`MAX_TERM_PAIRS` bounds that work, so every
expansion either finishes in bounded time or raises ParameterRangeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Tuple

from .errors import DomainError, ParameterRangeError
from .rationals import as_rational, canonical_terms, qstr, signed_sum

TermPair = Tuple[Fraction, Fraction]

#: Expansion budget: the most term pairs one tensor product may form.  A pair
#: costs about 12 µs (integer exponents) to 22 µs (rational ones) on a 2-vCPU
#: x86 host with Python 3.11, so a product at the cap takes 1.5 to 3 s.
MAX_TERM_PAIRS = 2 ** 17


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
        return f"u^{qstr(a)}"
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


def _check_pairs(pairs: int, what: str) -> None:
    if pairs > MAX_TERM_PAIRS:
        raise ParameterRangeError(
            f"{what} exceeds the expansion budget of {MAX_TERM_PAIRS} term pairs")


def otimes(n1: CountingFunction, n2: CountingFunction) -> CountingFunction:
    """Tensor product: multiply the functions, i.e. convolve exponent maps."""
    _check_pairs(len(n1.terms) * len(n2.terms), "tensor product")
    return normalize((a1 + a2, m1 * m2) for a1, m1 in n1.terms for a2, m2 in n2.terms)


def tensor_power(n: CountingFunction, r: int) -> CountingFunction:
    """r-fold tensor power, r >= 1.

    A two-term base m1*u^a1 + m2*u^a2 (a1 > a2) expands by the binomial
    theorem: the term u^(j*a1 + (r-j)*a2) has multiplicity
    C(r, j) * m1^j * m2^(r-j), and those exponents are distinct and fall
    as j does.  Its r + 1 coefficients run to about r bits each, so it is
    charged the (r//2 + 1)^2 pairs of the last squaring it replaces.  Any
    other base is squared through :func:`otimes`, which checks its own pairs.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ParameterRangeError(f"tensor power needs an integer r >= 1, got {r!r}")
    if len(n.terms) == 2:
        _check_pairs((r // 2 + 1) ** 2, "tensor power of a binomial")
        (a1, m1), (a2, m2) = n.terms
        # C(r, 0), C(r, 1), ..., C(r, r), which by symmetry is C(r, j) for j = r .. 0
        binomials = accumulate(range(r), lambda c, i: c * (r - i) // (i + 1), initial=1)
        return CountingFunction(tuple((j * a1 + (r - j) * a2, c * m1 ** j * m2 ** (r - j))
                                      for j, c in zip(range(r, -1, -1), binomials)))
    result, square = None, n
    while True:
        if r & 1:
            result = square if result is None else otimes(result, square)
        r >>= 1
        if not r:
            return result
        square = otimes(square, square)


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
