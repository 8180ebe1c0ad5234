"""Symbolic zeta layer: Hurwitz-type forms, factored power products, and
exact functional-equation checks.

For a finite counting function N(u) = sum m(a) u^a the associated
Hurwitz-type form is Z(w; s) = sum m(a) (s - a)^(-w), and the absolute
zeta function it regularizes is the finite power product
zeta(s) = prod (s - a)^(-m(a)), obtained by exponentiating the
w-derivative of Z at w = 0.  Because every object here is a finite sum
or product with rational data, functional equations can be decided
exactly by comparing factor maps -- no floating point is involved.
"""

from __future__ import annotations

import cmath
import math
import warnings
from fractions import Fraction
from typing import Iterable, Tuple

from .counting import CountingFunction
from .errors import BranchCutWarning, DomainError, PoleError, PreconditionError
from .rationals import as_rational, canonical_terms, qstr, signed_sum
from .reports import Record

ShiftPair = Tuple[Fraction, Fraction]
FactorPair = Tuple[Fraction, Fraction]


def _paren(variable: str, root: Fraction) -> str:
    """Render the linear factor (variable - root) canonically."""
    if root == 0:
        return variable
    if root > 0:
        return f"({variable}-{qstr(root)})"
    return f"({variable}+{qstr(-root)})"


class HurwitzForm(Record):
    """Finite sum of shifted inverse powers: sum coeff * (variable - shift)^(-w).

    Terms are kept shift-descending with nonzero coefficients; ``variable``
    names the evaluation variable in printed output (``s`` for zeta-side
    objects, ``x`` for gamma-side ones).
    """

    __slots__ = ("terms", "variable")

    def __init__(self, terms: tuple[ShiftPair, ...], variable: str = "s"):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "variable", variable)

    def as_dict(self) -> dict[Fraction, Fraction]:
        return dict(self.terms)

    def shifts(self) -> tuple[Fraction, ...]:
        return tuple(a for a, _ in self.terms)

    def __str__(self) -> str:
        return signed_sum(self.terms, lambda a: f"{_paren(self.variable, a)}^-w")


class PowerProduct(Record):
    """Finite product of rational powers of linear factors.

    ``factors`` maps roots to exponents, root-ascending with nonzero
    exponents; the empty product is the constant 1.
    """

    __slots__ = ("factors", "variable")

    def __init__(self, factors: tuple[FactorPair, ...], variable: str = "s"):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "variable", variable)

    def factor_map(self) -> dict[Fraction, Fraction]:
        return dict(self.factors)

    def is_one(self) -> bool:
        return not self.factors

    def roots(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.factors)

    def exponent_sum(self) -> Fraction:
        return sum((e for _, e in self.factors), Fraction(0))

    def inverse(self) -> "PowerProduct":
        return PowerProduct(tuple([(r, -e) for r, e in self.factors]), self.variable)

    def pow_int(self, k: int) -> "PowerProduct":
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError("integer power expected")
        return normalize_power_product(((r, k * e) for r, e in self.factors), self.variable)

    def times(self, other: "PowerProduct") -> "PowerProduct":
        return normalize_power_product(list(self.factors) + list(other.factors), self.variable)

    def shifted(self, d, variable: str | None = None) -> "PowerProduct":
        """Substitute variable -> variable - d, i.e. move every root up by d."""
        d = as_rational(d)
        return normalize_power_product(((r + d, e) for r, e in self.factors),
                                       variable if variable is not None else self.variable)

    def in_variable(self, variable: str) -> "PowerProduct":
        return PowerProduct(self.factors, variable)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{_paren(self.variable, r)}^{qstr(e)}" for r, e in self.factors)


class FEParams(Record):
    """Functional-equation data: expected center c and sign eps = +-1."""

    __slots__ = ("center", "sign")

    def __init__(self, center: Fraction, sign: int):
        center = as_rational(center)
        if sign not in (1, -1):
            raise DomainError(f"functional-equation sign must be +1 or -1, got {sign!r}")
        super().__init__(center, sign)


class FEReport(Record):
    """Outcome of an exact functional-equation check.

    ``holds`` is True when the reflected factor map reproduces the original
    one and the exponent sum is even (so the reflection carries no stray
    global sign).  ``mismatches`` lists (root, exponent, reflected exponent)
    triples where the two maps differ.
    """

    __slots__ = ("holds", "center", "sign", "parity_sum", "mismatches")

    def __init__(self, holds: bool, center: Fraction, sign: int, parity_sum: int,
                 mismatches: tuple[tuple[Fraction, Fraction, Fraction], ...]):
        super().__init__(holds, center, sign, parity_sum, mismatches)


def normalize_hurwitz(pairs: Iterable[tuple[object, object]], variable: str = "s") -> HurwitzForm:
    """Canonicalize (shift, coeff) pairs: merge, drop zeros, sort descending."""
    return HurwitzForm(canonical_terms(pairs, descending=True), variable)


def normalize_power_product(pairs: Iterable[tuple[object, object]], variable: str = "s") -> PowerProduct:
    """Canonicalize (root, exponent) pairs: merge, drop zeros, sort ascending."""
    return PowerProduct(canonical_terms(pairs, descending=False), variable)


def hurwitz_of(n: CountingFunction, variable: str = "s") -> HurwitzForm:
    """Hurwitz-type form of a counting function: shift a gets coefficient m(a)."""
    return HurwitzForm(n.terms, variable)


def zeta_of(n: CountingFunction, variable: str = "s") -> PowerProduct:
    """Absolute zeta of a counting function: root a gets exponent -m(a)."""
    return PowerProduct(tuple([(a, -m) for a, m in reversed(n.terms)]), variable)


def counting_of_product(p: PowerProduct) -> CountingFunction:
    """Inverse of :func:`zeta_of`: recover the counting function from a product."""
    return CountingFunction(tuple([(r, -e) for r, e in reversed(p.factors)]))


def _finite_complex(value, what: str) -> complex:
    z = complex(value)
    if not (cmath.isfinite(z)):
        raise DomainError(f"{what} must be finite, got {z}")
    return z


def eval_hurwitz(z: HurwitzForm, w: complex, s: complex) -> complex:
    """Evaluate sum m * (s - shift)^(-w) with principal branches."""
    w = _finite_complex(w, "order w")
    s = _finite_complex(s, "argument s")
    total = 0j
    try:
        for a, m in z.terms:
            d = s - complex(float(a))
            if d == 0:
                raise PoleError(f"evaluation point {s} coincides with shift {qstr(a)}")
            total += float(m) * cmath.exp(-w * cmath.log(d))
    except OverflowError:
        total = complex(math.inf)
    return _finite_complex(total, f"the Hurwitz form's value at w={w}, s={s}")


def eval_hurwitz_exact(z: HurwitzForm, w: int, x) -> Fraction:
    """Exact rational evaluation of sum m * (x - shift)^(-w) for integer w.

    For w <= 0 the powers are polynomials, so any rational x is fine; for
    w > 0 the point must avoid every shift.
    """
    if not isinstance(w, int) or isinstance(w, bool):
        raise DomainError(f"exact evaluation needs an integer order, got {w!r}")
    x = as_rational(x)
    total = Fraction(0)
    for a, m in z.terms:
        d = x - a
        if d == 0 and w > 0:
            raise PoleError(f"evaluation point {qstr(x)} coincides with shift {qstr(a)}")
        total += m * d ** (-w)
    return total


def eval_power_product(p: PowerProduct, s: complex) -> complex:
    """Evaluate prod (s - root)^exp with principal branches.

    Raises :class:`PoleError` when s hits a root with negative exponent;
    returns 0 when it hits a root with positive exponent.  Emits
    :class:`BranchCutWarning` when a non-integer power is taken of a
    negative real number (the principal branch is used regardless).  At a
    real point with integer exponents the value is real, with its sign
    counted exactly; a value beyond the float range raises DomainError.
    """
    s = _finite_complex(s, "argument s")
    real = s.imag == 0 and all(e.denominator == 1 for _, e in p.factors)
    sign, log_sum, zero_hit = 1.0, 0j, False
    try:
        for r, e in p.factors:
            d = s - complex(float(r))
            if d == 0:
                if e < 0:
                    raise PoleError(f"evaluation point {s} is a pole at root {qstr(r)}")
                zero_hit = True
                continue
            if e.denominator != 1 and d.imag == 0 and d.real < 0:
                warnings.warn(
                    f"non-integer power {qstr(e)} of negative real value {d.real}; "
                    "using the principal branch", BranchCutWarning, stacklevel=2)
            if real and d.real < 0 and e.numerator % 2:
                sign = -sign
            log_sum += float(e) * cmath.log(d)
        if zero_hit:
            return 0j
        value = complex(sign * math.exp(log_sum.real)) if real else cmath.exp(log_sum)
    except OverflowError:
        value = complex(math.inf)
    return _finite_complex(value, f"the power product's value at s={s}")


def log_derivative_at_zero(z: HurwitzForm, s: complex) -> complex:
    """d/dw at w = 0 of the Hurwitz-type form: -sum m * log(s - shift).

    This is the principal logarithm of the associated power product, so
    exp of it recovers the absolute zeta value.
    """
    s = _finite_complex(s, "argument s")
    total = 0j
    for a, m in z.terms:
        d = s - complex(float(a))
        if d == 0:
            raise PoleError(f"evaluation point {s} coincides with shift {qstr(a)}")
        total += -float(m) * cmath.log(d)
    return total


def _require_integer_exponents(p: PowerProduct, what: str) -> None:
    for r, e in p.factors:
        if e.denominator != 1:
            raise PreconditionError(
                f"{what} needs integer exponents, found {qstr(e)} at root {qstr(r)}")


def reflected(p: PowerProduct, center) -> tuple[PowerProduct, int]:
    """Rewrite P(center - s) as sign * Q(s) with Q a power product in s.

    Each factor (center - s - root)^e contributes (-1)^e times
    (s - (center - root))^e, so all exponents must be integers; the
    returned sign is (-1) to the exponent sum.
    """
    center = as_rational(center)
    _require_integer_exponents(p, "reflection")
    q = normalize_power_product(((center - r, e) for r, e in p.factors), p.variable)
    sign = -1 if p.exponent_sum() % 2 else 1
    return q, sign


def check_functional_equation(p: PowerProduct, fe: FEParams) -> FEReport:
    """Decide exactly whether P(s) = P(center - s)^sign holds identically.

    The equation holds iff the map
    {center - root -> sign * exponent} equals the original factor map and
    the exponent sum is even (an odd sum would flip the overall sign of
    the reflected product).  Requires integer exponents.  The maps are
    compared on integers: roots times L, the lcm of the denominators of
    the roots and the center, and the exponents' numerators.
    """
    _require_integer_exponents(p, "functional-equation check")
    den = math.lcm(fe.center.denominator, *[r.denominator for r, _ in p.factors])
    center = fe.center.numerator * (den // fe.center.denominator)
    original = {r.numerator * (den // r.denominator): e.numerator for r, e in p.factors}
    transformed = {center - t: fe.sign * e for t, e in original.items()}
    mismatches = [(Fraction(t, den), Fraction(original.get(t, 0)), Fraction(transformed.get(t, 0)))
                  for t in sorted(original.keys() | transformed.keys())
                  if original.get(t, 0) != transformed.get(t, 0)]
    parity = sum(original.values())
    holds = not mismatches and parity % 2 == 0
    return FEReport(holds=holds, center=fe.center, sign=fe.sign,
                    parity_sum=parity, mismatches=tuple(mismatches))
