"""Symbolic zeta layer: Hurwitz-type forms, factored power products, and
exact functional-equation checks.

For a finite counting function N(u) = sum m(a) u^a the associated
Hurwitz-type form is Z(w; s) = sum m(a) (s - a)^(-w), and the absolute
zeta function it regularizes is the finite power product
zeta(s) = prod (s - a)^(-m(a)), obtained by exponentiating the
w-derivative of Z at w = 0.  Z has N's term map, so N stands for it.
Because every object here is a finite sum or product with rational data,
functional equations can be decided exactly by comparing factor maps --
no floating point is involved; :func:`reflection_defect` also decides the sines.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from fractions import Fraction
from typing import Iterable

from .counting import MAX_PACKED_BITS, CountingFunction, TermMap, cancels, exact_sum
from .errors import (BranchCutWarning, ConvergenceError, DomainError, ParameterRangeError,
                     PoleError, PreconditionError)
from .rationals import as_rational, qstr, signed_sum
from .reports import Record

#: Largest relative rounding error :func:`eval_power_product` returns.
MAX_PRODUCT_ROUNDING = 1e-9


def _paren(variable: str, root: int, den: int) -> str:
    """Render the linear factor (variable - root / den) canonically."""
    if root == 0:
        return variable
    if root > 0:
        return f"({variable}-{qstr(root, den)})"
    return f"({variable}+{qstr(-root, den)})"


def hurwitz_str(n: CountingFunction, variable: str = "s") -> str:
    """Print the Hurwitz-type form of n, sum m(a) * (variable - a)^(-w),
    shift-descending (``s`` names zeta-side forms, ``x`` gamma-side ones)."""
    return signed_sum(n.pairs, n.mden, lambda a: f"{_paren(variable, a, n.den)}^-w")


class PowerProduct(TermMap):
    """Finite product of rational powers of linear factors.

    ``factors`` maps roots to exponents, root-ascending with nonzero
    exponents; the empty product is the constant 1.  The integer pairs
    (R, C) hold the roots R / den and the exponents C / mden.
    """

    __slots__ = ("factors", "variable")

    def __init__(self, factors: tuple[tuple[Fraction, Fraction], ...], variable: str = "s"):
        super().__init__(factors, variable)

    def factor_map(self) -> dict[Fraction, Fraction]:
        return dict(self.factors)

    def is_one(self) -> bool:
        return not self.pairs

    def exponent_sum(self) -> Fraction:
        return Fraction(sum([e for _, e in self.pairs]), self.mden)

    def times(self, other: "PowerProduct") -> "PowerProduct":
        return PowerProduct.merged([self, other], False, self.variable)

    def shifted(self, d, variable: str | None = None) -> "PowerProduct":
        """Substitute variable -> variable - d, i.e. move every root up by d."""
        d = as_rational(d)
        return normalize_power_product(((r + d, e) for r, e in self.factors),
                                       variable if variable is not None else self.variable)

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        return " * ".join(f"{_paren(self.variable, r, self.den)}^{qstr(e, self.mden)}"
                          for r, e in self.pairs)


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


def normalize_power_product(pairs: Iterable[tuple[object, object]], variable: str = "s") -> PowerProduct:
    """Canonicalize (root, exponent) pairs: merge, drop zeros, sort ascending."""
    return PowerProduct.canonical(pairs, False, variable)


def zeta_of(n: CountingFunction, variable: str = "s") -> PowerProduct:
    """Absolute zeta of a counting function: root a gets exponent -m(a)."""
    return PowerProduct.from_pairs(n.den, n.mden, [(a, -m) for a, m in reversed(n.pairs)],
                                   variable)


def _finite_complex(value, what: str) -> complex:
    z = complex(value)
    if not (cmath.isfinite(z)):
        raise DomainError(f"{what} must be finite, got {z}")
    return z


def eval_hurwitz(n: CountingFunction, w: complex, s: complex) -> complex:
    """Evaluate the Hurwitz form of n, sum m(a) * (s - a)^(-w), on principal branches;
    at s = a the term is 0 for Re w < 0, 1 at w = 0, else a PoleError.  At a real s - a < 0
    a real integer w takes (-1)^w |s - a|^(-w); else ConvergenceError when a finite phase
    w log(s - a) rounds by more than MAX_PRODUCT_ROUNDING.  At a real integer w and a real
    s, a sum that ``counting.cancels`` is taken in Fractions of s by ``counting.exact_sum``;
    at any other real w and real s, ConvergenceError when its rounding, eps sum |term|,
    exceeds MAX_PRODUCT_ROUNDING |sum|."""
    w = _finite_complex(w, "order w")
    s = _finite_complex(s, "argument s")
    integer_w = w.imag == 0 and w.real.is_integer()
    den, mden = n.den, n.mden
    total, size = 0j, 0.0
    try:
        for a, m in n.pairs:
            d = s - complex(a / den)
            if integer_w and d.imag == 0 and d.real < 0:
                term = m / mden * (-1.0 if w.real % 2 else 1.0) * (-d.real) ** -w.real
            elif d != 0:
                z = -w * cmath.log(d)
                if MAX_PRODUCT_ROUNDING < sys.float_info.epsilon * abs(z.imag) < math.inf:
                    raise ConvergenceError(f"the phase at shift {qstr(a, den)} is lost in rounding")
                term = m / mden * cmath.exp(z)
            elif w == 0:
                term = m / mden
            elif w.real < 0:
                continue
            else:
                raise PoleError(f"evaluation point {s} coincides with shift {qstr(a, den)}")
            total, size = total + term, size + abs(term)
        real, rounding = w.imag == 0 and s.imag == 0, sys.float_info.epsilon * size
        if real and integer_w and cancels(size, total):
            exact_s, k = Fraction(s.real), -int(w.real)
            total = complex(exact_sum([(m, exact_s - Fraction(a, den), k) for a, m in n.pairs],
                                      mden, f"the Hurwitz form at w={w}, s={s} cancels below "
                                      "float rounding"))
        elif real and rounding > MAX_PRODUCT_ROUNDING * abs(total):
            raise ConvergenceError(f"the Hurwitz form at w={w}, s={s} cancels: its rounding may "
                                   f"reach {rounding:.2e}, above {MAX_PRODUCT_ROUNDING:.0e} of "
                                   f"its value {abs(total):.2e}")
    except (OverflowError, ValueError):  # ValueError: cmath.exp of an infinite exponent
        total = complex(math.inf)
    return _finite_complex(total, f"the Hurwitz form's value at w={w}, s={s}")


def eval_power_product(p: PowerProduct, s: complex) -> complex:
    """Evaluate prod (s - root)^exp with principal branches.

    Raises :class:`PoleError` when s hits a root with negative exponent;
    returns 0 when it hits a root with positive exponent.  Emits
    :class:`BranchCutWarning` when a non-integer power is taken of a
    negative real number (the principal branch is used regardless).  At a
    real point with integer exponents the value is real, with its sign
    counted exactly; a value beyond the float range raises DomainError.
    The value is exp of sum e log(s - root).  When its rounding,
    eps sum |e log(s - root)|, exceeds :data:`MAX_PRODUCT_ROUNDING`, a real
    s with integer exponents takes :func:`_decimal_log_sum`, and any other s
    raises ConvergenceError.
    """
    s = _finite_complex(s, "argument s")
    den, mden = p.den, p.mden
    real = s.imag == 0 and mden == 1
    sign, log_sum, magnitude, zero_hit = 1.0, 0j, 0.0, False
    try:
        for r, e in p.pairs:
            d = s - complex(r / den)
            if d == 0:
                if e < 0:
                    raise PoleError(f"evaluation point {s} is a pole at root {qstr(r, den)}")
                zero_hit = True
                continue
            if e % mden and d.imag == 0 and d.real < 0:
                warnings.warn(
                    f"non-integer power {qstr(e, mden)} of negative real value {d.real}; "
                    "using the principal branch", BranchCutWarning, stacklevel=2)
            if real and d.real < 0 and e % 2:
                sign = -sign
            term = e / mden * cmath.log(d)
            log_sum += term
            magnitude += abs(term)
        if zero_hit:
            return 0j
        if sys.float_info.epsilon * magnitude <= MAX_PRODUCT_ROUNDING:
            value = complex(sign * math.exp(log_sum.real)) if real else cmath.exp(log_sum)
        elif real:
            value = complex(sign * _decimal_log_sum(p, Fraction(s.real), magnitude))
        else:
            raise ConvergenceError(
                f"the power product at s={s}: its log sum may be off by "
                f"{sys.float_info.epsilon * magnitude:.2e}; for a gamma, use --method integral")
    except OverflowError:
        value = complex(math.inf)
    return _finite_complex(value, f"the power product's value at s={s}")


def _decimal_log_sum(p: PowerProduct, s: Fraction, magnitude: float) -> float:
    """exp of sum e ln|s - root| over the integer exponents e, in decimal: each ln
    is of the exact |s - root| rounded once, at p = 20 + log10 W digits,
    W = (terms + 2) (magnitude + sum |e|), so that the sum rounds by at most
    W 10^(1 - p) <= 1e-19, below MAX_PRODUCT_ROUNDING; ParameterRangeError once p
    times the number of terms would pass MAX_PACKED_BITS log10 2 digits."""
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
    weight = (len(p.pairs) + 2) * (magnitude + sum([abs(e) for _, e in p.pairs]))
    prec = 20 + math.ceil(math.log10(weight))
    if prec * len(p.pairs) > MAX_PACKED_BITS * math.log10(2):
        raise ParameterRangeError(
            f"the power product at s={float(s)} cancels below float rounding, and its "
            f"decimal log sum exceeds {MAX_PACKED_BITS * math.log10(2):.0f} digits")
    # no traps: an exp beyond the float range reads inf or 0, as the float route's does
    with localcontext(Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])):
        total = Decimal(0)
        for r, e in p.pairs:
            d = abs(s - Fraction(r, p.den))
            total += e * (Decimal(d.numerator) / d.denominator).ln()
        return float(total.exp())


def _require_integer_exponents(p: PowerProduct, what: str) -> None:
    if p.mden > 1:
        r, e = next(pair for pair in p.pairs if pair[1] % p.mden)
        raise PreconditionError(f"{what} needs integer exponents, found {qstr(e, p.mden)} "
                                f"at root {qstr(r, p.den)}")


def reflected(p: PowerProduct, center) -> tuple[PowerProduct, int]:
    """Rewrite P(center - s) as sign * Q(s) with Q a power product in s.

    Each factor (center - s - root)^e contributes (-1)^e times
    (s - (center - root))^e, so all exponents must be integers; the
    returned sign is (-1) to the exponent sum.
    """
    center = as_rational(center)
    _require_integer_exponents(p, "reflection")
    den = math.lcm(center.denominator, p.den)
    c, k = center.numerator * (den // center.denominator), den // p.den
    q = PowerProduct.from_pairs(den, 1, [(c - r * k, e) for r, e in reversed(p.pairs)],
                                p.variable)
    sign = -1 if sum([e for _, e in p.pairs]) % 2 else 1
    return q, sign


def reflection_defect(exponents: dict[int, int], center: int, sign: int) -> dict[int, int]:
    """The nonzero entries of t -> sign * e(center - t) - e(t) for an integer
    exponent map e: empty iff the reflection t -> center - t reproduces e."""
    defect = {}
    for t, e in exponents.items():
        reflected = center - t
        d = sign * exponents.get(reflected, 0) - e
        if d:
            defect[t] = d
        if e and reflected not in exponents:  # a key e lacks
            defect[reflected] = sign * e
    return defect


def check_functional_equation(p: PowerProduct, fe: FEParams) -> FEReport:
    """Decide exactly whether P(s) = P(center - s)^sign holds identically.

    The equation holds iff the map {center - root -> sign * exponent}
    equals the original factor map (no :func:`reflection_defect`) and
    the exponent sum is even (an odd sum would flip the overall sign of
    the reflected product).  Requires integer exponents.  The maps are
    compared on the integer pairs, roots brought to L, the lcm of their
    denominator and the center's.
    """
    _require_integer_exponents(p, "functional-equation check")
    den = math.lcm(fe.center.denominator, p.den)
    center, k = fe.center.numerator * (den // fe.center.denominator), den // p.den
    original = dict(p.pairs) if k == 1 else {r * k: e for r, e in p.pairs}
    mismatches = [(Fraction(t, den), Fraction(original.get(t, 0)), Fraction(original.get(t, 0) + d))
                  for t, d in sorted(reflection_defect(original, center, fe.sign).items())]
    parity = sum(original.values())
    holds = not mismatches and parity % 2 == 0
    return FEReport(holds=holds, center=fe.center, sign=fe.sign,
                    parity_sum=parity, mismatches=tuple(mismatches))
