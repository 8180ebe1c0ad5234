"""Multiple gamma and sine functions of negative integer order, exactly.

For negative integer order -r (r >= 1) the Hurwitz-type series
sum_n C(n - r - 1, n) (n + x)^(-w) terminates after r + 1 terms, because
the generalized binomial coefficients of -r vanish for n > r.  The
associated gamma function is therefore a finite product of linear
factors, and the companion sine function collapses to the constant 1.
That collapse is what drives every functional equation in the package:
a tensor-power zeta satisfies its reflection identity precisely because
the sine function of the matching negative order is trivial.

The multi-period variant replaces the single step 1 by positive periods
(w_1, ..., w_r); its gamma function is the alternating product of
(x + sum of S) to the power (-1)^(|S|+1) over all subsets S of the
periods, including the empty one.  It is built by a subset-sum recurrence
over the distinct sums, never by listing the 2^r subsets.  The sums are
integers over a common denominator L of the periods, and both sine
functions are one pass over them: the reflection maps the sum t to
L|w| - t (``symzeta.reflection_defect``, as for functional equations).
A :class:`PeriodVector` stores only L and its integer steps, its
``periods`` a Fraction view built on read, and the products hold the
surviving sums as integer pairs; no Fraction is built for them.

Two budgets bound the work: :data:`MAX_PERIODS` periods (the rank budget,
shared with the catalog), and :data:`MAX_SUBSET_STEPS` steps of the
recurrence, which periods with many distinct subset sums reach first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from . import counting
from .errors import ParameterRangeError
from .rationals import as_rational, qstr
from .reports import CheckReport, Record
from .symzeta import (FEParams, PowerProduct, check_functional_equation,
                      reflection_defect, zeta_of)

#: Rank budget: the most periods of a vector, and the largest order
#: magnitude r.  Gm^722, the largest catalog product it admits, packs into
#: 0.53 Mbit, an eighth of ``counting.MAX_PACKED_BITS`` (2^22 bits).
MAX_PERIODS = 722
#: Budget on the subset-sum recurrence of :func:`multiperiod_gamma`: r
#: periods with at most k distinct subset sums take at most r * k steps,
#: as many as ``catalog.zeta_of_scheme`` takes for Gm^MAX_PERIODS.
MAX_SUBSET_STEPS = MAX_PERIODS * (MAX_PERIODS + 1)


class PeriodVector(Record):
    """Nonempty tuple of positive rational periods, stored as their integer
    ``steps`` over their least common denominator ``den``; ``periods``
    reads them back as Fractions."""

    __slots__ = ("den", "steps")
    __match_args__ = ("periods",)

    def __init__(self, periods: tuple[Fraction, ...]):
        periods = tuple([as_rational(p) for p in periods])
        if not periods:
            raise ParameterRangeError("a period vector needs at least one period")
        if len(periods) > MAX_PERIODS:
            raise ParameterRangeError(f"at most {MAX_PERIODS} periods supported (the rank budget)")
        for p in periods:
            if p <= 0:
                raise ParameterRangeError(f"periods must be positive, got {qstr(p)}")
        den = math.lcm(*[p.denominator for p in periods])
        steps = tuple([p.numerator * (den // p.denominator) for p in periods])
        super().__init__(den, steps)
        # the subset sums are multiples of gcd(steps) in [0, sum(steps)]
        sums = min(2 ** len(steps), sum(steps) // math.gcd(*steps) + 1)
        if len(steps) * sums > MAX_SUBSET_STEPS:
            raise ParameterRangeError(
                f"{len(steps)} periods with up to {sums} distinct subset sums exceed the "
                f"budget of {MAX_SUBSET_STEPS} subset-sum steps")

    periods = property(lambda self: tuple([Fraction(s, self.den) for s in self.steps]),
                       doc="The periods as Fractions.")

    def __len__(self) -> int:
        return len(self.steps)

    def total(self) -> Fraction:
        return Fraction(sum(self.steps), self.den)

    def __str__(self) -> str:
        return "(" + ",".join(qstr(s, self.den) for s in self.steps) + ")"


def as_period_vector(periods: Iterable[object] | PeriodVector) -> PeriodVector:
    if isinstance(periods, PeriodVector):
        return periods
    return PeriodVector(tuple(periods))


class MultiGammaSpec(Record):
    """Order -r together with r positive periods."""

    __slots__ = ("order", "periods")

    def __init__(self, order: int, periods: PeriodVector):
        periods = as_period_vector(periods)
        if not isinstance(order, int) or isinstance(order, bool) or order >= 0:
            raise ParameterRangeError(f"order must be a negative integer, got {order!r}")
        if -order != len(periods):
            raise ParameterRangeError(
                f"order {order} needs exactly {-order} periods, got {len(periods)}")
        super().__init__(order, periods)


def _require_positive_order_magnitude(r: int) -> None:
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ParameterRangeError(f"order magnitude must be an integer >= 1, got {r!r}")
    if r > MAX_PERIODS:
        raise ParameterRangeError(f"order magnitude above {MAX_PERIODS} (the rank budget)")


def neg_gamma(r: int) -> PowerProduct:
    """Gamma function of order -r as a finite product in x.

    Exponentiating the w-derivative at w = 0 of the terminating series
    gives prod over n = 0..r of (x + n)^((-1)^(n+1) C(r, n)).
    """
    _require_positive_order_magnitude(r)
    return _product(_neg_gamma_exponents(r), 1)


def _neg_gamma_exponents(r: int) -> dict[int, int]:
    return {n: (-1) ** (n + 1) * math.comb(r, n) for n in range(r + 1)}


def _product(exponents: dict[int, int], den: int) -> PowerProduct:
    """The power product in x with the factor (x + t/den)^e for each key t
    and nonzero exponent e, root-ascending."""
    return PowerProduct.from_pairs(den, 1, sorted([(-t, e) for t, e in exponents.items() if e]),
                                   "x")


def neg_sine(r: int) -> PowerProduct:
    """Sine function of order -r: gamma(x)^(-1) * (gamma(-r - x))^((-1)^r).

    The reflection center -r is the order itself: the gamma factors sit at
    x, x+1, ..., x+r, and reflecting across -r permutes that list while
    negating the exponent pattern.  For every negative integer order the
    combination collapses to the empty product, i.e. the constant 1.

    A reflected factor (-r - x + n)^e is (-1)^e (x + r - n)^e, and the
    gamma's exponents sum to 0: the sine is their reflection defect across r.
    """
    _require_positive_order_magnitude(r)
    return _product(reflection_defect(_neg_gamma_exponents(r), r, (-1) ** r), 1)


def multiperiod_gamma(spec: MultiGammaSpec) -> PowerProduct:
    """Multi-period gamma of order -r: alternating product over period subsets.

    Each subset S of the periods contributes the factor
    (x + sum(S)) ^ ((-1)^(|S| + 1)); the empty subset contributes x^(-1).
    The subsets are never listed: the exponents are gathered per root
    -sum(S), folding in one period w at a time (a subset either leaves w
    out, or takes it, which moves the root by -w and flips the sign), so
    the work is r times the number of distinct subset sums.  The sums are
    kept as integers over a common denominator of the periods.  With all
    periods equal to 1 the subsets of equal size merge and this reduces
    to :func:`neg_gamma`.
    """
    return _product(subset_sum_exponents(spec.periods.steps), spec.periods.den)


def subset_sum_exponents(steps: Iterable[int]) -> dict[int, int]:
    """The map t -> sum of (-1)^(|S| + 1) over the subsets S of the integer
    steps with sum t, the exponent of (x + t) in their gamma; zeros may stay."""
    exponents: dict[int, int] = {0: -1}
    for w in steps:
        taken = [(t + w, -e) for t, e in exponents.items() if e]
        for t, e in taken:
            exponents[t] = exponents.get(t, 0) + e
    return exponents


def multiperiod_sine(spec: MultiGammaSpec) -> PowerProduct:
    """Multi-period sine: gamma(x)^(-1) * (gamma(-|w| - x))^((-1)^r).

    |w| is the total period, so -|w| is where the subset-sum roots fold
    onto themselves (the complement map S -> periods \\ S).  Trivial -- the
    constant 1 -- for every negative integer order.  Computed as in :func:`neg_sine`.
    """
    steps = spec.periods.steps
    return _product(reflection_defect(subset_sum_exponents(steps), sum(steps),
                                      (-1) ** len(steps)), spec.periods.den)


def tensor_power_fe_check(r: int) -> CheckReport:
    """Verify the functional equation of the r-fold tensor power of u - 1.

    The zeta function of (u - 1)^(tensor r) must satisfy
    P(s) = P(r - s)^((-1)^r), and the mechanism behind it is the
    triviality of the order -r sine function; both facts are checked
    exactly and reported together.
    """
    _require_positive_order_magnitude(r)
    n = counting.tensor_power(counting.U_MINUS_ONE, r)
    product = zeta_of(n)
    fe = FEParams(center=Fraction(r), sign=(-1) ** r)
    report = check_functional_equation(product, fe)
    sine_trivial = neg_sine(r).is_one()
    passed = report.holds and sine_trivial
    detail = (f"center={qstr(fe.center)}, sign={fe.sign:+d}, "
              f"sine of order {-r} trivial: {sine_trivial}")
    return CheckReport(
        name=f"tensor-power-{r} functional equation via trivial sine",
        passed=passed, value=1.0 if passed else 0.0, expected=1.0,
        tolerance=0.0, detail=detail)
