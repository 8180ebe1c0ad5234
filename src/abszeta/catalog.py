"""Catalog of schemes with known counting functions and functional equations.

Supported kinds:

* ``SpecF1``   -- the one-point scheme, N(u) = 1;
* ``Gm``       -- the multiplicative group, N(u) = u - 1;
* ``Gm^r``     -- its r-fold tensor power, N(u) = (u - 1)^r;
* ``SL(r)``    -- N(u) = u^(r^2-1) * prod_{j=2..r} (1 - u^-j);
* ``GL(r)``    -- N(u) = u^(r^2) * prod_{j=1..r} (1 - u^-j);
* ``Custom``   -- any counting function supplied by the caller.

Every named scheme other than SpecF1 has dimension d and a period vector
w, and its absolute zeta equals the multi-period gamma function of the
periods evaluated at s - d.  ``counting_of`` expands the product in one
call of ``counting.tensor_product``, a power per distinct period.
``zeta_of_scheme`` checks that expansion against the product by a route
that shares no code with it: both sides are evaluated exactly, as
integers, at |w| + 1 points, which decides the identity of two
polynomials of degree |w|.

A scheme's total period |w| is the degree of that polynomial, and the
rank budget :data:`MAX_TOTAL_PERIOD` caps it before anything is expanded.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from typing import Callable

from . import counting as cf
from .counting import CountingFunction
from .errors import NoFunctionalEquationError, ParameterRangeError
from .gammasine import MAX_PERIODS, PeriodVector
from .reports import Record
from .symzeta import FEParams, PowerProduct, zeta_of

#: Rank budget: the largest total period |w| of a scheme.  A catalog
#: scheme's periods are positive integers, so it has at most |w| of them,
#: and the period-vector cap is the same number.
MAX_TOTAL_PERIOD = MAX_PERIODS

SPEC_F1 = "SpecF1"
GM = "Gm"
GM_TENSOR = "GmTensor"
SL = "SL"
GL = "GL"
CUSTOM = "Custom"


class SchemeKind(Record):
    """One row of the scheme table: the name's regex (group 1 is r) and
    template, the least r (None: no r), and d(r) and periods(r), which give
    N(u) = u^d * prod over the periods w of (1 - u^-w)."""

    __slots__ = ("pattern", "template", "min_r", "dimension", "periods")
    pattern: re.Pattern
    template: str
    min_r: int | None
    dimension: Callable[[int | None], int]
    periods: Callable[[int | None], tuple[int, ...]]


SCHEMES: dict[str, SchemeKind] = {
    SPEC_F1: SchemeKind(re.compile(r"SpecF1\Z"), "SpecF1", None, lambda r: 0, lambda r: ()),
    GM: SchemeKind(re.compile(r"Gm\Z"), "Gm", None, lambda r: 1, lambda r: (1,)),
    GM_TENSOR: SchemeKind(re.compile(r"Gm\^(\d+)\Z"), "Gm^{r}", 1,
                          lambda r: r, lambda r: (1,) * r),
    SL: SchemeKind(re.compile(r"SL\((\d+)\)\Z"), "SL({r})", 2,
                   lambda r: r * r - 1, lambda r: tuple(range(2, r + 1))),
    GL: SchemeKind(re.compile(r"GL\((\d+)\)\Z"), "GL({r})", 1,
                   lambda r: r * r, lambda r: tuple(range(1, r + 1))),
}


class SchemeSpec(Record):
    """A scheme the package knows how to count.

    ``r`` is the rank parameter for the parametric kinds (tensor power or
    matrix-group size); ``custom_counting`` carries the user-supplied
    counting function for kind ``Custom``.  The rank is checked, and the
    other properties are read, against the kind's row in :data:`SCHEMES`.
    """

    __slots__ = ("kind", "r", "custom_counting")

    def __init__(self, kind: str, r: int | None = None,
                 custom_counting: CountingFunction | None = None):
        row = SCHEMES.get(kind)
        if row and row.min_r is not None:
            if not isinstance(r, int) or isinstance(r, bool) or r < row.min_r:
                raise ParameterRangeError(
                    f"{row.template.format(r='r')} needs an integer r >= {row.min_r}, got {r!r}")
            # |w| >= r for every parametric kind, so a larger r is refused unlisted
            if r > MAX_TOTAL_PERIOD or sum(row.periods(r)) > MAX_TOTAL_PERIOD:
                raise ParameterRangeError(
                    f"{row.template.format(r='r')} exceeds the rank budget: "
                    f"total period above {MAX_TOTAL_PERIOD}")
        super().__init__(kind, r, custom_counting)

    @property
    def _row(self) -> SchemeKind | None:
        return SCHEMES.get(self.kind)

    @property
    def name(self) -> str:
        return self._row.template.format(r=self.r) if self._row else "Custom"

    @property
    def dimension(self) -> int | None:
        """Dimension d (the top exponent of the counting function)."""
        return self._row.dimension(self.r) if self._row else None

    @property
    def rank(self) -> int | None:
        """Number of periods (the order magnitude of the gamma factor)."""
        return len(self._row.periods(self.r)) if self._row else None

    @property
    def periods(self) -> PeriodVector | None:
        ws = self._row.periods(self.r) if self._row else ()
        return PeriodVector(tuple([Fraction(w) for w in ws])) if ws else None


def spec_f1() -> SchemeSpec:
    return SchemeSpec(SPEC_F1)


def gm() -> SchemeSpec:
    return SchemeSpec(GM)


def gm_tensor(r: int) -> SchemeSpec:
    return SchemeSpec(GM_TENSOR, r)


def sl(r: int) -> SchemeSpec:
    return SchemeSpec(SL, r)


def gl(r: int) -> SchemeSpec:
    return SchemeSpec(GL, r)


def custom(n: CountingFunction) -> SchemeSpec:
    return SchemeSpec(CUSTOM, custom_counting=n)


def counting_of(spec: SchemeSpec) -> CountingFunction:
    """Counting function of a scheme: u^d * prod over the periods of (1 - u^-w)."""
    if spec.kind == CUSTOM:
        return spec.custom_counting
    row = SCHEMES.get(spec.kind)
    if row is None:
        raise ParameterRangeError(f"unknown scheme kind {spec.kind!r}")
    return cf.tensor_product([(cf.normalize([(row.dimension(spec.r), 1)]), 1)]
                             + [(cf.normalize([(0, 1), (-w, -1)]), k)
                                for w, k in Counter(row.periods(spec.r)).items()])


def zeta_of_scheme(spec: SchemeSpec) -> PowerProduct:
    """Absolute zeta of a scheme, cross-checked against its period product.

    For schemes with a period vector w and dimension d the counting
    function must be N(u) = u^d * prod (1 - u^-w_j): its lowest exponent
    is d - |w|, its span |w|, and u^(|w| - d) * N(u), a polynomial of
    degree |w| evaluated by Horner's rule, equals prod (u^w_j - 1) at the
    |w| + 1 points u = 2 .. |w| + 2.  Two polynomials of degree |w| that
    agree at that many points are equal (Schwartz 1980; Zippel 1979), so
    this decides the identity without sharing code with the expansion.  A
    mismatch would mean the counting route is wrong, so it is treated as
    an internal error rather than a recoverable condition.  The zeta is
    then the multi-period gamma of the periods shifted by d.
    """
    n = counting_of(spec)
    product = zeta_of(n)
    periods = spec.periods
    if periods is not None and not _matches_period_product(n, spec.dimension, periods):
        raise AssertionError(
            f"internal cross-check failed for {spec.name}: counting route gives {n}, "
            f"which is not u^{spec.dimension} * prod over {periods} of (1 - u^-w)")
    return product


def _matches_period_product(n: CountingFunction, d: int, periods: PeriodVector) -> bool:
    total = periods.total()
    if not n.terms or n.terms[-1][0] != d - total or n.terms[0][0] - n.terms[-1][0] != total:
        return False
    coefficients = [0] * (int(total) + 1)  # of u^(k + d - |w|), k = 0 .. |w|
    for a, m in n.terms:
        k = a - n.terms[-1][0]
        if k.denominator != 1 or m.denominator != 1:
            return False
        coefficients[k.numerator] = m.numerator
    multiplicity = Counter(int(w) for w in periods.periods)
    for u in range(2, len(coefficients) + 2):
        value = 0
        for c in reversed(coefficients):
            value = value * u + c
        if value != math.prod((u ** w - 1) ** k for w, k in multiplicity.items()):
            return False
    return True


def fe_params_of(spec: SchemeSpec) -> FEParams:
    """Functional-equation center and sign for schemes that have one.

    The center is 2d - |w| (dimension d, total period |w|) and the sign is
    (-1)^rank; SpecF1 and Custom schemes have no equation on record.
    """
    if spec.periods is None:
        raise NoFunctionalEquationError(f"no functional equation on record for {spec.name}")
    d = spec.dimension
    total = spec.periods.total()
    center = Fraction(2 * d) - total
    sign = -1 if spec.rank % 2 else 1
    return FEParams(center=center, sign=sign)


def catalog_entries() -> tuple[SchemeSpec, ...]:
    """Representative schemes shown by the CLI catalog listing."""
    return (
        spec_f1(),
        gm(),
        gm_tensor(2),
        gm_tensor(3),
        sl(2),
        sl(3),
        sl(4),
        gl(1),
        gl(2),
        gl(3),
    )
