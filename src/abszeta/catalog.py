"""Catalog of schemes with known counting functions and functional equations.

Supported kinds:

* ``SpecF1``   -- the one-point scheme, N(u) = 1;
* ``Gm``       -- the multiplicative group, N(u) = u - 1;
* ``Gm^r``     -- its r-fold tensor power, N(u) = (u - 1)^r;
* ``SL(r)``    -- N(u) = u^(r^2-1) * prod_{j=2..r} (1 - u^-j);
* ``GL(r)``    -- N(u) = u^(r^2) * prod_{j=1..r} (1 - u^-j).

Every named scheme other than SpecF1 has dimension d and a period vector
w, and its absolute zeta equals the multi-period gamma function of the
periods evaluated at s - d.  The product is expanded on integers, a power
per distinct period, and checked by ``zeta_of_scheme`` against the gamma's
exponent map from the subset-sum recurrence of ``gammasine``, which shares
no expansion code with it.  The counting function and the zeta hold the
expansion's integer pairs; their Fractions are built only if read.

A scheme's total period |w| is the degree of its counting function; the
rank budget :data:`MAX_TOTAL_PERIOD` caps it before anything is expanded.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from typing import Callable

from . import counting as cf
from .counting import CountingFunction
from .errors import NoFunctionalEquationError, ParameterRangeError
from .gammasine import MAX_PERIODS, PeriodVector, subset_sum_exponents
from .reports import Record
from .symzeta import FEParams, PowerProduct

#: Rank budget: the largest total period |w| of a scheme.  A catalog
#: scheme's periods are positive integers, so it has at most |w| of them,
#: and the period-vector cap is the same number.
MAX_TOTAL_PERIOD = MAX_PERIODS

SPEC_F1 = "SpecF1"
GM = "Gm"
GM_TENSOR = "GmTensor"
SL = "SL"
GL = "GL"


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

    ``kind`` names a row of :data:`SCHEMES`, against which the rank
    parameter ``r`` (tensor power or matrix-group size) is checked and from
    which the rest is read.
    """

    __slots__ = ("kind", "r")

    def __init__(self, kind: str, r: int | None = None):
        row = SCHEMES.get(kind)
        if row is None:
            raise ParameterRangeError(f"unknown scheme kind {kind!r}")
        if row.min_r is not None:
            if not isinstance(r, int) or isinstance(r, bool) or r < row.min_r:
                raise ParameterRangeError(
                    f"{row.template.format(r='r')} needs an integer r >= {row.min_r}, got {r!r}")
            # |w| >= r for every parametric kind, so a larger r is refused unlisted
            if r > MAX_TOTAL_PERIOD or sum(row.periods(r)) > MAX_TOTAL_PERIOD:
                raise ParameterRangeError(
                    f"{row.template.format(r='r')} exceeds the rank budget: "
                    f"total period above {MAX_TOTAL_PERIOD}")
        super().__init__(kind, r)

    @property
    def _row(self) -> SchemeKind:
        return SCHEMES[self.kind]

    @property
    def name(self) -> str:
        return self._row.template.format(r=self.r)

    @property
    def dimension(self) -> int:
        """Dimension d (the top exponent of the counting function)."""
        return self._row.dimension(self.r)

    @property
    def rank(self) -> int:
        """Number of periods (the order magnitude of the gamma factor)."""
        return len(self._row.periods(self.r))

    @property
    def periods(self) -> PeriodVector | None:
        ws = self._row.periods(self.r)
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


def _expansion(spec: SchemeSpec) -> list[tuple[int, int]]:
    """The integer terms (E, C) of N(u), exponent-descending."""
    row = SCHEMES[spec.kind]
    return cf.integer_product([([(row.dimension(spec.r), 1)], 1)]
                              + [([(0, 1), (-w, -1)], k)
                                 for w, k in Counter(row.periods(spec.r)).items()])


def counting_of(spec: SchemeSpec) -> CountingFunction:
    """Counting function of a scheme: u^d * prod over the periods of (1 - u^-w)."""
    return CountingFunction.from_pairs(1, 1, _expansion(spec))


def zeta_of_scheme(spec: SchemeSpec) -> PowerProduct:
    """Absolute zeta of a scheme, cross-checked against the paper's identity.

    For a scheme with periods w and dimension d the zeta of
    N(u) = u^d * prod (1 - u^-w_j) is the multi-period gamma of w at s - d.
    The term u^E of multiplicity C of the expansion is the zeta's factor
    (s - E)^-C, and the gamma's factor (x + t)^e is (s - d + t)^e: the two
    integer maps must agree.  A mismatch would mean one route is wrong, so
    it is an internal error rather than a recoverable condition.
    """
    terms = _expansion(spec)
    row = SCHEMES[spec.kind]
    periods = row.periods(spec.r)
    if periods:
        d = row.dimension(spec.r)
        gamma = {d - t: e for t, e in subset_sum_exponents(periods).items() if e}
        if {e: -c for e, c in terms} != gamma:
            raise AssertionError(
                f"internal cross-check failed for {spec.name}: counting route gives "
                f"{CountingFunction.from_pairs(1, 1, terms)}, whose zeta is not the gamma of the "
                f"periods {spec.periods} at s - {d}")
    return PowerProduct.from_pairs(1, 1, [(e, -c) for e, c in reversed(terms)], "s")


def fe_params_of(spec: SchemeSpec) -> FEParams:
    """Functional-equation center and sign for schemes that have one.

    The center is 2d - |w| (dimension d, total period |w|) and the sign is
    (-1)^rank; SpecF1 has no equation on record.
    """
    periods = spec._row.periods(spec.r)
    if not periods:
        raise NoFunctionalEquationError(f"no functional equation on record for {spec.name}")
    return FEParams(center=Fraction(2 * spec.dimension - sum(periods)),
                    sign=-1 if len(periods) % 2 else 1)


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
