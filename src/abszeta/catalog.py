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
periods evaluated at s - d.  ``zeta_of_scheme`` recomputes the zeta both
ways (directly from the counting function and through the gamma product)
and insists the two factorizations agree before returning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import counting as cf
from .counting import CountingFunction
from .errors import NoFunctionalEquationError, ParameterRangeError
from .gammasine import MultiGammaSpec, PeriodVector, multiperiod_gamma
from .symzeta import FEParams, PowerProduct, zeta_of

SPEC_F1 = "SpecF1"
GM = "Gm"
GM_TENSOR = "GmTensor"
SL = "SL"
GL = "GL"
CUSTOM = "Custom"


@dataclass(frozen=True)
class SchemeKind:
    """One row of the scheme table: the name's regex (group 1 is r) and
    template, the least r (None: no r), and d(r) and periods(r), which give
    N(u) = u^d * prod over the periods w of (1 - u^-w)."""

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


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme the package knows how to count.

    ``r`` is the rank parameter for the parametric kinds (tensor power or
    matrix-group size); ``custom_counting`` carries the user-supplied
    counting function for kind ``Custom``.  The rank is checked, and the
    other properties are read, against the kind's row in :data:`SCHEMES`.
    """

    kind: str
    r: int | None = None
    custom_counting: CountingFunction | None = None

    def __post_init__(self):
        row = SCHEMES.get(self.kind)
        if row and row.min_r is not None and (
                not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < row.min_r):
            raise ParameterRangeError(
                f"{row.template.format(r='r')} needs an integer r >= {row.min_r}, got {self.r!r}")
        object.__setattr__(self, "_row", row)

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
        return PeriodVector(tuple(Fraction(w) for w in ws)) if ws else None


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
    n = cf.normalize([(row.dimension(spec.r), 1)])
    for w in row.periods(spec.r):
        n = cf.otimes(n, cf.normalize([(0, 1), (-w, -1)]))
    return n


def zeta_of_scheme(spec: SchemeSpec) -> PowerProduct:
    """Absolute zeta of a scheme, cross-checked through its gamma factorization.

    For schemes with a period vector the result must coincide with the
    multi-period gamma of the periods shifted by the dimension; a mismatch
    would mean the counting and gamma routes disagree, so it is treated as
    an internal error rather than a recoverable condition.
    """
    product = zeta_of(counting_of(spec))
    periods = spec.periods
    if periods is not None:
        g = multiperiod_gamma(MultiGammaSpec(order=-len(periods), periods=periods))
        via_gamma = g.shifted(spec.dimension, variable="s")
        if via_gamma.factors != product.factors:
            raise AssertionError(
                f"internal cross-check failed for {spec.name}: "
                f"counting route gives {product}, gamma route gives {via_gamma}")
    return product


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
