"""Double-exponential quadrature over the half line with an enforced error budget.

The integrator is the exp-sinh rule of Takahasi and Mori (Publ. RIMS Kyoto
Univ. 9 (1974) 721-741): the substitution t = scale * exp(pi/2 sinh tau)
maps (0, inf) onto the whole tau line, and turns an algebraic endpoint at
0 and exponential decay at infinity into terms that fall off double
exponentially in |tau|, so the trapezoidal rule in tau converges fast and
needs no cutoff of the range.  The step halves from 1 to 1/128, each level
adding only the odd nodes, until two successive levels agree within the
budget, from step 1/8 on: steps 1/2 and 1/4 can agree while both are off by
more than it.  ``scale`` is the decay length of the integrand, which its caller
knows; it puts the nodes where the mass is.

An endpoint t^(beta - 1) with beta < 1 gives terms that fall off only like
exp(-beta pi/2 sinh|tau|), too slowly to meet a tight budget within the
float range, so callers integrate such an endpoint by parts once, which
leaves t^beta.  Trouble (terms still above the budget at the end of the
node table, a non-finite integrand value, levels that still disagree at the
finest step, a budget below the rounding of the value) is a
ConvergenceError.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from typing import Callable

from .errors import ConvergenceError, DomainError
from .reports import Record

#: The finest step is 1 / 2^LEVELS; the nodes have |tau| <= TAU_MAX, where
#: exp(pi/2 sinh tau) is about 1e137.
LEVELS = 7
TAU_MAX = 6
#: A budget below this share of the value is below the rounding of the sum.
_ROUNDOFF = 50.0 * sys.float_info.epsilon


class QuadSettings(Record):
    """Error budget for one integration task: the absolute tolerance ``tol``
    that :func:`integrate` holds each integral to."""

    __slots__ = ("tol",)

    def __init__(self, tol: float = 1e-10):
        if not (tol > 0.0 and math.isfinite(tol)):
            raise DomainError(f"tolerance must be positive and finite, got {tol}")
        super().__init__(tol)


@cache
def _nodes(level: int) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """The nodes a level adds: u = exp(pi/2 sinh tau) with its weight
    du/dtau = pi/2 cosh(tau) u, as (u, weight) pairs for tau > 0 ascending
    and for tau < 0 descending.  Level 0 has |tau| = 1, 2, ..., TAU_MAX and
    level l >= 1 the odd multiples of 2^-l.  Each level is built on first
    use, so that import and the coarse levels do not pay for the fine ones."""
    h = 2.0 ** -level
    sides = ([], [])
    for k in range(1, TAU_MAX * 2 ** level + 1, 1 if level == 0 else 2):
        for nodes, tau in zip(sides, (k * h, -k * h)):
            u = math.exp(math.pi / 2 * math.sinh(tau))
            nodes.append((u, math.pi / 2 * math.cosh(tau) * u))
    return sides


def _walk(f: Callable[[float], float], scale: float, nodes: list[tuple[float, float]],
          threshold: float) -> tuple[float, int]:
    """Sum weight * f(scale u) outward over one side's level-0 nodes until
    two successive terms fall below threshold.  Returns the sum and the
    |tau| of the first of those two, where the finer levels stop."""
    total = 0.0
    quiet = False
    for k, (u, weight) in enumerate(nodes):
        term = weight * f(scale * u)
        total += term
        if abs(term) < threshold:
            if quiet:
                return total, k
            quiet = True
        elif math.isfinite(term):
            quiet = False
        else:
            raise FloatingPointError  # integrate reports the non-finite value
    raise ConvergenceError(
        f"quadrature: terms are still above {scale * threshold:.2e} at t = "
        f"{scale * nodes[-1][0]:.3g}, the end of the node table")


def integrate(f: Callable[[float], float], scale: float, epsabs: float) -> float:
    """Integrate f over (0, inf) to absolute accuracy epsabs.

    f should decay exponentially over a length about ``scale`` and behave
    like t^(beta - 1), beta >= 1, at 0.  Each side of tau ends after two
    successive weighted terms at step 1 fall below epsabs / 1000; the finer
    levels fill in the nodes before the first of them.  Raises
    :class:`ConvergenceError` if the terms are still above that at the
    table's end, if f takes a non-finite value, if two levels still
    disagree at the finest step, or if the budget is below the rounding of
    the value; :class:`DomainError` for a scale that is not positive and
    finite.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise DomainError(f"quadrature needs a positive finite scale, got {scale}")
    threshold = epsabs / (1000.0 * scale)  # on weight * f, so that the term is below epsabs / 1000
    try:
        pos_nodes, neg_nodes = _nodes(0)
        pos, n_pos = _walk(f, scale, pos_nodes, threshold)
        neg, n_neg = _walk(f, scale, neg_nodes, threshold)
        total = math.pi / 2 * f(scale) + pos + neg
        previous = scale * total
        for level in range(1, LEVELS + 1):
            pos_nodes, neg_nodes = _nodes(level)
            shift = level - 1
            added = 0.0  # summed apart from total, which is larger: less rounding
            for u, weight in pos_nodes[:n_pos << shift] + neg_nodes[:n_neg << shift]:
                added += weight * f(scale * u)
            total += added
            estimate = scale * total / (1 << level)
            change = abs(estimate - previous)
            if not math.isfinite(estimate):
                break
            if level >= 3 and change <= epsabs:
                if epsabs < _ROUNDOFF * abs(estimate):
                    raise ConvergenceError(
                        f"quadrature: the budget {epsabs:.2e} is below the rounding error "
                        f"of the value {estimate:.6g}")
                return estimate
            previous = estimate
    except ArithmeticError:
        estimate = math.nan
    if not math.isfinite(estimate):
        raise ConvergenceError("quadrature: the integrand is not finite at some node")
    raise ConvergenceError(
        f"quadrature: levels still differ by {change:.2e} at step "
        f"1/{1 << LEVELS}, above the budget {epsabs:.2e}")
