"""Adaptive Gauss-Kronrod quadrature with an enforced error budget.

The integrator is QUADPACK's QAG scheme (Piessens et al., 1983) with the
7-point Gauss / 15-point Kronrod pair: every panel carries the Kronrod
value and the ``qk15`` error estimate, and the panel with the largest
estimate is bisected until the summed estimate meets the budget or the
subdivision limit is spent.  Callers pass plain callables and finite
panels; endpoint singularities are handled upstream by explicit
substitutions, so the integrator only needs to enforce the budget and
turn trouble (an unmet budget, a non-finite integrand value) into
ConvergenceError.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

from .errors import ConvergenceError, DomainError
from .reports import Record

#: QUADPACK's qk15 constants: the positive Kronrod abscissae on [-1, 1]
#: (X2, X4, X6 and the centre are the 7-point Gauss nodes), the Kronrod
#: weights K1..K7 and K8 at the centre, and the Gauss weights G2, G4, G6 and
#: G8 at the centre.
X1, X2, X3, X4, X5, X6, X7 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245)
K1, K2, K3, K4, K5, K6, K7, K8 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
G2, G4, G6, G8 = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_ROUNDOFF = 50.0 * sys.float_info.epsilon


class QuadSettings(Record):
    """Error budget for one integration task.

    Infinite ranges are cut by each integrand's caller, from its own tail
    bound; each panel integral gets :func:`integrate`'s subdivision limit.
    """

    __slots__ = ("tol",)

    def __init__(self, tol: float = 1e-10):
        if not (tol > 0.0 and math.isfinite(tol)):
            raise DomainError(f"tolerance must be positive and finite, got {tol}")
        super().__init__(tol)


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """One G7K15 panel as a heap entry (-error estimate, a, b, Kronrod value).

    Written out node by node: this is the integrator's inner loop.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    l1 = f(c - h * X1); r1 = f(c + h * X1)
    l2 = f(c - h * X2); r2 = f(c + h * X2)
    l3 = f(c - h * X3); r3 = f(c + h * X3)
    l4 = f(c - h * X4); r4 = f(c + h * X4)
    l5 = f(c - h * X5); r5 = f(c + h * X5)
    l6 = f(c - h * X6); r6 = f(c + h * X6)
    l7 = f(c - h * X7); r7 = f(c + h * X7)
    s2, s4, s6 = l2 + r2, l4 + r4, l6 + r6
    resk = (K1 * (l1 + r1) + K2 * s2 + K3 * (l3 + r3) + K4 * s4
            + K5 * (l5 + r5) + K6 * s6 + K7 * (l7 + r7) + K8 * fc)
    if not math.isfinite(resk):
        raise ConvergenceError(f"quadrature on [{a}, {b}]: integrand is not finite there")
    m = 0.5 * resk
    resasc = h * (K1 * (abs(l1 - m) + abs(r1 - m)) + K2 * (abs(l2 - m) + abs(r2 - m))
                  + K3 * (abs(l3 - m) + abs(r3 - m)) + K4 * (abs(l4 - m) + abs(r4 - m))
                  + K5 * (abs(l5 - m) + abs(r5 - m)) + K6 * (abs(l6 - m) + abs(r6 - m))
                  + K7 * (abs(l7 - m) + abs(r7 - m)) + K8 * abs(fc - m))
    err = abs((resk - G2 * s2 - G4 * s4 - G6 * s6 - G8 * fc) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # resabs <= resasc + |resk h|, so the roundoff floor only needs
    # resabs itself when the estimate is that small
    if err < _ROUNDOFF * (resasc + abs(resk * h)):
        resabs = h * (K1 * (abs(l1) + abs(r1)) + K2 * (abs(l2) + abs(r2))
                      + K3 * (abs(l3) + abs(r3)) + K4 * (abs(l4) + abs(r4))
                      + K5 * (abs(l5) + abs(r5)) + K6 * (abs(l6) + abs(r6))
                      + K7 * (abs(l7) + abs(r7)) + K8 * abs(fc))
        err = max(err, _ROUNDOFF * resabs)
    return -err, a, b, resk * h


def integrate(f: Callable[[float], float], a: float, b: float,
              epsabs: float, max_subdivisions: int = 200) -> float:
    """Integrate f over [a, b] to absolute accuracy epsabs.

    Bisects the panel with the largest error estimate until the summed
    estimate is within epsabs, using at most max_subdivisions panels.
    Raises :class:`ConvergenceError` if the budget is not met or f takes
    a non-finite value, :class:`DomainError` for an empty or reversed
    panel.
    """
    if not a < b:
        raise DomainError(f"empty or reversed integration panel [{a}, {b}]")
    panels = [_panel(f, a, b)]
    errsum = -panels[0][0]
    while len(panels) < max_subdivisions:
        if errsum <= epsabs:
            # the running sum may drift; decide on an exact one
            errsum = -math.fsum(p[0] for p in panels)
            if errsum <= epsabs:
                break
        neg_err, lo, hi, _ = panels[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the worst panel is too narrow to split
        left, right = _panel(f, lo, mid), _panel(f, mid, hi)
        heapq.heapreplace(panels, left)
        heapq.heappush(panels, right)
        errsum += neg_err - left[0] - right[0]
    abserr = -math.fsum(p[0] for p in panels)
    if not abserr <= epsabs * 1.01 + 1e-300:
        raise ConvergenceError(
            f"quadrature on [{a}, {b}] reached error {abserr:.2e} > budget {epsabs:.2e}")
    return math.fsum(p[3] for p in panels)


def exp_tail_cutoff(rate: float, scale: float, tol: float) -> float:
    """Upper cutoff T with scale * exp(-rate * T) / rate < tol / 10.

    Conservative bound for integrands dominated by scale * exp(-rate * t);
    the dropped tail is then below a tenth of the error budget.
    """
    if rate <= 0.0:
        raise DomainError(f"tail cutoff needs a positive decay rate, got {rate}")
    if scale <= 0.0:
        scale = 1.0
    return max(1.0, math.log(10.0 * scale / (rate * tol)) / rate)
