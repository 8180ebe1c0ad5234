"""Numerical engine for Hurwitz-type series of negative order, their gamma
functions, integral representations, and classical cross-checks.

The central object is the series

    zeta_r(w; x) = sum_{n >= 0} C(n + r - 1, n) * (n + x)^(-w)

for real order r and x > 0.  For integer r <= 0 the generalized binomial
coefficients vanish beyond n = |r|, so the sum is finite and can be taken
exactly.  For non-integer r the terms decay like n^(r - 1 - Re w): raw
summation converges far too slowly for tight tolerances (reaching 1e-6
absolute accuracy at r = -1/2 would need on the order of 1e12 terms), so
partial sums are taken at geometrically spaced checkpoints N, 2N, 4N, ...
and the power-law tail c * N^(r - w) * (1 + a1/N + a2/N^2 + ...) is
removed by repeated Richardson-style elimination, one tableau grown by a
diagonal per checkpoint.  The log-weighted sums behind the gamma function
have tails of the form N^r * (a log N + b) per power of 1/N, which the same
scheme handles by eliminating each power twice.  Every accelerated value
carries an internal error estimate: its distance from the previous
checkpoint's value, the last entry of the tableau's previous diagonal.

The terms are streamed in plain Python floats, so memory stays
proportional to the number of checkpoints and the module needs nothing
beyond the standard library.  Summation stops at the first checkpoint
where two consecutive estimates meet the requested tolerance, or where
the last checkpoint's estimate does; otherwise a ConvergenceError is
raised.  The term cap is bounded by MAX_SERIES_TERMS, so every call ends
in bounded time.

Independent integral representations (log Gamma as a Frullani-type
integral, the Euler integral for monomials, the log of the zeta product
as an integral of a difference kernel) are evaluated by double-exponential
quadrature over the whole half line, so the series and quadrature routes
verify one another.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from itertools import accumulate, count

from .counting import MAX_PACKED_BITS, CountingFunction, cancels, exact_sum
from .errors import (ConvergenceError, DomainError, ParameterRangeError, PoleError,
                     PreconditionError)
from .quadrature import QuadSettings, integrate
from .rationals import as_rational
from .reports import Record

#: Euler-Maclaurin coefficients B_2k / (2k)! for k = 1 .. 6, each the exact
#: rational (B_2 .. B_12 = 1/6, -1/30, 1/42, -1/30, 5/66, -691/2730) rounded once.
EULER_MACLAURIN_COEFFICIENTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                                -691 / 1307674368000)
#: Largest error, relative to max(1, |value|), of classical_hurwitz and log_gamma_one.
CLASSICAL_TOL = 1e-11


#: Largest term cap a series accepts.  The slowest loop, a complex power,
#: costs about 0.6 us a term on a 2-vCPU Xeon under CPython 3.11, so a
#: series that never converges stops within about 3 s.
MAX_SERIES_TERMS = 2 ** 22
#: Largest |s| the reflection check takes.  Its continuation adds one log,
#: phase -pi, per unit step below 0: 9 ms and 6e-10 relative at 2^14, above
#: which the rounded sum of the phases leaves the product non-real.
MAX_REFLECTION_ARGUMENT = 2 ** 14


class SeriesSettings(Record):
    """Error budget and term cap for the series engine."""

    __slots__ = ("tol", "max_terms")

    def __init__(self, tol: float = 1e-9, max_terms: int = 300_000):
        if not (tol > 0.0 and math.isfinite(tol)):
            raise DomainError(f"tolerance must be positive and finite, got {tol}")
        if max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {max_terms}")
        if max_terms > MAX_SERIES_TERMS:
            raise ParameterRangeError(
                f"max_terms {max_terms} is above the series budget of {MAX_SERIES_TERMS} terms")
        super().__init__(tol, max_terms)


DEFAULT_SERIES = SeriesSettings()
DEFAULT_QUAD = QuadSettings()


def _integer_order(r) -> int | None:
    """Return r as an int when it is integral (int, integral Fraction/float)."""
    if isinstance(r, bool):
        return None
    if isinstance(r, int):
        return r
    if isinstance(r, Fraction):
        return r.numerator if r.denominator == 1 else None
    if isinstance(r, float) and r.is_integer():
        return int(r)
    return None


def _binomials(k: int):
    """C(n + k - 1, n) for n = 0, 1, ... as integers at an integer order k <= 0, by
    C_0 = 1, C_n = C_(n-1) (k + n - 1) // n; they vanish past n = -k.  Lazy, so that a
    caller can stop at the first coefficient it cannot use."""
    return accumulate(count(1), lambda c, n: c * (k + n - 1) // n, initial=1)


def _checkpoints(max_terms: int) -> list[int]:
    """Geometric checkpoints 64, 128, ... up to max_terms."""
    return [64 << j for j in range((max_terms // 64).bit_length())]


def _partial_sums(r: float, x: float, w, checkpoints: list[int]):
    """Yield the sum of C(n + r - 1, n) * weight(n + x) over n below each checkpoint.

    The weight is (n + x)^(-w) for a real or complex w, and log(n + x) when
    w is None.  The coefficients follow H_0 = 1, H_n = H_(n-1) (r + n - 1) / n in
    floats, and each weight has its own loop: a real power or a log costs about
    half as much as a complex exponential.
    """
    log = math.log
    h = 1.0
    if w is None:
        total = log(x)
    elif isinstance(w, float):
        mw = -w
        total = x ** mw
    else:
        mw = -w
        exp = cmath.exp
        total = exp(mw * log(x))
    start = 1
    for stop in checkpoints:
        if w is None:
            for n in range(start, stop):
                h *= (r + n - 1.0) / n
                total += h * log(n + x)
        elif isinstance(w, float):
            for n in range(start, stop):
                h *= (r + n - 1.0) / n
                total += h * (n + x) ** mw
        else:
            for n in range(start, stop):
                h *= (r + n - 1.0) / n
                total += h * exp(mw * log(n + x))
        start = stop
        yield total


def _series_limit(r: float, x: float, w, cfg: SeriesSettings, what: str):
    """Stream the series of :func:`_partial_sums` and return its accelerated limit.

    The partial sum at N_j = 64 * 2^j behaves like S - N_j^(-theta) (c_0 + c_1/N_j + ...),
    each c_i optionally times an affine function of log N_j.  Richardson elimination with
    f_i = 2^(theta + i) cancels the pure power N^(-theta - i); a log factor needs each f_i
    twice, f_i = 2^(theta + i // 2).  One diagonal of the tableau is kept: a partial sum p
    grows the next, row[0] = p, row[i + 1] = (f_i row[i] - diagonal[i]) / (f_i - 1), and
    full is its last entry.  Nothing is eliminated before the first estimate, at the third
    checkpoint, so that a non-finite partial sum up to there is reported as such.

    Each estimate is 4 |full - drop| + 1e-13 (1 + max |partial|), drop the previous
    checkpoint's full.  The sum stops once two consecutive estimates meet the tolerance;
    at the last checkpoint one is enough.  A ConvergenceError reports an unmet tolerance,
    a non-finite partial sum, or a term or elimination factor beyond the float range.
    """
    cps = _checkpoints(cfg.max_terms)
    if len(cps) < 2:
        raise ConvergenceError(
            f"{what}: too few terms allowed for tail elimination; raise max_terms")
    log_tail = w is None
    theta = -r if log_tail else w - r
    diagonal, waiting, full, top, met = [], [], None, 0.0, False
    try:
        for j, partial in enumerate(_partial_sums(r, x, w, cps), 1):
            if not cmath.isfinite(partial):
                raise ConvergenceError(f"{what}: the partial sums left the float range")
            waiting.append(partial)
            last = j == len(cps)
            if j < 3 and not last:
                continue
            for p in waiting:
                row = [p]
                for i, previous in enumerate(diagonal):
                    f = 2.0 ** (theta + (i // 2 if log_tail else i))
                    row.append((f * row[i] - previous) / (f - 1.0))
                diagonal, drop, full, top = row, full, row[-1], max(top, abs(p))
            waiting.clear()
            est = 4.0 * abs(full - drop) + 1e-13 * (1.0 + top)
            if est <= cfg.tol and (met or last):
                return full
            met = est <= cfg.tol
    except (OverflowError, ZeroDivisionError):
        raise ConvergenceError(
            f"{what}: a term or an elimination step left the float range") from None
    raise ConvergenceError(
        f"{what}: estimated error {est:.2e} exceeds tolerance {cfg.tol:.2e}; "
        "raise max_terms or loosen the tolerance")


def _terminating_sum(k: int, x: float, w, cfg: SeriesSettings):
    """The -k + 1 terms of integer order k <= 0 (all later ones vanish), summed.

    Their float sum rounds by at most eps W: W = 2 S for log weights, 4 S + |w| min(1/2,
    x / eps) S' for a power w, S = sum_n |C(n + k - 1, n) weight(n + x)| and S' its part
    n >= 1, whose bases n + x round (worst ratios of error to eps W, against mpmath down to
    order -40: 0.49 and 0.90).  Past the tolerance a sum that :func:`~abszeta.counting.cancels`
    is taken exactly at a real integer w, rounded once, and refused at any other weight."""
    if -k + 1 > cfg.max_terms:
        raise ConvergenceError(
            f"order {k} has {-k + 1} terms, above the cap of {cfg.max_terms}; raise max_terms")
    what = f"terminating sum of order {k} at x={x}"
    hint = "; use --method integral" if w is None else ""
    try:
        total = next(_partial_sums(float(k), x, w, [1 - k]))
        moduli = [abs(c) * (abs(math.log(n + x)) if w is None else (n + x) ** -w.real)
                  for n, c in zip(range(1 - k), _binomials(k))]
        size, tail = sum(moduli), sum(moduli[1:])
        weighted = 2.0 * size if w is None else (
            4.0 * size + (abs(w) * min(0.5, x / sys.float_info.epsilon) * tail if tail else 0.0))
    except OverflowError:
        total = math.inf
    if not (cmath.isfinite(total) and math.isfinite(weighted)):
        raise ConvergenceError(f"{what}: a term left the float range{hint}")
    bound = sys.float_info.epsilon * weighted
    if bound <= cfg.tol or not cancels(weighted, total):
        return total
    if w is not None and w.imag == 0 and w.real.is_integer():
        return complex(zeta_series_exact(k, int(w.real), Fraction(x)))
    raise ConvergenceError(f"{what}: rounding in its {1 - k} alternating terms may reach "
                           f"{bound:.2e}, above the tolerance {cfg.tol:.2e}{hint}")


def _finite_positive(x, what: str) -> float:
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"{what} needs a finite x > 0, got x={x}")
    return x


def _require_resolvable_phase(w: complex, x: float, n_max: int, cfg: SeriesSettings) -> None:
    """The phase Im(w) log(n + x) of a term is known only to about
    eps |Im w| |log(n + x)|; refuse a sum whose phases carry less than the
    tolerance, since no estimate can see that error."""
    phase_error = sys.float_info.epsilon * abs(w.imag) * max(abs(math.log(x)),
                                                            math.log(n_max + x))
    if phase_error > cfg.tol:
        raise ConvergenceError(
            f"series at w={w}, x={x}: the phases of its terms are known only to "
            f"{phase_error:.2e}, above the tolerance {cfg.tol:.2e}")


def zeta_series(r, w, x: float, cfg: SeriesSettings = DEFAULT_SERIES) -> complex:
    """zeta_r(w; x) = sum C(n + r - 1, n) (n + x)^(-w) for finite x > 0.

    Integer order r <= 0 uses the terminating sum (any w) within the
    max_terms cap.  Otherwise the series requires Re(w) > r and is summed
    with tail elimination; a ConvergenceError reports an unmet tolerance,
    or an |Im w| so large that the phases of the terms are below it.
    """
    x = _finite_positive(x, "series")
    w = complex(w)
    k = _integer_order(r)
    terminating = k is not None and k <= 0
    _require_resolvable_phase(w, x, min(-k, cfg.max_terms) if terminating else cfg.max_terms, cfg)
    if terminating:
        return _terminating_sum(k, x, w, cfg)
    rf = float(r)
    theta = w - rf
    if not theta.real > 0.0:
        raise DomainError(
            f"series of order {rf} diverges when Re(w) <= {rf}, got w={w}")
    value = _series_limit(rf, x, w.real if w.imag == 0.0 else w, cfg,
                          what=f"series of order {rf} at w={w}, x={x}")
    return complex(value)


def zeta_series_exact(r: int, w: int, x) -> Fraction:
    """Terminating series in exact rational arithmetic (integer order r <= 0).

    x is an int, a ``Fraction`` or a rational string (see :func:`as_rational`);
    a float raises TypeError by design, since the sum is exact only in exact
    data: pass ``Fraction(x)`` to sum at the float's exact value."""
    k = _integer_order(r)
    if k is None or k > 0:
        raise DomainError(f"exact summation needs an integer order <= 0, got {r!r}")
    if _integer_order(w) is None:
        raise DomainError(f"exact summation needs an integer w, got {w!r}")
    w = _integer_order(w)
    x = as_rational(x)
    if not x > 0:
        raise DomainError(f"series needs x > 0, got x={x}")
    what = f"the terminating sum of order {k} at w={w}, x={x} is taken exactly"
    if (1 - k) * -k > MAX_PACKED_BITS:  # |C(n + k - 1, n)| <= 2^-k, counted before any is built
        raise ParameterRangeError(
            f"{what}, and its {1 - k} coefficients may exceed {MAX_PACKED_BITS} bits")
    return exact_sum([(c, n + x, -w) for n, c in zip(range(1 - k), _binomials(k))], 1, what)


def gamma_series(r, x: float, cfg: SeriesSettings = DEFAULT_SERIES) -> float:
    """Gamma function of order r < 0 at finite x > 0 from the log-weighted series.

    log Gamma_r(x) = -sum C(n + r - 1, n) log(n + x): a finite sum for
    integer order (within the max_terms cap), otherwise accelerated like
    the zeta series but with a log-carrying tail (each tail power is
    eliminated twice).  The tolerance applies to the log value.
    """
    x = _finite_positive(x, "gamma series")
    k = _integer_order(r)
    if k is not None:
        if k >= 0:
            raise DomainError(f"order must be negative, got {r!r}")
        return _exp_log_gamma(-_terminating_sum(k, x, None, cfg), k, x)
    rf = float(r)
    if not rf < 0.0:
        raise DomainError(f"order must be negative, got {r!r}")
    weighted = _series_limit(rf, x, None, cfg, what=f"gamma series of order {rf} at x={x}")
    return _exp_log_gamma(-weighted, rf, x)


def _exp_log_gamma(log_value: float, r, x: float) -> float:
    """Gamma_r(x) from its log, refusing a value beyond the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"gamma of order {r} at x={x} is beyond the float range "
                          f"(log value {log_value:.6g})") from None


def gamma_integral(r, x: float, cfg: QuadSettings = DEFAULT_QUAD) -> float:
    """Gamma function of order r < 0 at x > 0 from its integral representation.

    log Gamma_r(x) = integral over t in (0, inf) of
    (1 - e^(-t))^a e^(-x t) / t, a = -r, by the exp-sinh rule at scale
    min(1, 1/x).  The integrand behaves like t^(a-1) at 0; for a < 1 it is
    integrated by parts once, which leaves
    (1/a) (1 - e^(-t))^a e^(-x t) (x + a/t - a/(e^t - 1)), of order t^a there.
    The factor 1/a is applied after integrating (budget tol * a), so that
    no x/a enters the integrand, where it may overflow.
    """
    rf = float(r)
    if not (rf < 0.0 and math.isfinite(rf)):
        raise DomainError(f"order must be negative and finite, got {r!r}")
    x = _finite_positive(x, "gamma integral")
    a = -rf
    if a >= 1.0:
        def f(t: float) -> float:
            return (-math.expm1(-t)) ** a * math.exp(-x * t) / t
        return _exp_log_gamma(integrate(f, min(1.0, 1.0 / x), cfg.tol), rf, x)

    def f(t: float) -> float:
        q = -math.expm1(-t)
        # 1/t - 1/(e^t - 1) = 1/2 - t/12 + ...: 1/2 below t = 1e-8, where 1/t may overflow
        g = 1.0 / t - math.exp(-t) / q if t > 1e-8 else 0.5
        return q ** a * math.exp(-x * t) * (x + a * g)
    return _exp_log_gamma(integrate(f, min(1.0, 1.0 / x), cfg.tol * a) / a, rf, x)


def monomial_kernel_check(alpha, s: float, w: float,
                          cfg: QuadSettings = DEFAULT_QUAD) -> float:
    """Evaluate Gamma(w)^(-1) * integral of e^(-(s - alpha) t) t^(w - 1) dt.

    The result must equal (s - alpha)^(-w); requires s > alpha and w > 0.
    The exp-sinh rule runs at scale max(1, w)/(s - alpha), near the peak
    of the integrand.  For w < 1 the t^(w-1) endpoint is integrated by
    parts once, as (s - alpha)/w times the integral of e^(-(s - alpha) t) t^w.
    """
    a = float(s) - float(alpha)
    w = float(w)
    if not a > 0.0:
        raise DomainError(f"kernel integral needs s > alpha, got s - alpha = {a}")
    if not w > 0.0:
        raise DomainError(f"kernel integral needs w > 0, got w={w}")
    try:
        gw = math.gamma(w)
    except OverflowError:
        raise DomainError(f"kernel integral: Gamma({w}) is beyond the float range") from None
    # by parts, for w < 1: int t^(w-1) e^(-a t) dt = (a/w) int t^w e^(-a t) dt
    p, factor = (w - 1.0, 1.0) if w >= 1.0 else (w, a / w)

    def f(t: float) -> float:
        return math.exp(-a * t) * t ** p
    return factor * integrate(f, max(1.0, w) / a, cfg.tol * gw / factor) / gw


def log_zeta_integral(n: CountingFunction, s: float,
                      cfg: QuadSettings = DEFAULT_QUAD) -> float:
    """log of the absolute zeta of n at real s via the difference kernel.

    For a counting function with multiplicity sum zero,
    log zeta(s) = integral over t in (0, inf) of
    (sum_a m(a) e^(-(s - a) t)) / t, a Frullani-type integral; the
    integrand extends continuously to t = 0.  Requires s above every
    exponent; the exp-sinh rule runs at scale min(1, 1/(s - max exponent)).
    """
    s = float(s)
    if n.multiplicity_sum() != 0:
        raise PreconditionError(
            "the difference-kernel integral needs multiplicities summing to zero")
    if n.is_zero():
        return 0.0
    amax = float(n.max_exponent())
    if not s > amax:
        raise DomainError(f"needs s above the top exponent {amax}, got s={s}")
    pairs = [(a / n.den, m / n.mden) for a, m in n.pairs]
    # Taylor moments of sum m e^(a t) for the t -> 0 limit of the kernel.
    moments = [sum(m * a ** k for a, m in pairs) / math.factorial(k) for k in range(1, 6)]
    rates = [(s - a, m) for a, m in pairs]

    def kernel(t: float) -> float:
        if t < 1e-4:
            poly = 0.0
            for mu in reversed(moments):
                poly = poly * t + mu
            return poly * math.exp(-s * t)
        total = 0.0
        for rate, m in rates:
            total += m * math.exp(-rate * t)
        return total / t

    return integrate(kernel, min(1.0, 1.0 / (s - amax)), cfg.tol)


def vanishing_check(r, m: int, x: float, cfg: SeriesSettings = DEFAULT_SERIES) -> float:
    """|zeta_r(m; x)| for non-integer order r < 0 and integer m in (r, 0].

    The series vanishes identically at those integer arguments, so the
    returned magnitude is the numerical defect of that identity.
    """
    rf = float(r)
    if _integer_order(r) is not None or not rf < 0.0:
        raise DomainError(f"order must be a negative non-integer, got {r!r}")
    mi = _integer_order(m)
    if mi is None or not (rf < mi <= 0):
        raise ParameterRangeError(
            f"m must be an integer in ({rf}, 0], got {m!r}")
    return abs(zeta_series(rf, complex(mi), x, cfg))


def binomial_identity_sum(cfg: SeriesSettings = DEFAULT_SERIES) -> float:
    """Partial sum of sum_{n >= 1} C(2n, n) / ((2n - 1) 4^n), plus a tail estimate.

    The exact sum is 1.  Terms decay like n^(-3/2) / (2 sqrt(pi)), so the
    truncated tail is close to 1 / sqrt(pi N); adding that correction
    leaves a residual of order N^(-3/2).
    """
    n_terms = min(cfg.max_terms, 20_000)
    total = 0.0
    a = 0.5  # C(2,1) / (1 * 4)
    for n in range(1, n_terms + 1):
        total += a
        a *= (2.0 * n - 1.0) / (2.0 * n + 2.0)
    return total + 1.0 / math.sqrt(math.pi * n_terms)


def _euler_maclaurin(w: float, y: float) -> tuple[float, float, float]:
    """sum_{n >= 0} (n + y)^(-w) for y > 0, continued in w, and its w-derivative, from
    y^(1-w)/(w-1) + y^(-w)/2 + sum_k B_2k/(2k)! (w)_(2k-1) y^(1-w-2k), k = 1..5 (DLMF
    25.11.5, https://dlmf.nist.gov/25.11).  Returns (value, omitted, slope), omitted the
    signed B_12 term: for w > -11 it bounds what the value leaves out, and for integer w
    in -11..0 value + omitted is exact.  At w = 0 the slope's B_12 term is |B_12|/132 y^-11."""
    power = y ** -w
    lead = y * power / (w - 1.0)
    value, slope = lead + 0.5 * power, -lead / (w - 1.0)  # log y enters the slope last
    p, dp, scale = w, 1.0, power / y  # the rising factorial (w)_(2k-1), its slope, y^(1-w-2k)
    *kept, last = EULER_MACLAURIN_COEFFICIENTS
    for k, c in enumerate(kept, 1):
        value, slope = value + c * p * scale, slope + c * dp * scale
        q = (w + 2 * k - 1) * (w + 2 * k)  # (w)_(2k+1) = (w)_(2k-1) q
        p, dp, scale = p * q, dp * q + p * (2 * w + 4 * k - 1), scale / (y * y)
    return value, last * p * scale, slope - math.log(y) * value


def _checked(value: float, error: float, what: str) -> float:
    """value, unless it is not finite or its error exceeds CLASSICAL_TOL max(1, |value|)."""
    if not math.isfinite(value):
        raise DomainError(f"{what}: a term leaves the float range")
    if error > CLASSICAL_TOL * max(1.0, abs(value)):
        raise ConvergenceError(f"{what}: the Euler-Maclaurin error may reach {error:.2e}, "
                               f"above {CLASSICAL_TOL:.0e} max(1, |value|)")
    return value


def classical_hurwitz(w: float, x: float) -> float:
    """Classical Hurwitz zeta sum_{n >= 0} (n + x)^(-w), continued in w: N head terms plus
    the Euler-Maclaurin tail at y = N + x, N doubling from 8 until the tail's bound falls
    below the rounding estimate eps (sum |head term| + 2 |tail|), one rounding a head term
    and two for the tail's few steps.  Head and tail cancel for w < 0, so both see one x:
    the terms past n = 0 are taken at n + y - N, exact as y is, anew for each N.  Integer
    w in -11..0 takes the expansion at x itself, which terminates there: -B_(1-w)(x) /
    (1 - w).  For -1 < x < 0 and integer w, it is x^(-w) + zeta(w, x + 1)."""
    w, x = float(w), float(x)
    what = f"classical zeta at w={w}, x={x}"
    if w == 1.0:
        raise PoleError("the classical zeta has its pole at w = 1")
    if x <= 0.0 and not (-1.0 < x < 0.0 and w.is_integer()):
        raise DomainError(f"{what}: x must be positive, or in (-1, 0) for integer w")
    try:
        if x < 0.0:
            return x ** (-w) + classical_hurwitz(w, x + 1.0)
        if w.is_integer() and -11.0 <= w <= 0.0:
            if x < 1e-3:  # one shift step, so that x^(-w) cannot underflow in the kernel
                return x ** -w + classical_hurwitz(w, x + 1.0)
            return _checked(sum(_euler_maclaurin(w, x)[:2]), 0.0, what)
        stop = 8
        while True:
            y = stop + x
            shifted = y - stop
            head = x ** -w
            for n in range(1, stop):
                head += (n + shifted) ** -w
            tail, bound, _ = _euler_maclaurin(w, y)
            rounding = sys.float_info.epsilon * (head + 2.0 * abs(tail))  # head terms are > 0
            if not abs(bound) > rounding or stop >= MAX_SERIES_TERMS:
                return _checked(head + tail, abs(bound) + rounding, what)
            stop *= 2
    except OverflowError:
        raise DomainError(f"{what}: a term leaves the float range") from None


def log_gamma_one(x: float) -> float:
    """log Gamma(x) - (1/2) log(2 pi) for x > 0, the w-derivative at w = 0 of the classical
    Hurwitz zeta and the order +1 analogue of the negative-order gamma logs: N head terms
    -log(n + x) plus the Euler-Maclaurin slope at y = N + x, N doubling from 8 until the
    slope's bound falls below the head's rounding, eps sum |log(n + x)|."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma_one needs x > 0, got {x}")
    eps, log_x = sys.float_info.epsilon, math.log(x)
    start, stop, head = 1, 8, -log_x
    while True:
        for n in range(start, stop):
            head -= math.log(n + x)
        size = abs(log_x) - log_x - head  # sum |log|: only log(x) may be negative
        y = stop + x
        bound = -EULER_MACLAURIN_COEFFICIENTS[-1] * math.factorial(10) * y ** -11.0  # B_12 slope
        if not bound > eps * size:  # true by N = 16, where eps size > 6e-15 > bound
            break
        start, stop = stop, 2 * stop
    tail = _euler_maclaurin(0.0, y)[2]
    return _checked(head + tail, bound + eps * (size + 2.0 * abs(tail)),
                    f"log_gamma_one at x={x}")


def _log_gamma_one_analytic(x: float) -> complex:
    """Continuation of log_gamma_one to negative non-integer x.

    The recurrence lg(x) = -Log(x) + lg(x + 1) with the principal complex
    logarithm, applied until x + k > 0; each negative step contributes
    -i pi.  The terms are added onto lg(x + k) from the innermost outward.
    """
    terms = []
    while x <= 0.0:
        if x == math.floor(x):
            raise DomainError(f"pole of the gamma function at x = {x}")
        terms.append(-cmath.log(complex(x)))
        x += 1.0
    total = complex(log_gamma_one(x))
    for term in reversed(terms):
        total = term + total
    return total


def euler_reflection_check(s: float) -> tuple[float, float]:
    """Both sides of Gamma_1(s + 1) * Gamma_1(-s) = -1 / (2 sin(pi s)).

    Gamma_1 here is the normalized classical gamma exp(log_gamma_one),
    continued through negative arguments with principal logarithms; the
    imaginary parts of the two log terms cancel, leaving a real value to
    compare with the sine side.  Integer s sits on a pole, and |s| above
    :data:`MAX_REFLECTION_ARGUMENT` is refused.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"reflection identity needs a finite s, got s = {s}")
    if abs(s) > MAX_REFLECTION_ARGUMENT:
        raise ParameterRangeError(
            f"reflection identity is checked for |s| <= {MAX_REFLECTION_ARGUMENT}, got s = {s}")
    if s == math.floor(s):
        raise DomainError(f"reflection identity has poles at integers, got s = {s}")
    left_log = _log_gamma_one_analytic(s + 1.0) + _log_gamma_one_analytic(-s)
    try:
        left_c = cmath.exp(left_log)
    except OverflowError:
        raise DomainError(f"the reflection product at s={s} is beyond the float range") from None
    if abs(left_c.imag) > 1e-8 * (1.0 + abs(left_c)):
        raise ConvergenceError(
            f"reflection product unexpectedly non-real at s={s}: {left_c}")
    k = round(s)  # sin(pi s) = (-1)^k sin(pi (s - k)), and s - k is exact
    right = (0.5 if k % 2 else -0.5) / math.sin(math.pi * (s - k))
    return left_c.real, right
