"""Numeric engine: accelerated series, quadrature, classical helpers.

Oracle policy.  Values marked FROZEN below were computed offline with
mpmath at 40 significant digits through the *integral representations*
of the functions (a code path entirely independent of the series and
Euler-Maclaurin implementations under test) and embedded as literals.
The exp-sinh integrator is checked against mpmath's own quadrature at
30 digits, run live.  Closed forms (pi^2/6, -1/12, finite rational sums,
libm lgamma) serve as additional independent anchors.

Claims covered:
- generalized binomial coefficients: exact values, termination for
  negative integer order, the n^(r-1) envelope, the float recurrence of
  the series loops equal bit for bit to a scalar loop, all against a
  Fraction recurrence kept in this module;
- the engine's bits: values and refusal messages of the accelerated series
  at two tolerances and two term caps, of terminating sums of orders -11 to
  -1000 and of exact terminating sums, frozen with repr;
- zeta series: terminating exact path, accelerated path vs FROZEN
  values, agreement with the classical Hurwitz routine at order 1,
  conjugate symmetry in w, honest ConvergenceError when starved;
- streaming and early stopping: the streamed partial sums equal a plain
  loop over the coefficient recurrence, every early-stopped value is
  within tolerance of mpmath (run live) or the call raises
  ConvergenceError, the last checkpoint still accepts one estimate, and
  the term budget and float overflow end in package errors, on the
  terminating path too;
- the series routes and the gamma integral refuse a non-finite x, the
  series routes a non-finite order or w, and the zeta series refuses an
  |Im w| whose phases fall below the tolerance;
- gamma via series, via integral, and via the exact product all agree;
- kernel quadrature matches closed forms; log-zeta integral matches the
  log of the factored product; the gamma and log-zeta integrals keep the
  mass near t = 0 at large x and s;
- the exp-sinh integrator: true error within the budget on closed forms,
  on finite panels mapped onto the half line, and on the gamma, kernel and
  log-zeta integrands over orders -0.01..-30 and decay rates 1e-3..1e6;
  ConvergenceError on a non-finite or non-decaying integrand, on an
  oscillation the finest step does not resolve, and on a budget below
  rounding; no level before step 1/8 is accepted;
- classical Hurwitz zeta: FROZEN values, exact Bernoulli-polynomial
  values at integer w in -11..0, recurrence property; on w in
  [-20.5, 100.5] x x in [1e-3, 1e3] each value is within 1e-11 max(1, |zeta|)
  of a 90-digit direct sum or the call raises ConvergenceError, the rows
  where rounding swamps the value raise, and no point of the bench's
  numeric range does;
- the kernel and the classical Hurwitz zeta map a value beyond the float
  range to DomainError;
- normalized log-gamma and the reflection identity vs libm, the
  identity's continuation summed as its recursion was, up to |s| = 2^14;
- the Euler-Maclaurin coefficients are B_2k / (2k)!, from the Bernoulli
  recurrence, each rounded once.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction as F
from itertools import accumulate, count, islice

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import abszeta.counting as cf
from abszeta.catalog import counting_of, gl
import abszeta.numerics as numerics
from abszeta.errors import (ConvergenceError, DomainError, ParameterRangeError,
                            PoleError, PreconditionError)
from abszeta.gammasine import neg_gamma
from abszeta.numerics import (
    EULER_MACLAURIN_COEFFICIENTS,
    MAX_SERIES_TERMS,
    SeriesSettings,
    _checkpoints,
    binomial_identity_sum,
    classical_hurwitz,
    euler_reflection_check,
    gamma_integral,
    gamma_series,
    log_gamma_one,
    log_zeta_integral,
    monomial_kernel_check,
    vanishing_check,
    zeta_series,
    zeta_series_exact,
)
from abszeta.quadrature import QuadSettings, integrate
from abszeta.symzeta import eval_hurwitz, eval_power_product, zeta_of

# ---------------------------------------------------------------------------
# FROZEN oracles (mpmath, 40 digits, integral representations -- see module
# docstring).  Keys: (order r, w, x) for the zeta table, (order r, x) for the
# gamma table, (w, x) for the classical Hurwitz table.

ZETA_ORACLE = {
    (-0.5, 1.0, 1.0): 0.6666666666666666666666667,   # also the exact 2/3
    (-0.5, 2.0, 0.5): 3.748382417098498749732011,
    (-1.5, 2.5, 1.0): 0.7615052807266789609746857,
    (-2.5, 3.0, 2.0): 0.05897363543049679308332574,
}

GAMMA_ORACLE = {
    (-0.5, 0.5): 8.215911487658671440101489,
    (-0.5, 1.0): 4.959982653983066581613118,
    (-0.5, 2.0): 3.271658071364452765142598,
    (-1.5, 0.5): 2.136871271770524362242718,
    (-1.5, 1.0): 1.516045548095585074827672,
    (-2.5, 1.0): 1.240414899947040300066967,
}

HURWITZ_ORACLE = {
    (3.5, 0.7): 3.692768064686826168943986,
    (2.0, 1.0): 1.644934066848226436472415,    # = pi^2 / 6
    (-2.5, 1.3): -0.05879141110697947022840112,
    (0.5, 2.0): -2.460354508809586812889499,
}


# ---------------------------------------------------------------------------
# generalized binomial coefficients

def _binomials(r: F):
    """C(r + n - 1, n) for n = 0, 1, ... at any rational order r, by the Fraction
    recurrence H_0 = 1, H_n = H_(n-1) (r + n - 1) / n: an oracle that shares no code
    with the engine's float and integer recurrences."""
    return accumulate(count(1), lambda h, n: h * (r + n - 1) / n, initial=F(1))


def _coefficient(r, n: int) -> F:
    """C(r + n - 1, n), the coefficient of the n-th term at order r, exactly."""
    return next(islice(_binomials(F(r)), n, None))


def _unit_weight_sums(r: float, count: int) -> list[float]:
    """The partial sums over n < 1, ..., count of the coefficients as the
    series loops make them, the weight (n + x)^-0 being 1."""
    return list(numerics._partial_sums(r, 1.0, 0.0, list(range(1, count + 1))))


def test_gen_binom_exact_small_orders():
    # (1 - t)^(1/2) expansion: 1 - t/2 - t^2/8 - t^3/16 - 5 t^4/128
    assert [_coefficient(F(-1, 2), n) for n in range(5)] == [
        F(1), F(-1, 2), F(-1, 8), F(-1, 16), F(-5, 128)]


def test_gen_binom_positive_integer_order():
    for n in range(10):
        assert _coefficient(3, n) == math.comb(n + 2, n)
        assert _coefficient(1, n) == 1


def test_gen_binom_negative_integer_order_terminates():
    for n in range(3):
        assert _coefficient(-2, n) == (-1) ** n * math.comb(2, n)
    assert _coefficient(-2, 3) == 0
    assert _coefficient(-2, 50) == 0


def test_gen_binom_float_matches_exact():
    exact = list(accumulate(islice(_binomials(F(-5, 2)), 41)))
    for got, want in zip(_unit_weight_sums(-2.5, 41), exact):
        assert got == pytest.approx(float(want), rel=1e-13, abs=1e-18)


def test_float_coefficients_match_scalar_recurrence_bitwise():
    """The recurrence inline in the series loops reproduces the scalar loops
    bit for bit: (r + n - 1.0) / n for float r, and exact-integer quotients
    for integer r; seen through the partial sums of the unit weight."""
    for r in list(range(-60, 4)) + [-2.5, -0.3, 0.7]:
        h, total, expected = 1.0, 0.0, []
        for n in range(1, 81):
            total += h
            expected.append(total)
            h *= (r + n - 1) / n if isinstance(r, int) else (r + n - 1.0) / n
        assert _unit_weight_sums(float(r), 80) == expected


def test_integer_order_values_frozen():
    """The terminating float sums give the same bits as the array engine
    they replaced (values printed by that engine)."""
    assert zeta_series(-9, 2.0, 1.0) == 0.2928968253968248 + 0j
    assert gamma_series(-3, 1.5) == 1.0932944606413992
    frozen = {
        (1, 0.4): -0.9999999999999999, (1, 1.0): -1.0, (1, 2.5): -1.0,
        (2, 0.4): 1.9999999999999991, (2, 1.0): 2.0000000000000018, (2, 2.5): 2.0,
        (3, 0.4): -6.000000000000007, (3, 1.0): -5.999999999999972,
        (3, 2.5): -6.000000000000114,
        (4, 0.4): 24.00000000000017, (4, 1.0): 24.000000000000227,
        (4, 2.5): 23.999999999999773,
        (5, 0.4): -119.99999999999727, (5, 1.0): -119.99999999999636,
        (5, 2.5): -120.00000000005093,
        # past x = 0.4 the rounding bound of order -6 exceeds the default tolerance, so
        # the sum is taken exactly
        (6, 0.4): 719.9999999998836, (6, 1.0): 720.0, (6, 2.5): 720.0,
    }
    for (m, x), value in frozen.items():
        assert zeta_series(-m, -m, x) == complex(value), (m, x)


def test_terminating_series_respects_term_cap():
    cfg = SeriesSettings(max_terms=10)
    assert zeta_series(-9, 2.0, 1.0, cfg) == zeta_series(-9, 2.0, 1.0)
    with pytest.raises(ConvergenceError):
        zeta_series(-10, 2.0, 1.0, cfg)
    with pytest.raises(ConvergenceError):
        gamma_series(-10, 1.0, cfg)


@pytest.mark.parametrize("r,w,x", [(0, 1.0, 1e-320), (-1.0, 2.5, 1e-300), (0, -1e300, 180.0)])
def test_terminating_series_overflow_is_a_convergence_error(r, w, x):
    with pytest.raises(ConvergenceError, match="float range"):
        zeta_series(r, w, x)


@settings(max_examples=60)
@given(st.fractions(min_value=F(-9, 10), max_value=F(-1, 10), max_denominator=10),
       st.integers(min_value=1, max_value=200))
def test_gen_binom_envelope_for_orders_in_minus_one_zero(r, n):
    """|C(n + r - 1, n)| <= |r| n^(r-1) for r in (-1, 0)."""
    assert abs(float(_coefficient(r, n))) <= float(-r) * float(n) ** (float(r) - 1.0) + 1e-18


# ---------------------------------------------------------------------------
# zeta series

@pytest.mark.parametrize("x", [0.4, 1.0, 2.5])
def test_zeta_series_terminating_constant(x):
    # the m-th finite difference of a monic degree-m polynomial is m!
    assert zeta_series(-3, -3, x) == pytest.approx(-6.0, abs=1e-10)
    assert zeta_series(-4, -4, x) == pytest.approx(24.0, abs=1e-9)


def test_zeta_series_exact_rational():
    assert zeta_series_exact(-3, -3, F(2, 5)) == F(-6)
    assert zeta_series_exact(-2, -1, F(7, 3)) == 0
    assert zeta_series_exact(-2, 0, F(1, 2)) == 0
    assert zeta_series_exact(-1, 2, F(1)) == 1 - F(1, 4)
    assert zeta_series_exact(0, 5, F(3)) == F(3) ** -5


def test_zeta_series_exact_refuses_a_float_x():
    """By design: the sum is exact only in exact data, so a float x raises TypeError
    and the caller passes Fraction(x), its exact value."""
    with pytest.raises(TypeError, match="got float"):
        zeta_series_exact(-3, 0, 1e300)
    assert zeta_series_exact(-3, 0, F(1e300)) == 0


def test_zeta_series_exact_refuses_powers_beyond_the_budget():
    """Each (n + 3)^(10^7) has 16 to 26 Mbit, so the sum is refused before any power."""
    with pytest.raises(ParameterRangeError, match="exact powers exceed 4194304 bits"):
        zeta_series_exact(-3, -10 ** 7, 3)


def test_terminating_sum_rounding_guard():
    """A float sum of order k that cancels and may round past the tolerance is summed
    exactly at a real integer w, and refused at any other w: floats gave -5.5412 for
    the sum 0 below, 720.0000000019791 for 720, and 1.0253 against 0.0043768 at
    w = 0.5.  A sum that does not cancel keeps its float value, however large its
    terms or |w|."""
    assert zeta_series(-53, -1, 3.0) == 0
    assert zeta_series(-6, -6, 2.5) == 720.0
    with pytest.raises(ConvergenceError, match="rounding in its 61 alternating terms"):
        zeta_series(-60, 0.5, 1.0)
    assert zeta_series(0, -2.5, 1e5) == 3162277660168.384  # one term, 1e5^2.5
    assert zeta_series(-30, 1e300, 1.0) == 1.0  # the terms n >= 1 underflow
    assert zeta_series(-1, -1e300, 5e-324) == -1.0  # 1 + 5e-324 rounds by 5e-324 only


def test_terminating_sum_of_many_terms_ends_fast():
    """Orders with up to the 300 000-term cap end in a refusal well within a second:
    their float binomials leave the float range, and the exact sum counts its
    coefficients' bits, up to (1 - k) (-k), before building any of them."""
    start = time.perf_counter()
    for r, w in [(-299999, 0), (-200000, -1)]:
        with pytest.raises(ConvergenceError, match="float range"):
            zeta_series(r, w, 1.0)
    with pytest.raises(ParameterRangeError, match="300000 coefficients may exceed"):
        zeta_series_exact(-299999, 0, 1)
    assert time.perf_counter() - start < 5.0


def test_zeta_series_exact_validation():
    with pytest.raises(DomainError):
        zeta_series_exact(F(-1, 2), 0, F(1))
    with pytest.raises(DomainError):
        zeta_series_exact(-2, F(1, 2), F(1))
    with pytest.raises(DomainError):
        zeta_series_exact(-2, 1, F(-1))
    with pytest.raises(DomainError):
        zeta_series_exact(1, 2, F(1))


def test_zeta_series_matches_exact_path():
    assert zeta_series(-2, 2, 1.5).real == pytest.approx(
        float(zeta_series_exact(-2, 2, F(3, 2))), rel=1e-13)


def test_zeta_series_matches_terminating_hurwitz_form():
    w, x = 1.25, 0.8
    form = cf.normalize((-n, (-1) ** n * math.comb(3, n)) for n in range(4))
    expected = eval_hurwitz(form, w, x)
    assert zeta_series(-3, w, x).real == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("key", sorted(ZETA_ORACLE))
def test_zeta_series_frozen_oracles(key):
    r, w, x = key
    got = zeta_series(r, w, x)
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert got.real == pytest.approx(ZETA_ORACLE[key], rel=1e-9)


def test_zeta_series_order_one_is_classical_hurwitz():
    got = zeta_series(1, 3.5, 0.7)
    assert got.real == pytest.approx(HURWITZ_ORACLE[(3.5, 0.7)], rel=1e-10)


def test_zeta_series_conjugate_symmetry():
    w = 2.0 + 0.5j
    a = zeta_series(-0.5, w, 1.0)
    b = zeta_series(-0.5, w.conjugate(), 1.0)
    assert a == pytest.approx(b.conjugate(), rel=1e-10)


def test_zeta_series_domain_errors():
    with pytest.raises(DomainError):
        zeta_series(-0.5, 2.0, 0.0)
    with pytest.raises(DomainError):
        zeta_series(-0.5, 2.0, -1.0)
    with pytest.raises(DomainError):
        zeta_series(-0.5, -0.5, 1.0)  # Re(w) <= r: divergent


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_series_routes_need_a_finite_point(x):
    for call in (lambda: zeta_series(-0.5, 2.0, x), lambda: zeta_series(-2, 2.0, x),
                 lambda: gamma_series(-0.5, x), lambda: gamma_series(-2, x),
                 lambda: vanishing_check(-0.5, 0, x), lambda: gamma_integral(-0.5, x)):
        with pytest.raises(DomainError, match="finite x > 0"):
            call()


def test_series_routes_refuse_a_non_finite_order_or_w():
    """Refused up front with DomainError, whose message names the values at
    fault, before any term is summed."""
    inf, nan = math.inf, math.nan
    cases = [
        (lambda: zeta_series(-0.5, complex(inf, 0), 1.0),
         "series needs a finite order and w, got order -0.5, w=(inf+0j)"),
        (lambda: zeta_series(-0.5, complex(2, nan), 1.0),
         "series needs a finite order and w, got order -0.5, w=(2+nanj)"),
        (lambda: zeta_series(-2, -inf, 1.0),
         "series needs a finite order and w, got order -2, w=(-inf+0j)"),
        (lambda: zeta_series(nan, 1, 1.0),
         "series needs a finite order and w, got order nan, w=(1+0j)"),
        (lambda: zeta_series(-inf, 1, 1.0),
         "series needs a finite order and w, got order -inf, w=(1+0j)"),
        (lambda: zeta_series(inf, 1, 1.0),
         "series needs a finite order and w, got order inf, w=(1+0j)"),
        (lambda: vanishing_check(-inf, -1, 1.0),
         "series needs a finite order and w, got order -inf, w=(-1+0j)"),
        (lambda: gamma_series(-inf, 1.0), "order must be negative and finite, got -inf"),
        (lambda: gamma_series(nan, 1.0), "order must be negative and finite, got nan"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


def test_zeta_series_refuses_unresolvable_phases():
    """eps |Im w| log(max_terms + x) above the tolerance: the phases are noise."""
    for order in (-0.5, -2):
        with pytest.raises(ConvergenceError, match="phases"):
            zeta_series(order, 1 + 1e300j, 1.0)
    with pytest.raises(ConvergenceError, match="phases"):
        zeta_series(-0.5, 1 + 1e7j, 1.0)  # 2.2e-16 * 1e7 * log(300001) = 2.8e-8
    zeta_series(-0.5, 1 + 1e7j, 1.0, SeriesSettings(tol=1e-6))  # within a looser tolerance
    zeta_series(-0.5, 1 + 3j, 1.0)  # numeric_grid's range of |Im w|


def test_zeta_series_reports_starvation_honestly():
    with pytest.raises(ConvergenceError):
        zeta_series(-0.5, 2.0, 1.0, SeriesSettings(tol=1e-9, max_terms=80))
    with pytest.raises(ConvergenceError):
        zeta_series(-0.5, 2.0, 1.0, SeriesSettings(tol=1e-16, max_terms=300_000))


def test_series_settings_validation():
    with pytest.raises(DomainError):
        SeriesSettings(tol=0.0)
    with pytest.raises(DomainError):
        SeriesSettings(max_terms=0)
    assert SeriesSettings(max_terms=MAX_SERIES_TERMS).max_terms == MAX_SERIES_TERMS
    with pytest.raises(ParameterRangeError, match=f"budget of {MAX_SERIES_TERMS} terms"):
        SeriesSettings(max_terms=MAX_SERIES_TERMS + 1)


# ---------------------------------------------------------------------------
# streaming and early stopping


def _mellin_zeta(r: float, w: complex, x: float):
    """zeta_r(w; x) as 1/Gamma(w) * int t^(w-1) e^(-xt) (1-e^(-t))^(-r) dt.

    The integral converges for Re(w) > r; on [0, 1] the substitution
    t = v^(1/a), a = Re(w) - r, leaves a bounded integrand.
    """
    r, x, w = mpmath.mpf(r), mpmath.mpf(x), mpmath.mpc(w)
    a = w.real - r

    def smooth(t):  # e^(-xt) ((1 - e^(-t)) / t)^(-r), equal to 1 at t = 0
        return mpmath.exp(-x * t) * (-mpmath.expm1(-t) / t) ** (-r) if t else mpmath.mpf(1)

    def head(v):
        t = v ** (1 / a)
        return smooth(t) * (t ** (1j * w.imag) if t else (w.imag == 0)) / a

    def tail(t):
        return t ** (w - 1) * mpmath.exp(-x * t) * (-mpmath.expm1(-t)) ** (-r)

    return (mpmath.quad(head, [0, 1]) + mpmath.quad(tail, [1, 10, 60, mpmath.inf])) * mpmath.rgamma(w)


def _mellin_log_gamma(r: float, x: float):
    """log Gamma_r(x) = int (1 - e^(-t))^(-r) e^(-xt) / t dt, i.e. minus the
    w-derivative at w = 0 of the Mellin integral above.  The breakpoints
    follow the decay length 1/x on both pieces."""
    a, x = -mpmath.mpf(r), mpmath.mpf(x)

    def head(v):  # t = v^(1/a)
        t = v ** (1 / a)
        return (-mpmath.expm1(-t) / t) ** a * mpmath.exp(-x * t) / a if t else 1 / a

    def tail(t):
        return (-mpmath.expm1(-t)) ** a * mpmath.exp(-x * t) / t

    cuts = [c / x for c in (0.01, 0.1, 1, 10, 100)]
    head_points = [0] + [c ** a for c in cuts if c < 1] + [1]
    tail_points = sorted({1, 10, 60, *(c for c in cuts if c > 1)}) + [mpmath.inf]
    return mpmath.quad(head, head_points) + mpmath.quad(tail, tail_points)


def test_mellin_oracles_match_closed_forms():
    # order 1 with x = 1 is the Riemann zeta; order -2 has the terms 1, -2, 1
    with mpmath.workdps(30):
        assert abs(_mellin_zeta(1.0, 2.0 + 1j, 1.0) - mpmath.zeta(2 + 1j)) < 1e-20
        exact = 1 - 2 * F(2) ** -3 + F(3) ** -3
        assert abs(_mellin_zeta(-2.0, complex(3.0), 1.0) - mpmath.mpf(float(exact))) < 1e-15
        assert abs(_mellin_log_gamma(-1.0, 1.0) - mpmath.log(2)) < 1e-20


def test_streamed_partial_sums_equal_a_plain_loop():
    """The inline recurrence and the three weight loops add the same terms, in
    the same order, as a plain loop over the recurrence."""
    r, x, cps = -1.3, 0.7, _checkpoints(1000)
    for w, weight in ((2.2, lambda y: y ** -2.2),
                      (1.5 + 2j, lambda y: cmath.exp(-(1.5 + 2j) * math.log(y))),
                      (None, math.log)):
        h, total, expected = 1.0, 0.0, []
        for n in range(cps[-1]):
            if n:
                h *= (r + n - 1.0) / n
            total += h * weight(n + x)
            if n + 1 in cps:
                expected.append(total)
        assert list(numerics._partial_sums(r, x, w, cps)) == expected


def test_series_stops_early(monkeypatch):
    streamed, yields = numerics._partial_sums, []

    def counted(*args):
        for partial in streamed(*args):
            yields.append(partial)
            yield partial

    monkeypatch.setattr(numerics, "_partial_sums", counted)
    zeta_series(-1.5, 2.5, 1.0, SeriesSettings(tol=1e-6))
    # two consecutive estimates are needed, and none before the third checkpoint
    assert 4 <= len(yields) < len(_checkpoints(SeriesSettings().max_terms))


ORACLE_POINTS = [  # (r, x): orders spread over [-6, -0.1], x over [0.3, 3]
    (-5.83, 1.71), (-4.62, 0.3), (-3.41, 2.46), (-2.77, 0.92), (-1.55, 3.0),
    (-1.18, 0.55), (-0.64, 1.33), (-0.37, 2.08), (-0.1, 0.71),
]


def _oracle_cases():
    for i, (r, x) in enumerate(ORACLE_POINTS):
        dw = 0.3 + 0.35 * i
        yield "zeta real w", r, x, r + dw
        yield "zeta complex w", r, x, complex(r + 3.3 - dw, (-1) ** i * (0.4 + 0.3 * i))
        yield "gamma", r, x, None
        yield "vanishing", r, x, math.floor(r) + 1 + i % (-math.floor(r))


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: f"{c[0]}-{c[1]}")
def test_early_stopped_series_within_tolerance_of_mpmath(case):
    """Every call returns a value within tol of mpmath or raises ConvergenceError;
    at tol 1e-6 every one of these calls returns."""
    kind, r, x, w = case
    with mpmath.workdps(30):
        if kind == "gamma":
            truth = _mellin_log_gamma(r, x)
        elif kind == "vanishing":
            truth = _mellin_zeta(r, complex(w), x)
            assert abs(truth) < 1e-25  # the theorem the check verifies
        else:
            truth = _mellin_zeta(r, complex(w), x)
    for tol in (1e-6, 1e-9):
        cfg = SeriesSettings(tol=tol)
        try:
            if kind == "gamma":
                error = abs(math.log(gamma_series(r, x, cfg)) - truth)
            elif kind == "vanishing":
                error = abs(vanishing_check(r, w, x, cfg) - truth)
            else:
                error = abs(zeta_series(r, w, x, cfg) - truth)
        except ConvergenceError:
            assert tol < 1e-6, (kind, r, x, w)
            continue
        assert error <= tol, (kind, r, x, w, tol, float(error))


@pytest.mark.parametrize("r", [-0.13, -0.101])
def test_last_checkpoint_accepts_a_single_estimate(r):
    """These small orders meet 1e-9 only at the last checkpoint of the
    default cap, where one estimate within tolerance is enough."""
    value = gamma_series(r, 2.9, SeriesSettings(tol=1e-9))
    with mpmath.workdps(30):
        assert abs(math.log(value) - _mellin_log_gamma(r, 2.9)) <= 1e-9


@pytest.mark.parametrize("call", [
    lambda: gamma_series(-2000.5, 1.0),          # coefficients overflow
    lambda: zeta_series(-0.5, 1e6, 1.0),         # 2^(theta) overflows
    lambda: zeta_series(-0.5, 400.0, 0.001),     # x^(-w) overflows
    lambda: zeta_series(-300.5, -300 + 1j, 1.0),  # complex exponential overflows
    lambda: gamma_series(-1e-300, 1.0),          # elimination factor 2^(-r) == 1
    lambda: vanishing_check(-300.5, -300, 0.5),
])
def test_series_beyond_the_float_range_raise_convergence_error(call):
    with pytest.raises(ConvergenceError):
        call()


# ---------------------------------------------------------------------------
# the engine's bits, frozen

#: Values and refusals of the series engine at tolerances 1e-6 and 1e-9 and term caps
#: 128 and the default, and of terminating sums of orders -11 to -1000, printed with
#: repr; the tail elimination and the binomial recurrences must reproduce each bit
#: and each message.  Key: (function, arguments, tol, max_terms); a string is the
#: message of the ConvergenceError the call raises.
PINNED = {
    ('zeta_series', (-0.5, 2.0, 1.0), 1e-06, 128):
        'series of order -0.5 at w=(2+0j), x=1.0: estimated error 1.38e-05 exceeds tolerance '
        '1.00e-06; raise max_terms or loosen the tolerance',
    ('zeta_series', (-2.5, 3.0, 2.0), 1e-06, 128): (0.05897363543049068+0j),
    ('zeta_series', (-1.3, (1.5+2j), 0.7), 1e-06, 128):
        'series of order -1.3 at w=(1.5+2j), x=0.7: estimated error 3.15e-06 exceeds '
        'tolerance 1.00e-06; raise max_terms or loosen the tolerance',
    ('gamma_series', (-0.5, 1.0), 1e-06, 128):
        'gamma series of order -0.5 at x=1.0: estimated error 1.28e+00 exceeds tolerance '
        '1.00e-06; raise max_terms or loosen the tolerance',
    ('gamma_series', (-2.5, 1.0), 1e-06, 128):
        'gamma series of order -2.5 at x=1.0: estimated error 2.46e-04 exceeds tolerance '
        '1.00e-06; raise max_terms or loosen the tolerance',
    ('vanishing_check', (-1.5, -1, 0.5), 1e-06, 128):
        'series of order -1.5 at w=(-1+0j), x=0.5: estimated error 4.39e-01 exceeds tolerance'
        ' 1.00e-06; raise max_terms or loosen the tolerance',
    ('vanishing_check', (-3.7, -2, 1.3), 1e-06, 128):
        'series of order -3.7 at w=(-2+0j), x=1.3: estimated error 9.28e-03 exceeds tolerance'
        ' 1.00e-06; raise max_terms or loosen the tolerance',
    ('zeta_series', (-0.5, 2.0, 1.0), 1e-06, 300000): (0.8535815370311836+0j),
    ('zeta_series', (-2.5, 3.0, 2.0), 1e-06, 300000): (0.058973635430496774+0j),
    ('zeta_series', (-1.3, (1.5+2j), 0.7), 1e-06, 300000):
        (0.9787756256234673+1.5867948160198933j),
    ('gamma_series', (-0.5, 1.0), 1e-06, 300000): 4.959982653907274,
    ('gamma_series', (-2.5, 1.0), 1e-06, 300000): 1.2404148999363256,
    ('vanishing_check', (-1.5, -1, 0.5), 1e-06, 300000): 1.8251015918798353e-13,
    ('vanishing_check', (-3.7, -2, 1.3), 1e-06, 300000): 1.5497737578793277e-14,
    ('zeta_series', (-0.5, 2.0, 1.0), 1e-09, 128):
        'series of order -0.5 at w=(2+0j), x=1.0: estimated error 1.38e-05 exceeds tolerance '
        '1.00e-09; raise max_terms or loosen the tolerance',
    ('zeta_series', (-2.5, 3.0, 2.0), 1e-09, 128): (0.05897363543049068+0j),
    ('zeta_series', (-1.3, (1.5+2j), 0.7), 1e-09, 128):
        'series of order -1.3 at w=(1.5+2j), x=0.7: estimated error 3.15e-06 exceeds '
        'tolerance 1.00e-09; raise max_terms or loosen the tolerance',
    ('gamma_series', (-0.5, 1.0), 1e-09, 128):
        'gamma series of order -0.5 at x=1.0: estimated error 1.28e+00 exceeds tolerance '
        '1.00e-09; raise max_terms or loosen the tolerance',
    ('gamma_series', (-2.5, 1.0), 1e-09, 128):
        'gamma series of order -2.5 at x=1.0: estimated error 2.46e-04 exceeds tolerance '
        '1.00e-09; raise max_terms or loosen the tolerance',
    ('vanishing_check', (-1.5, -1, 0.5), 1e-09, 128):
        'series of order -1.5 at w=(-1+0j), x=0.5: estimated error 4.39e-01 exceeds tolerance'
        ' 1.00e-09; raise max_terms or loosen the tolerance',
    ('vanishing_check', (-3.7, -2, 1.3), 1e-09, 128):
        'series of order -3.7 at w=(-2+0j), x=1.3: estimated error 9.28e-03 exceeds tolerance'
        ' 1.00e-09; raise max_terms or loosen the tolerance',
    ('zeta_series', (-0.5, 2.0, 1.0), 1e-09, 300000): (0.8535815370311848+0j),
    ('zeta_series', (-2.5, 3.0, 2.0), 1e-09, 300000): (0.058973635430496774+0j),
    ('zeta_series', (-1.3, (1.5+2j), 0.7), 1e-09, 300000): (0.978775625623468+1.5867948160198926j),
    ('gamma_series', (-0.5, 1.0), 1e-09, 300000): 4.9599826539817915,
    ('gamma_series', (-2.5, 1.0), 1e-09, 300000): 1.2404148999470415,
    ('vanishing_check', (-1.5, -1, 0.5), 1e-09, 300000): 5.404010902337276e-16,
    ('vanishing_check', (-3.7, -2, 1.3), 1e-09, 300000): 3.214540857625819e-15,
    ('zeta_series', (-11, 2.0, 1.0), 1e-09, 300000): (0.2586008898508903+0j),
    ('zeta_series', (-11, (0.5+1j), 2.0), 1e-09, 300000):
        (-0.00037719939019331683+0.008192190029126162j),
    ('zeta_series', (-12, -12.0, 0.4), 1e-09, 300000): (479001600+0j),
    ('zeta_series', (-12, 1.5, 3.0), 1e-09, 300000): (0.0011011325755366543+0j),
    ('gamma_series', (-11, 1.5), 1e-09, 300000): 1.009361068887142,
    ('gamma_series', (-12, 0.7), 1e-09, 300000): 1.0702649854499084,
    ('zeta_series', (-60, -3.0, 1.0), 1e-09, 300000): 0j,
    ('zeta_series', (-60, 2.0, 0.5), 1e-09, 300000): (1.3813476469308594+0j),
    ('gamma_series', (-60, 1.0), 1e-09, 300000):
        'terminating sum of order -60 at x=1.0: rounding in its 61 alternating terms may '
        'reach 1.75e+03, above the tolerance 1.00e-09; use --method integral',
    ('zeta_series', (-1000, 2.0, 1.0), 1e-09, 300000): (0.007478990870678668+0j),
    ('zeta_series', (-1000, 0.5, 1.0), 1e-09, 300000):
        'terminating sum of order -1000 at x=1.0: rounding in its 1001 alternating terms may '
        'reach 4.52e+284, above the tolerance 1.00e-09',
    ('gamma_series', (-1000, 1.0), 1e-09, 300000):
        'terminating sum of order -1000 at x=1.0: rounding in its 1001 alternating terms may '
        'reach 2.96e+286, above the tolerance 1.00e-09; use --method integral',
    ('zeta_series', (-60, 0.5, 1.0), 1e-09, 300000):
        'terminating sum of order -60 at x=1.0: rounding in its 61 alternating terms may '
        'reach 1.97e+02, above the tolerance 1.00e-09',
    ('vanishing_check', (-10.5, -10, 0.5), 1e-09, 300000):
        'series of order -10.5 at w=(-10+0j), x=0.5: estimated error 1.61e-07 exceeds '
        'tolerance 1.00e-09; raise max_terms or loosen the tolerance',
    ('zeta_series', (-0.5, 2.0, 1.0), 1e-09, 127):
        'series of order -0.5 at w=(2+0j), x=1.0: too few terms allowed for tail elimination;'
        ' raise max_terms',
}

#: Exact terminating sums, printed with repr.
PINNED_EXACT = {
    (-11, 2, "1"): F(86021, 332640),
    (-12, -3, "5/2"): F(0),
    (-12, -12, "2/5"): F(479001600),
}


@pytest.mark.parametrize("key", list(PINNED), ids=str)
def test_series_engine_bits_pinned(key):
    name, args, tol, max_terms = key
    call = {"zeta_series": zeta_series, "gamma_series": gamma_series,
            "vanishing_check": vanishing_check}[name]
    cfg = SeriesSettings(tol=tol, max_terms=max_terms)
    if isinstance(PINNED[key], str):
        with pytest.raises(ConvergenceError) as info:
            call(*args, cfg)
        assert str(info.value) == PINNED[key]
    else:
        assert call(*args, cfg) == PINNED[key]


@pytest.mark.parametrize("key", list(PINNED_EXACT), ids=str)
def test_exact_terminating_sums_pinned(key):
    assert zeta_series_exact(*key) == PINNED_EXACT[key]


# ---------------------------------------------------------------------------
# gamma: series, integral, exact product

@pytest.mark.parametrize("key", sorted(GAMMA_ORACLE))
def test_gamma_series_frozen_oracles(key):
    r, x = key
    assert gamma_series(r, x) == pytest.approx(GAMMA_ORACLE[key], rel=1e-9)


@pytest.mark.parametrize("key", sorted(GAMMA_ORACLE))
def test_gamma_integral_frozen_oracles(key):
    r, x = key
    assert gamma_integral(r, x) == pytest.approx(GAMMA_ORACLE[key], rel=1e-9)


@pytest.mark.parametrize("r", [-1, -2, -3])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_gamma_routes_match_exact_product(r, x):
    exact = eval_power_product(neg_gamma(-r), x)
    assert gamma_series(r, x) == pytest.approx(exact, rel=1e-12)
    assert gamma_integral(r, x) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("r", [-1, -2, -3])
@pytest.mark.parametrize("x", [1e4, 1e6, 1e8])
def test_gamma_integral_keeps_the_mass_near_zero(r, x):
    """At large x the integrand's mass sits at t below 1/x, where a fixed
    panel on [0, 1] sees e^(-x t) = 0 at every node."""
    exact = eval_power_product(neg_gamma(-r), x).real
    got = gamma_integral(r, x, QuadSettings(tol=1e-10))
    assert abs(math.log(got) - math.log(exact)) <= 1e-10


@pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
def test_integer_order_float_routes_are_accurate_or_refuse(x):
    """The product and series routes of an integer-order gamma either come
    within 1e-9 of the integral route or raise ConvergenceError: their
    alternating sums cancel, and a value they cannot resolve is refused."""
    refused = 0
    for k in range(1, 21):
        reference = gamma_integral(-k, x, QuadSettings(tol=1e-12))
        for route in (lambda: eval_power_product(neg_gamma(k), x).real,
                      lambda: gamma_series(-k, x)):
            try:
                value = route()
            except ConvergenceError as exc:
                assert "--method integral" in str(exc)
                refused += 1
                continue
            assert value == pytest.approx(reference, rel=1e-9), (k, x)
    assert refused > 0  # order -20 is beyond the series route at every x here


def test_gamma_validation():
    for fn in (gamma_series, gamma_integral):
        with pytest.raises(DomainError):
            fn(0.5, 1.0)
        with pytest.raises(DomainError):
            fn(0, 1.0)
        with pytest.raises(DomainError):
            fn(-0.5, 0.0)


# ---------------------------------------------------------------------------
# kernel quadrature

@pytest.mark.parametrize("alpha,s,w", [
    (0, 2.0, 1.5), (F(3, 2), 3.0, 0.5), (1, 2.0, 3.5), (0, 1.0, 1.0),
])
def test_monomial_kernel_spot_values(alpha, s, w):
    expected = (s - float(alpha)) ** -w
    assert monomial_kernel_check(alpha, s, w) == pytest.approx(expected, rel=1e-10)


def test_monomial_kernel_validation():
    with pytest.raises(DomainError):
        monomial_kernel_check(2, 2.0, 1.0)
    with pytest.raises(DomainError):
        monomial_kernel_check(0, 1.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda: monomial_kernel_check(0, 2.0, 180.0),    # Gamma(180) overflows
    lambda: monomial_kernel_check(0, 2.0, 1e-320),   # Gamma(1e-320) overflows
    lambda: classical_hurwitz(-300.0, 0.5),          # the Euler-Maclaurin terms overflow
    lambda: classical_hurwitz(-1e308, 1.0),
], ids=["kernel-w-180", "kernel-w-1e-320", "hurwitz-w-300", "hurwitz-w-1e308"])
def test_float_range_failures_are_domain_errors(call):
    with pytest.raises(DomainError, match="float range"):
        call()


@pytest.mark.parametrize("terms,s", [
    ([(1, 1), (0, -1)], 3.0),           # u - 1
    ([(3, 1), (1, -1)], 5.0),           # u^3 - u
    ([(2, 1), (1, -2), (0, 1)], 4.0),   # (u - 1)^2
])
def test_log_zeta_integral_matches_factored_log(terms, s):
    n = cf.normalize(terms)
    expected = math.log(eval_power_product(zeta_of(n), s).real)
    assert log_zeta_integral(n, s) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("s", [1e3, 1e5, 1e8])
def test_log_zeta_integral_keeps_the_mass_near_zero(s):
    expected = math.log1p(1.0 / (s - 1.0))  # log(s / (s - 1))
    assert abs(log_zeta_integral(cf.U_MINUS_ONE, s) - expected) <= 1e-10


def test_no_level_is_accepted_before_step_one_eighth():
    """Steps 1/2 and 1/4 of these two integrals agree within the budget 1e-6
    while both are off by more than it; from step 1/8 on they are within it
    of mpmath."""
    n = counting_of(gl(3))
    s = 11.737112
    got = log_zeta_integral(n, s, QuadSettings(1e-6))
    with mpmath.workdps(40):
        expected = -mpmath.fsum([mpmath.mpf(m.numerator) / m.denominator
                                 * mpmath.log(s - mpmath.mpf(a.numerator) / a.denominator)
                                 for a, m in n.terms])
    assert abs(got - float(expected)) <= 1e-6
    got = gamma_integral(-1.282845, 2.380621, QuadSettings(1e-6))
    with mpmath.workdps(30):
        expected = _mellin_log_gamma(-1.282845, 2.380621)
    assert abs(math.log(got) - float(expected)) <= 1e-6


def test_log_zeta_integral_validation():
    with pytest.raises(PreconditionError):
        log_zeta_integral(cf.ONE, 3.0)  # multiplicity sum 1: kernel not integrable
    with pytest.raises(DomainError):
        log_zeta_integral(cf.U_MINUS_ONE, 1.0)  # s at the top exponent


def test_quad_settings_validation():
    with pytest.raises(DomainError):
        QuadSettings(tol=-1.0)


def _over(f, a: float, b: float):
    """f on [a, b] as an integrand over (0, inf), by x = a + (b - a) t / (1 + t)."""
    width = b - a
    return lambda t: f(a + width * t / (1.0 + t)) * width / (1.0 + t) ** 2


@pytest.mark.parametrize("f,a,b,exact", [
    (math.sqrt, 0.0, 1.0, 2.0 / 3.0),                                  # endpoint singular
    (lambda t: math.exp(-t), 1.0, 30.0, math.exp(-1.0) - math.exp(-30.0)),
    (lambda t: 1.0 / (1.0 + t * t), -5.0, 5.0, 2.0 * math.atan(5.0)),
])
@pytest.mark.parametrize("epsabs", [1e-6, 1e-12])
def test_integrate_closed_forms_within_budget(f, a, b, exact, epsabs):
    assert abs(integrate(_over(f, a, b), 1.0, epsabs) - exact) <= epsabs


# the t = v^p forms of the gamma and kernel integrands on [0, 1], and
# their tails, once in floats and once in mpmath: integrands with an
# algebraic endpoint, integrated over finite panels through _over
def _gamma_head(a, x, m):
    p = max(2.0, 2.0 / a)

    def head(v):
        t = v ** p
        ratio = -m.expm1(-t) / t if t else 1  # t underflows at the nodes nearest v = 0
        return p * v ** (p * a - 1) * ratio ** a * m.exp(-x * t)
    return head


def _gamma_tail(a, x, m):
    return lambda t: (1 - m.exp(-t)) ** a * m.exp(-x * t) / t


def _kernel_head(a, w, m):
    p = max(2.0, 2.0 / w)
    return lambda v: p * v ** (p * w - 1) * m.exp(-a * v ** p)


@pytest.mark.parametrize("make,args,lo,hi", [
    (_gamma_head, (0.3, 2.0), 0.0, 1.0),
    (_gamma_head, (1.6, 0.5), 0.0, 1.0),
    (_gamma_tail, (0.5, 0.3), 1.0, 80.0),
    (_gamma_tail, (2.7, 1.8), 1.0, 20.0),
    (_kernel_head, (2.0, 0.15), 0.0, 1.0),
    (_kernel_head, (0.4, 1.4), 0.0, 1.0),
    (_kernel_head, (5.0, 3.7), 0.0, 1.0),
    (lambda a, w, m: (lambda t: m.exp(-a * t) * t ** (w - 1)), (0.3, 3.1), 1.0, 120.0),
])
@pytest.mark.parametrize("epsabs", [2.5e-7, 2.5e-10])
def test_integrate_true_error_within_budget(make, args, lo, hi, epsabs):
    with mpmath.workdps(30):
        reference = mpmath.quad(make(*args, mpmath), [lo, (lo + hi) / 2, hi])
    got = integrate(_over(make(*args, math), lo, hi), 1.0, epsabs)
    assert abs(got - float(reference)) <= epsabs


HALF_LINE_ORDERS = [-0.01, -0.05, -0.5, -1.0, -6.0, -30.0]
DECAY_RATES = [1e-3, 1.0, 1e3, 1e6]
BUDGETS = (2.5e-7, 2.5e-10)


@pytest.mark.parametrize("r", HALF_LINE_ORDERS)
@pytest.mark.parametrize("x", DECAY_RATES)
def test_gamma_integral_true_error_within_budget(r, x):
    """The gamma integrand over the whole half line, on both sides of the
    order -1, where the endpoint t^(-r-1) turns from vanishing to singular."""
    with mpmath.workdps(30):
        truth = _mellin_log_gamma(r, x)
    for tol in BUDGETS:
        got = math.log(gamma_integral(r, x, QuadSettings(tol)))
        assert abs(got - truth) <= tol, (r, x, tol, float(got - truth))


@pytest.mark.parametrize("w", [-r for r in HALF_LINE_ORDERS])
@pytest.mark.parametrize("rate", DECAY_RATES)
def test_monomial_kernel_true_error_within_budget(w, rate):
    """Within tol of (s - alpha)^(-w), or refused where tol is below 1e-12
    of that value: such a budget is near what floats resolve."""
    truth = mpmath.mpf(rate) ** -w
    for tol in BUDGETS:
        try:
            got = monomial_kernel_check(0, rate, w, QuadSettings(tol))
        except ConvergenceError:
            assert tol < 1e-12 * truth, (w, rate, tol)
            continue
        assert abs(got - truth) <= tol, (w, rate, tol, float(got - truth))


@pytest.mark.parametrize("terms", [
    [(1, 1), (0, -1)],                          # u - 1
    [(2, 1), (1, -2), (0, 1)],                  # (u - 1)^2
    [(3, 1), (1, -1)],                          # u^3 - u
    [(4, 1), (3, -1), (2, -1), (1, 1)],         # GL(2)
], ids=["u-1", "(u-1)^2", "u^3-u", "GL(2)"])
@pytest.mark.parametrize("gap", DECAY_RATES)
def test_log_zeta_integral_true_error_within_budget(terms, gap):
    n = cf.normalize(terms)
    top = max(a for a, _ in terms)
    with mpmath.workdps(30):
        s = mpmath.mpf(top) + gap
        truth = -mpmath.fsum(m * mpmath.log(s - a) for a, m in terms)
    for tol in BUDGETS:
        got = log_zeta_integral(n, top + gap, QuadSettings(tol))
        assert abs(got - truth) <= tol, (terms, gap, tol, float(got - truth))


def test_integrate_refuses_what_it_cannot_integrate():
    """A non-finite value, a tail that does not decay, an oscillation the
    finest step does not resolve, a budget below the rounding of the value,
    and a scale that is not positive and finite."""
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate(lambda t: math.nan, 1.0, 1e-8)
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate(lambda t: math.inf if t > 0.9 else math.exp(-t), 1.0, 1e-8)
    with pytest.raises(ConvergenceError, match="end of the node table"):
        integrate(lambda t: 1.0 / (1.0 + t), 1.0, 1e-8)
    with pytest.raises(ConvergenceError, match="levels still differ"):
        integrate(lambda t: math.exp(-t) * math.cos(200.0 * t), 1.0, 1e-10)
    with pytest.raises(ConvergenceError, match="rounding"):
        integrate(lambda t: math.exp(-t), 1.0, 1e-18)
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            integrate(math.exp, scale, 1e-8)


# ---------------------------------------------------------------------------
# identity checks exposed to the CLI

@pytest.mark.parametrize("r,m", [(-0.5, 0), (-1.5, -1), (-2.5, -2)])
@pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
def test_vanishing_check_small(r, m, x):
    assert vanishing_check(r, m, x) < 1e-6


def test_vanishing_check_validation():
    with pytest.raises(DomainError):
        vanishing_check(-2, -1, 1.0)       # integer order: different regime
    with pytest.raises(ParameterRangeError):
        vanishing_check(-1.5, -2, 1.0)     # m outside (r, 0]
    with pytest.raises(ParameterRangeError):
        vanishing_check(-1.5, 1, 1.0)


def test_binomial_identity_sum_needs_its_tail_correction():
    corrected = binomial_identity_sum()
    bare = corrected - 1.0 / math.sqrt(math.pi * 20_000)
    assert abs(corrected - 1.0) < 1e-6
    assert abs(bare - 1.0) > 1e-3  # ~ 1/sqrt(pi N): the correction is load-bearing


# ---------------------------------------------------------------------------
# classical Hurwitz zeta

@pytest.mark.parametrize("key", sorted(HURWITZ_ORACLE))
def test_classical_hurwitz_frozen_oracles(key):
    w, x = key
    assert classical_hurwitz(w, x) == pytest.approx(HURWITZ_ORACLE[key], rel=1e-11)


def test_classical_hurwitz_closed_forms():
    assert classical_hurwitz(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert classical_hurwitz(4.0, 1.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-12)
    # Apery's constant
    assert classical_hurwitz(3.0, 1.0) == pytest.approx(1.2020569031595942854, rel=1e-12)


def test_classical_hurwitz_bernoulli_values():
    # zeta(-n, x) = -B_{n+1}(x) / (n+1), exactly via the tabulated polynomials
    assert classical_hurwitz(0.0, 0.25) == 0.5 - 0.25
    assert classical_hurwitz(-1.0, 1.0) == pytest.approx(-1.0 / 12.0, rel=1e-14)
    x = 0.3
    b3 = x ** 3 - 1.5 * x ** 2 + 0.5 * x
    assert classical_hurwitz(-2.0, x) == pytest.approx(-b3 / 3.0, rel=1e-13)
    assert classical_hurwitz(-3.0, 1.0) == pytest.approx(1.0 / 120.0, rel=1e-13)


def test_classical_hurwitz_negative_x_window():
    expected = 4.0 + math.pi ** 2 / 2.0   # (-1/2)^(-2) + zeta(2, 1/2)
    assert classical_hurwitz(2.0, -0.5) == pytest.approx(expected, rel=1e-12)


def test_classical_hurwitz_errors():
    with pytest.raises(PoleError):
        classical_hurwitz(1.0, 0.7)
    with pytest.raises(DomainError):
        classical_hurwitz(2.0, 0.0)
    with pytest.raises(DomainError):
        classical_hurwitz(2.0, -1.0)
    with pytest.raises(DomainError):
        classical_hurwitz(2.5, -0.5)  # non-integer w needs x > 0


@settings(max_examples=40)
@given(st.floats(min_value=1.5, max_value=6.0),
       st.floats(min_value=0.3, max_value=3.0))
def test_classical_hurwitz_recurrence(w, x):
    lhs = classical_hurwitz(w, x)
    rhs = x ** -w + classical_hurwitz(w, x + 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_classical_hurwitz_agrees_with_series_route():
    for w, x in ((3.5, 0.7), (2.0, 1.0), (1.7, 2.3)):
        a = classical_hurwitz(w, x)
        b = zeta_series(1, w, x).real
        assert a == pytest.approx(b, rel=1e-9)


def _hurwitz_reference(w: float, x: float):
    """zeta(w, x) at 90 digits: the direct sum of 200 terms plus the Euler-Maclaurin
    tail through B_30, whose next term is below 1e-30 of the value for |w| <= 101,
    and which keeps 40 digits through the cancellation of head and tail at w = -20.5.
    mpmath's zeta is no reference here: at w = 30.5, x = 1000 its 40- and 80-digit
    values differ in the eleventh digit, and at w = -9.2e-120 it divides by zero."""
    with mpmath.workdps(90):
        w, x = mpmath.mpf(w), mpmath.mpf(x)
        y = 200 + x
        tail = y ** (1 - w) / (w - 1) + y ** -w / 2 + mpmath.fsum(
            mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.rf(w, 2 * k - 1)
            * y ** (1 - w - 2 * k) for k in range(1, 16))
        return mpmath.fsum((n + x) ** -w for n in range(200)) + tail


def test_hurwitz_reference():
    """Against a 40-digit sum of 20000 terms plus a far tail at (30.5, 1000), and
    against mpmath's zeta at 40 digits where that one is sound."""
    assert float(_hurwitz_reference(30.5, 1000.0)) == pytest.approx(1.0878502903573e-90,
                                                                     rel=1e-12)
    assert classical_hurwitz(30.5, 1000.0) == pytest.approx(1.0878502903573e-90, rel=1e-12)
    for w, x in ((-20.5, 1e-3), (-9.5, 1.0), (0.5, 2.0), (3.5, 0.7), (100.5, 1e-3)):
        with mpmath.workdps(40):
            assert abs(_hurwitz_reference(w, x) / mpmath.zeta(w, x) - 1) < 1e-20


#: (w, x) of a table of silent errors in an earlier Euler-Maclaurin loop, which
#: stopped at a fixed absolute truncation bound and returned, for instance,
#: -7.97e44 at (-9.5, 1), 94.88 at (-7.5, 0.2) and 0.0027416 at (-6.5, 1).
ROUNDING_TABLE = [(w, x) for w in (-3.5, -4.5, -6.5, -7.5, -9.5) for x in (0.2, 1.0, 4.0)]


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-20.5, max_value=100.5), st.floats(min_value=1e-3, max_value=1e3))
@example(30.5, 1000.0)
@example(-20.5, 1e-3)
@example(100.5, 1e3)
def test_classical_hurwitz_within_tolerance_or_refuses(w, x):
    assume(w != 1.0)
    exact = _hurwitz_reference(w, x)
    try:
        value = classical_hurwitz(w, x)
    except ConvergenceError:
        return
    assert abs(value - exact) <= 1e-11 * max(1, abs(exact)), (value, exact)


for _point in ROUNDING_TABLE:
    test_classical_hurwitz_within_tolerance_or_refuses = example(*_point)(
        test_classical_hurwitz_within_tolerance_or_refuses)


@pytest.mark.parametrize("w,x", [(-9.5, 1.0), (-7.5, 0.2), (-6.5, 1.0)])
def test_classical_hurwitz_refuses_where_rounding_swamps_the_value(w, x):
    """zeta = -0.0066722, 0.0041051 and 0.0027468, but the rounding of the head,
    which cancels against the tail, may reach 3.8e-4, 1.1e-6 and 9.9e-10."""
    with pytest.raises(ConvergenceError, match="Euler-Maclaurin error"):
        classical_hurwitz(w, x)


@pytest.mark.parametrize("w,x", [(-3.5, 0.2), (-3.5, 1.0), (-3.5, 4.0), (-4.5, 4.0), (-6.5, 4.0)])
def test_classical_hurwitz_answers_where_its_bound_allows(w, x):
    exact = _hurwitz_reference(w, x)
    assert abs(classical_hurwitz(w, x) - exact) <= 5e-12 * max(1, abs(exact))


def test_classical_hurwitz_never_refuses_on_the_bench_range():
    """The bench draws w in [-4, 6], at least 0.1 from an integer, and x in [0.2, 4]."""
    for k in range(-4, 6):
        for i in range(41):
            for j in range(77):
                classical_hurwitz(k + 0.1 + 0.02 * i, 0.2 + 0.05 * j)


@pytest.mark.parametrize("w", range(-11, 1))
def test_classical_hurwitz_integer_orders_are_bernoulli_polynomials(w):
    """zeta(w, x) = -B_(1-w)(x) / (1 - w), from the expansion at x + 1; a tiny x, whose
    power x^(-w) underflows, still gives B_(1-w)(0+)."""
    for x in (5e-324, 1e-120, 1e-30, 1e-29, 0.3, 1.0, 2.5, 7.0):
        exact = -mpmath.bernpoly(1 - w, x) / (1 - w)
        assert classical_hurwitz(float(w), x) == pytest.approx(float(exact), rel=1e-13,
                                                                abs=1e-14)


# ---------------------------------------------------------------------------
# normalized log-gamma and the reflection identity

@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.5, 13.7, 20.0])
def test_log_gamma_one_vs_libm(x):
    expected = math.lgamma(x) - 0.5 * math.log(2.0 * math.pi)
    assert log_gamma_one(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_log_gamma_one_runs_the_kernel_once(monkeypatch):
    """N is chosen from the closed-form B_12 slope term, so one kernel call per value,
    also where N = 16 (small x) and across the switch to N = 8 (x near 3)."""
    calls = []
    kernel = numerics._euler_maclaurin

    def counted(w, y):
        calls.append(y)
        return kernel(w, y)

    monkeypatch.setattr(numerics, "_euler_maclaurin", counted)
    for x in (1e-300, 0.05, 1.3, 2.6, 2.8, 3.3, 3.8, 50.0, 1e12):
        calls.clear()
        expected = math.lgamma(x) - 0.5 * math.log(2.0 * math.pi)
        assert log_gamma_one(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert len(calls) == 1


def test_lgamma_classical_vs_libm():
    """The classical log Gamma is log_gamma_one plus (1/2) log(2 pi)."""
    for x in (0.2, 1.0, 3.3, 11.0):
        classical = log_gamma_one(x) + 0.5 * math.log(2.0 * math.pi)
        assert classical == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)


def test_log_gamma_one_validation():
    with pytest.raises(DomainError):
        log_gamma_one(0.0)
    with pytest.raises(DomainError):
        log_gamma_one(-1.3)


@pytest.mark.parametrize("s", [0.25, 0.5, -1.0 / 3.0, 2.2, -2.7])
def test_euler_reflection_identity(s):
    left, right = euler_reflection_check(s)
    assert left == pytest.approx(right, rel=1e-10)
    assert right == pytest.approx(-1.0 / (2.0 * math.sin(math.pi * s)), rel=1e-14)


@pytest.mark.parametrize("s", [0.0, 1.0, -2.0])
def test_euler_reflection_poles(s):
    with pytest.raises(DomainError):
        euler_reflection_check(s)


def test_reflection_continuation_adds_as_the_recursion_does():
    """The loop adds -Log(x + k) onto log_gamma_one(x + k) from the innermost
    term outward: bit for bit the recursion lg(x) = -Log(x) + lg(x + 1)."""
    def recursive(x):
        if x > 0.0:
            return complex(log_gamma_one(x))
        return -cmath.log(complex(x)) + recursive(x + 1.0)
    for x in (-0.5, -3.7, -123.25, -600.1):
        assert numerics._log_gamma_one_analytic(x) == recursive(x)


@pytest.mark.parametrize("s", [1234.5, -1234.5, 16383.5, -16383.5])
def test_euler_reflection_at_large_s(s):
    left, right = euler_reflection_check(s)
    assert left == pytest.approx(right, rel=1e-9)
    with pytest.raises(ParameterRangeError, match="16384"):
        euler_reflection_check(math.copysign(16384.5, s))


def test_bernoulli_table_is_exact():
    """The Euler-Maclaurin coefficients are B_2k / (2k)! for B_2 .. B_12, each rounded
    once; the Bernoulli numbers come from sum_{j <= m} C(m + 1, j) B_j = 0."""
    b = [F(1)]
    for m in range(1, 13):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    assert b[2::2] == [F(1, 6), F(-1, 30), F(1, 42), F(-1, 30), F(5, 66), F(-691, 2730)]
    assert EULER_MACLAURIN_COEFFICIENTS == tuple(
        float(b[2 * k] / math.factorial(2 * k)) for k in range(1, 7))
