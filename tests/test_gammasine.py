"""Gamma and sine functions of negative integer order.

Claims covered:
- the order -r series terminates and its gamma function is the finite
  product prod (x+n)^((-1)^(n+1) C(r,n)) (oracle: direct float product),
  the zeta of the binomial Hurwitz form, which evaluates to its sum;
- the companion sine function is exactly the constant 1, for unit
  periods and for arbitrary positive rational periods;
- reflecting the gamma product across -(total period) reproduces it with
  alternating exponent sign (checked numerically too);
- the subset-sum recurrence of the multi-period gamma equals the 2^r
  subset enumeration (test-only oracle), coinciding sums included, and
  both sines, reflected on integer subset sums, equal that enumeration
  reflected in Fractions;
- the tensor-power functional-equation check passes for r = 1..8;
- parameter validation of period vectors and order specs, and the rank
  and subset-step budgets.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import abszeta.counting as cf
from abszeta.errors import ParameterRangeError
from abszeta.gammasine import (
    MAX_PERIODS,
    MAX_SUBSET_STEPS,
    MultiGammaSpec,
    PeriodVector,
    as_period_vector,
    multiperiod_gamma,
    multiperiod_sine,
    neg_gamma,
    neg_sine,
    tensor_power_fe_check,
)
from abszeta.symzeta import (eval_hurwitz, eval_power_product, hurwitz_str,
                             normalize_power_product, reflection_defect, zeta_of)

period_lists = st.lists(
    st.fractions(min_value=F(1, 4), max_value=5, max_denominator=8),
    min_size=1, max_size=5)


# ---------------------------------------------------------------------------
# order -r building blocks

def _order_form(r: int) -> cf.CountingFunction:
    """The Hurwitz-type form of order -r: shift -n carries (-1)^n C(r, n), n = 0..r."""
    return cf.normalize((-n, (-1) ** n * math.comb(r, n)) for n in range(r + 1))


def test_neg_zeta_terms_small_orders():
    assert _order_form(2).terms == ((F(0), F(1)), (F(-1), F(-2)), (F(-2), F(1)))
    assert hurwitz_str(_order_form(1), "x") == "x^-w - (x+1)^-w"
    for r in range(1, 9):  # the w-derivative at 0 of the form, exponentiated
        assert zeta_of(_order_form(r), "x") == neg_gamma(r)


@pytest.mark.parametrize("r", range(1, 7))
def test_neg_zeta_terms_evaluates_to_binomial_sum(r):
    w, x = 2.7, 1.3
    oracle = sum((-1) ** n * math.comb(r, n) * (n + x) ** -w for n in range(r + 1))
    assert eval_hurwitz(_order_form(r), w, x) == pytest.approx(oracle, rel=1e-13)


def test_neg_gamma_order_minus_one_is_ratio():
    g = neg_gamma(1)
    assert g.factor_map() == {F(0): F(-1), F(-1): F(1)}
    assert str(g) == "(x+1)^1 * x^-1"
    assert eval_power_product(g, 2.0) == pytest.approx(1.5)


@pytest.mark.parametrize("r", range(1, 8))
def test_neg_gamma_matches_float_product_oracle(r):
    x = 0.75
    oracle = math.prod((x + n) ** ((-1) ** (n + 1) * math.comb(r, n))
                       for n in range(r + 1))
    assert eval_power_product(neg_gamma(r), x) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("r", range(1, 8))
def test_neg_gamma_exponent_sum_vanishes(r):
    assert neg_gamma(r).exponent_sum() == 0


# ---------------------------------------------------------------------------
# sine triviality and the reflection behind it

@pytest.mark.parametrize("r", range(1, 11))
def test_neg_sine_is_exactly_one(r):
    s = neg_sine(r)
    assert s.is_one()
    assert str(s) == "1"


@pytest.mark.parametrize("r", [1, 2, 3, 5])
@pytest.mark.parametrize("x", [0.3, 1.7, 4.25])
def test_gamma_reflection_identity_numerically(r, x):
    """gamma(-r - x)^((-1)^r) == gamma(x): the identity the sine encodes."""
    g = neg_gamma(r)
    left = eval_power_product(g, -r - x) ** ((-1) ** r)
    right = eval_power_product(g, x)
    assert left == pytest.approx(right, rel=1e-11)


# ---------------------------------------------------------------------------
# multi-period variant

def test_multiperiod_unit_periods_reduce_to_neg_gamma():
    for r in range(1, 6):
        spec = MultiGammaSpec(-r, PeriodVector((F(1),) * r))
        assert multiperiod_gamma(spec) == neg_gamma(r)


def test_multiperiod_gamma_two_distinct_periods():
    spec = MultiGammaSpec(-2, PeriodVector((F(1), F(2))))
    g = multiperiod_gamma(spec)
    assert g.factor_map() == {F(0): F(-1), F(-1): F(1), F(-2): F(1), F(-3): F(-1)}


def test_multiperiod_gamma_subset_cancellation():
    # periods (1, 1, 2): the sum-2 contributions of subset {2} (sign +) and
    # subset {1, 1} (sign -) cancel, so no factor survives at root -2
    spec = MultiGammaSpec(-3, PeriodVector((F(1), F(1), F(2))))
    g = multiperiod_gamma(spec)
    assert g.factor_map() == {F(0): F(-1), F(-1): F(2),
                              F(-3): F(-2), F(-4): F(1)}


def subset_oracle(periods):
    """The defining 2^r enumeration: subset S gives (x + sum S)^((-1)^(|S|+1))."""
    return normalize_power_product(
        ((-sum(combo, F(0)), (-1) ** (k + 1))
         for k in range(len(periods) + 1) for combo in combinations(periods, k)),
        variable="x")


def sine_oracle(periods):
    """gamma(x)^(-1) * gamma(-|w| - x)^((-1)^r) from the subset oracle, in Fractions."""
    g = subset_oracle(periods)
    center, sign = -sum(periods, F(0)), (-1) ** len(periods)
    return normalize_power_product(
        [(root, -e) for root, e in g.factors]
        + [(center - root, sign * e) for root, e in g.factors], variable="x")


@pytest.mark.parametrize("seed", range(12))
def test_multiperiod_gamma_matches_subset_enumeration(seed):
    """The gamma, and both sines reflected on integer sums, against the enumeration."""
    rng = random.Random(seed)
    r = seed + 1
    # even seeds draw from a few small values, so many subset sums coincide
    pool = [F(1), F(2), F(3), F(1, 2), F(3, 2)]
    periods = tuple(rng.choice(pool) if seed % 2 == 0 else F(rng.randint(1, 40), rng.randint(1, 9))
                    for _ in range(r))
    spec = MultiGammaSpec(-r, PeriodVector(periods))
    assert multiperiod_gamma(spec) == subset_oracle(periods), periods
    assert multiperiod_sine(spec) == sine_oracle(periods), periods
    assert neg_sine(r) == sine_oracle((F(1),) * r)


def test_sine_reflection_keeps_keys_the_gamma_lacks():
    """The integer reflection on an exponent map whose keys are not symmetric."""
    exponents, total = {0: -1, 1: 2, 3: -1, 4: 0}, 5
    for sign in (-1, 1):
        expected = normalize_power_product(
            [(t, -e) for t, e in exponents.items()]
            + [(total - t, sign * e) for t, e in exponents.items()])
        defect = reflection_defect(exponents, total, sign)
        assert defect == {int(t): int(e) for t, e in expected.factors}
        assert all(type(t) is int and type(e) is int and e for t, e in defect.items())
        assert defect


@settings(max_examples=60)
@given(period_lists)
def test_multiperiod_sine_trivial_for_any_periods(periods):
    spec = MultiGammaSpec(-len(periods), PeriodVector(tuple(periods)))
    assert multiperiod_sine(spec).is_one()


@settings(max_examples=40)
@given(period_lists)
def test_multiperiod_gamma_exponent_sum_vanishes(periods):
    spec = MultiGammaSpec(-len(periods), PeriodVector(tuple(periods)))
    assert multiperiod_gamma(spec).exponent_sum() == 0


# ---------------------------------------------------------------------------
# tensor-power functional equation

@pytest.mark.parametrize("r", range(1, 9))
def test_tensor_power_fe_check_passes(r):
    rep = tensor_power_fe_check(r)
    assert rep.passed
    assert f"sign={(-1) ** r:+d}" in rep.detail


def test_tensor_power_zeta_equals_shifted_gamma():
    for r in range(1, 9):
        z = zeta_of(cf.tensor_power(cf.U_MINUS_ONE, r))
        assert z.factor_map() == neg_gamma(r).shifted(r).factor_map()


# ---------------------------------------------------------------------------
# validation

def test_period_vector_validation():
    with pytest.raises(ParameterRangeError):
        PeriodVector(())
    with pytest.raises(ParameterRangeError):
        PeriodVector((F(0),))
    with pytest.raises(ParameterRangeError):
        PeriodVector((F(-1), F(2)))
    with pytest.raises(ParameterRangeError):
        PeriodVector((F(1),) * (MAX_PERIODS + 1))
    PeriodVector((F(1),) * MAX_PERIODS)  # the periods of Gm^MAX_PERIODS
    pv = as_period_vector([1, "3/2"])
    assert pv.total() == F(5, 2)
    assert str(pv) == "(1,3/2)"
    assert as_period_vector(pv) is pv


def test_subset_step_budget():
    """Distinct subset sums, not 2^r, set the work; periods with 2^r of them hit the budget."""
    generic = tuple(F(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))
    assert len(generic) * 2 ** len(generic) > MAX_SUBSET_STEPS
    with pytest.raises(ParameterRangeError, match="subset-sum steps"):
        PeriodVector(generic)
    PeriodVector(generic[:12])
    PeriodVector(tuple(F(j) for j in range(1, 37)))  # GL(36): 36 periods, 667 sums


@pytest.mark.parametrize("make", [neg_gamma, neg_sine, tensor_power_fe_check])
def test_order_magnitude_budget(make):
    with pytest.raises(ParameterRangeError, match="rank budget"):
        make(MAX_PERIODS + 1)


def test_multigamma_spec_validation():
    with pytest.raises(ParameterRangeError):
        MultiGammaSpec(0, PeriodVector((F(1),)))
    with pytest.raises(ParameterRangeError):
        MultiGammaSpec(2, PeriodVector((F(1), F(1))))
    with pytest.raises(ParameterRangeError):
        MultiGammaSpec(-3, PeriodVector((F(1), F(1))))


@pytest.mark.parametrize("bad", [0, -1, F(3, 2), 2.0, True])
def test_order_magnitude_validation(bad):
    with pytest.raises(ParameterRangeError):
        neg_gamma(bad)
