"""Symbolic shifted-power products and functional-equation checks.

Claims covered:
- zeta_of maps exponent alpha with multiplicity m to a factor (s-alpha)^-m,
  and negating the exponents gives the counting function back;
- canonical printing is root-ascending with "s^e" for root zero;
- products multiply/invert/shift consistently (numeric cross-check);
- numerical evaluation agrees with direct complex arithmetic and with the
  rational sums at integer w (a sum that cancels below float rounding is
  taken in Fractions of s, within the packed-bit budget), raises at
  poles/zeros (a Hurwitz term at its shift is 0 for Re w < 0 and 1 at
  w = 0), warns on branch-cut evaluation, and refuses a term whose phase
  w log(s - a) is lost in rounding, or, at a real non-integer w and a real s, a sum
  whose rounding passes MAX_PRODUCT_ROUNDING of its value; the zeta's value is exp of
  the Hurwitz form's w-derivative at 0;
- a power product whose float log sum rounds past MAX_PRODUCT_ROUNDING is
  summed in decimal at a real point with integer exponents, within a digit
  budget, and refused elsewhere;
- reflection across a center produces the factor map of P(c-s), and the
  functional-equation verdict and mismatch triples match a brute-force
  factor comparison;
- a Hurwitz-type form is its counting function, printed by hurwitz_str.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import abszeta.counting as cf
from abszeta.errors import (BranchCutWarning, ConvergenceError, DomainError,
                            ParameterRangeError, PoleError, PreconditionError)
from abszeta.symzeta import (
    FEParams,
    PowerProduct,
    check_functional_equation,
    eval_hurwitz,
    eval_power_product,
    hurwitz_str,
    normalize_power_product,
    reflected,
    zeta_of,
)

SL2 = cf.normalize([(3, 1), (1, -1)])

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
int_exps = st.integers(min_value=-4, max_value=4)
products = st.lists(st.tuples(rationals, int_exps), max_size=4).map(normalize_power_product)


def _inverse(p: PowerProduct) -> PowerProduct:
    return PowerProduct(tuple((r, -e) for r, e in p.factors), p.variable)


# ---------------------------------------------------------------------------
# structure builders

def test_zeta_of_negates_multiplicities():
    z = zeta_of(SL2)
    assert z.factor_map() == {F(3): F(-1), F(1): F(1)}
    assert str(z) == "(s-1)^1 * (s-3)^-1"


def test_hurwitz_of_preserves_multiplicities():
    assert hurwitz_str(SL2) == "(s-3)^-w - (s-1)^-w"
    assert hurwitz_str(cf.U, "x") == "(x-1)^-w"
    assert hurwitz_str(cf.ZERO) == "0"


def test_counting_of_product_inverts_zeta_of():
    for n in (SL2, cf.ZERO, cf.U_MINUS_ONE ** 3):
        z = zeta_of(n)
        assert cf.CountingFunction(tuple((r, -e) for r, e in reversed(z.factors))) == n


def test_spec_f1_prints_bare_variable():
    z = zeta_of(cf.ONE)
    assert str(z) == "s^-1"
    assert str(zeta_of(cf.ONE, variable="w")) == "w^-1"


def test_print_order_is_root_ascending():
    p = normalize_power_product([(2, 1), (-1, 3), (F(1, 2), -2)])
    assert str(p) == "(s+1)^3 * (s-1/2)^-2 * (s-2)^1"
    assert str(PowerProduct(())) == "1"


def test_normalization_merges_and_drops():
    p = normalize_power_product([(1, 2), (1, -2), (0, 1)])
    assert p.factor_map() == {F(0): F(1)}
    assert normalize_power_product([(5, 3), (5, -3)]).is_one()


def test_product_operations():
    z = zeta_of(SL2)
    assert z.times(_inverse(z)).is_one()
    assert z.times(z).factor_map() == {F(3): F(-2), F(1): F(2)}
    assert z.exponent_sum() == 0
    assert [r for r, _ in z.factors] == [F(1), F(3)]


def test_shift_moves_roots():
    p = normalize_power_product([(0, -1), (-1, 2)])
    q = p.shifted(3)
    assert q.factor_map() == {F(3): F(-1), F(2): F(2)}
    assert p.shifted(0) == p
    assert p.shifted(1, "t") == normalize_power_product([(1, -1), (0, 2)], "t")


# ---------------------------------------------------------------------------
# evaluation

def test_eval_power_product_matches_direct_arithmetic():
    z = zeta_of(SL2)
    for s in (5.0, 2.0 + 1.0j, -4.0, 0.5j):
        direct = (s - 1) / (s - 3)
        assert eval_power_product(z, s) == pytest.approx(direct, rel=1e-13)


def test_eval_power_product_pole_and_zero():
    z = zeta_of(SL2)
    with pytest.raises(PoleError):
        eval_power_product(z, 3.0)
    assert eval_power_product(z, 1.0) == 0


def test_eval_power_product_past_float_rounding():
    """A log sum whose float rounding passes MAX_PRODUCT_ROUNDING is summed in decimal
    at a real point with integer exponents: (s - 1)^(10^12) / s^(10^12) at s = 2 is
    2^-10^12, below the float range, so 0.0.  Past MAX_PACKED_BITS log10 2 digits of
    precision times terms it is refused, before any decimal log; a complex point or
    a non-integer exponent is refused as before."""
    big = 10 ** 12
    assert eval_power_product(normalize_power_product([(0, -big), (1, big)]), 2.0) == 0
    many = normalize_power_product([(-k, (-1) ** k * 10 ** 6) for k in range(60000)])
    start = time.perf_counter()
    with pytest.raises(ParameterRangeError, match="digits"):
        eval_power_product(many, 0.5)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ConvergenceError, match="log sum"):
        eval_power_product(normalize_power_product([(0, -big), (1, big)]), 2.0 + 1e-3j)
    with pytest.raises(ConvergenceError, match="log sum"):
        eval_power_product(normalize_power_product([(0, -big), (1, F(big + 1, 2))]), 2.0)


def test_eval_power_product_branch_cut_warns():
    p = normalize_power_product([(F(0), F(1, 2))])  # s^(1/2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BranchCutWarning):
            eval_power_product(p, -4.0)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        val = eval_power_product(p, -4.0)
    assert [w for w in rec if issubclass(w.category, BranchCutWarning)]
    assert val == pytest.approx(2.0j, rel=1e-13)


def test_eval_hurwitz_values():
    w, s = 2.0, 5.0
    expected = (s - 3) ** -w - (s - 1) ** -w
    assert eval_hurwitz(SL2, w, s) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(PoleError):
        eval_hurwitz(SL2, 2.0, 3.0)


def test_eval_hurwitz_exact():
    """At integer w the form is a rational sum, which the evaluation meets."""
    assert eval_hurwitz(SL2, 2, 5) == pytest.approx(float(F(1, 4) - F(1, 16)), rel=1e-14)
    assert eval_hurwitz(SL2, -1, 4) == pytest.approx(float(F(1) - F(3)), rel=1e-14)
    assert eval_hurwitz(SL2, 0, 4) == 0
    with pytest.raises(PoleError):
        eval_hurwitz(SL2, 2, 3)


def test_eval_hurwitz_takes_a_cancelling_sum_exactly():
    """sum_k C(r, k) (-1)^(r - k) (s - k)^(-w) is an r-th difference, far below its
    terms; at a real integer w and a real s it is summed in Fractions of s and rounded
    once (floats gave 3.3461e-3 for r = 40, w = 1, s = 41.5, and 3.46e-14 for the
    4.883e-15 of r = 23, w = 3, s = 44.5), unless its exact powers pass MAX_PACKED_BITS bits."""
    def exact(r, w, s):
        return float(sum(F(math.comb(r, k) * (-1) ** (r - k)) * (F(s) - k) ** -w
                         for k in range(r + 1)))
    for r, w, s in [(40, 1, 41.5), (40, -45, 41.5), (90, -95, 0.5), (40, 3, -0.5), (23, 3, 44.5)]:
        assert eval_hurwitz(cf.tensor_power(cf.U_MINUS_ONE, r), w, s) == exact(r, w, s)
    with pytest.raises(ParameterRangeError, match="exact powers exceed 4194304 bits"):
        eval_hurwitz(cf.tensor_power(cf.U_MINUS_ONE, 90), -95, 5e-324)  # 2^-1074 in each base


def test_eval_hurwitz_refuses_a_real_sum_lost_in_rounding():
    """At a real non-integer w and a real s, eps sum |term| above MAX_PRODUCT_ROUNDING
    |sum| raises: floats gave 1.0010e-3 for (u - 1)^40 at w = 1/2, s = 41.5, where the
    sum is 1.00433e-3.  (u - 1)^12 at s = 13.5 keeps its float value, 6.2e-12 off."""
    with pytest.raises(ConvergenceError, match="cancels: its rounding may reach"):
        eval_hurwitz(cf.tensor_power(cf.U_MINUS_ONE, 40), 0.5, 41.5)
    with mpmath.workdps(60):
        exact = mpmath.fsum(math.comb(12, k) * (-1) ** k * (mpmath.mpf(13.5) - k) ** -0.5
                            for k in range(13))
    value = eval_hurwitz(cf.tensor_power(cf.U_MINUS_ONE, 12), 0.5, 13.5)
    assert value == 0.006731371417147747
    assert abs(value - exact) < 1e-11


def test_eval_hurwitz_at_a_shift():
    """At s = a the term (s - a)^(-w) is 1 at w = 0 and 0 for Re w < 0; a
    pole for any other w, Re w >= 0 and w != 0."""
    assert eval_hurwitz(SL2, 0, 3) == 0   # 1 - 1
    assert eval_hurwitz(SL2, 0, 1) == 0
    n = cf.normalize([(3, 2), (1, -1)])  # 2u^3 - u
    assert eval_hurwitz(n, 0, 3) == 1    # 2 - 1
    assert eval_hurwitz(n, -1, 3) == -2  # 2 * 0 - (3 - 1)
    assert eval_hurwitz(n, -0.5 + 4j, 3) == pytest.approx(-(2 ** (0.5 - 4j)), rel=1e-13)
    for w in (2, 1j, 1e-300):
        with pytest.raises(PoleError, match="coincides with shift 3"):
            eval_hurwitz(n, w, 3)


def test_eval_hurwitz_refuses_phases_lost_in_rounding():
    """eps |Im(w log(s - a))| above MAX_PRODUCT_ROUNDING raises; a phase of 0 does not,
    and a real integer w at a negative real s - a takes its sign from its parity."""
    u2 = cf.normalize([(2, 1)])
    with pytest.raises(ConvergenceError, match="lost in rounding"):
        eval_hurwitz(u2, 1e17, 1 + 1j)                 # phase 2.4e17 at s - a = -1 + i
    with pytest.raises(ConvergenceError):
        eval_hurwitz(u2, 1 + 1e16j, 5)                 # phase 1e16 log 3
    assert eval_hurwitz(u2, 1e17, 1) == 1              # (-1)^(-1e17), not pi 1e17
    assert eval_hurwitz(u2, 1e6, 1) == 1
    assert eval_hurwitz(u2, 3, 0.5) == -1 / 1.5 ** 3
    assert eval_hurwitz(u2, -3, 1) == -1
    assert eval_hurwitz(cf.normalize([(1, 1), (0, -1)]), 1e300, 3) == 0


def test_log_derivative_at_zero_matches_log_of_product():
    """zeta(s) is exp of the w-derivative at w = 0 of the Hurwitz form,
    -sum m(a) log(s - a), taken here by a central difference."""
    z = zeta_of(SL2)
    s, h = 6.0, 1e-5
    val = (eval_hurwitz(SL2, h, s) - eval_hurwitz(SL2, -h, s)) / (2 * h)
    assert val == pytest.approx(-sum(float(m) * cmath.log(s - a) for a, m in SL2.terms),
                                rel=1e-9)
    assert cmath.exp(val) == pytest.approx(eval_power_product(z, s), rel=1e-9)


@settings(max_examples=60)
@given(products, products)
def test_times_is_pointwise_multiplication_numerically(p, q):
    s = 7.3  # larger than any root produced by the strategy
    lhs = eval_power_product(p.times(q), s)
    rhs = eval_power_product(p, s) * eval_power_product(q, s)
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# reflection / functional equation

def test_reflected_matches_substitution():
    z = zeta_of(SL2)
    q, sign = reflected(z, F(4))
    s = 2.0 + 0.7j
    direct = eval_power_product(z, 4 - s)
    assert sign * eval_power_product(q, s) == pytest.approx(direct, rel=1e-12)


def test_reflected_rejects_fractional_exponents():
    p = normalize_power_product([(0, F(1, 2))])
    with pytest.raises(PreconditionError):
        reflected(p, F(1))


def brute_force_fe(p: PowerProduct, center: F, sign: int) -> tuple[bool, list]:
    """The verdict and the (root, exponent, reflected exponent) mismatches,
    from the factor maps of P and of Q^sign, where P(center - s) = +-Q(s)."""
    refl, refl_sign = reflected(p, center)
    target = (refl if sign == 1 else _inverse(refl)).factor_map()
    original = p.factor_map()
    mismatches = [(root, original.get(root, F(0)), target.get(root, F(0)))
                  for root in sorted(original.keys() | target.keys())
                  if original.get(root, F(0)) != target.get(root, F(0))]
    return target == original and refl_sign == 1, mismatches


def test_check_fe_sl2():
    rep = check_functional_equation(zeta_of(SL2), FEParams(F(4), -1))
    assert rep.holds and rep.parity_sum % 2 == 0 and not rep.mismatches


def test_check_fe_negative_control():
    rep = check_functional_equation(zeta_of(cf.ONE), FEParams(F(1), 1))
    assert not rep.holds
    assert rep.mismatches


def test_check_fe_reports_mismatch_roots():
    p = normalize_power_product([(0, -1), (2, -2)])
    rep = check_functional_equation(p, FEParams(F(2), 1))
    assert not rep.holds
    assert any(root in (F(0), F(2)) for root, *_ in rep.mismatches)


@settings(max_examples=80)
@given(products, st.fractions(min_value=-3, max_value=3, max_denominator=2),
       st.sampled_from([1, -1]))
def test_check_fe_agrees_with_brute_force(p, center, sign):
    rep = check_functional_equation(p, FEParams(center, sign))
    holds, mismatches = brute_force_fe(p, center, sign)
    assert rep.holds == holds
    assert list(rep.mismatches) == mismatches
    assert all(type(v) is F for triple in rep.mismatches for v in triple)


@settings(max_examples=40)
@given(products, st.sampled_from([1, -1]))
def test_symmetrized_product_always_satisfies_fe(p, sign):
    """p(s) * p(c-s)^sign satisfies the equation with that center and sign.

    The symmetrization doubles (sign +1) or cancels (sign -1) the exponent
    sum, so the parity condition holds automatically as well.
    """
    center = F(5)
    refl, _ = reflected(p, center)
    sym = p.times(refl if sign == 1 else _inverse(refl))
    rep = check_functional_equation(sym, FEParams(center, sign))
    assert rep.holds
    assert not rep.mismatches


def test_fe_params_validation():
    with pytest.raises(DomainError):
        FEParams(F(1), 2)
