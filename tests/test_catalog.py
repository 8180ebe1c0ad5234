"""Scheme catalog: counting functions, zeta factorizations, equation data.

Claims covered:
- counting functions of the named schemes match independent expansions
  (sympy polynomial oracle for SL/GL, binomial expansion for Gm^r), and
  for every kind up to rank 14 the parsed closed form (hypothesis), with
  every term and zeta factor a pair of exact Fractions;
- zeta_of_scheme agrees with hand-computed factorizations for the small
  schemes, equals the shifted multi-period gamma for every kind up to rank
  12, and its cross-check against that gamma refuses wrong counting maps
  and a wrong gamma;
- the rank budget refuses a total period above MAX_TOTAL_PERIOD unexpanded;
- dimension equals the top exponent of the counting function, and rank
  the number of periods;
- functional-equation parameters: center 2d - |periods|, alternating
  sign, verified to actually hold for a wide parameter sweep;
- SpecF1 has no equation on record; a counting function outside the
  table is its own scheme, whose zeta is zeta_of of it.
"""

from __future__ import annotations

import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import abszeta.catalog as cat
import abszeta.counting as cf
from abszeta.errors import NoFunctionalEquationError, ParameterRangeError
from abszeta.gammasine import MultiGammaSpec, multiperiod_gamma
from abszeta.parser import parse_expr
from abszeta.symzeta import check_functional_equation, zeta_of


def sympy_counting(spec: cat.SchemeSpec):
    """Independent expansion of the defining product, as a sympy Poly dict."""
    u = sympy.Symbol("u")
    if spec.kind == cat.SL:
        expr = u ** (spec.r ** 2 - 1) * sympy.prod(
            [1 - u ** (-j) for j in range(2, spec.r + 1)])
    elif spec.kind == cat.GL:
        expr = u ** (spec.r ** 2) * sympy.prod(
            [1 - u ** (-j) for j in range(1, spec.r + 1)])
    elif spec.kind == cat.GM_TENSOR:
        expr = (u - 1) ** spec.r
    elif spec.kind == cat.GM:
        expr = u - 1
    else:
        expr = sympy.Integer(1)
    poly = sympy.Poly(sympy.expand(expr), u)
    return {F(int(e)): F(int(c)) for (e,), c in poly.terms()}


# ---------------------------------------------------------------------------
# counting functions

def test_base_cases():
    assert cat.counting_of(cat.spec_f1()) == cf.ONE
    assert cat.counting_of(cat.gm()) == cf.U_MINUS_ONE
    assert cat.counting_of(cat.gm_tensor(1)) == cf.U_MINUS_ONE


def test_sl2_counting():
    assert dict(cat.counting_of(cat.sl(2)).terms) == {F(3): F(1), F(1): F(-1)}


def test_gl2_counting():
    # u^4 (1 - 1/u)(1 - 1/u^2) = u^4 - u^3 - u^2 + u
    assert dict(cat.counting_of(cat.gl(2)).terms) == {
        F(4): F(1), F(3): F(-1), F(2): F(-1), F(1): F(1)}


@pytest.mark.parametrize("spec", [
    cat.gm(), cat.gm_tensor(2), cat.gm_tensor(5),
    cat.sl(2), cat.sl(3), cat.sl(4), cat.sl(5),
    cat.gl(1), cat.gl(2), cat.gl(3), cat.gl(4),
])
def test_counting_matches_sympy_expansion(spec):
    assert dict(cat.counting_of(spec).terms) == sympy_counting(spec)


@pytest.mark.parametrize("spec,expected_d,expected_rank", [
    (cat.spec_f1(), 0, 0),
    (cat.gm(), 1, 1),
    (cat.gm_tensor(4), 4, 4),
    (cat.sl(3), 8, 2),
    (cat.gl(3), 9, 3),
])
def test_dimension_and_rank(spec, expected_d, expected_rank):
    assert spec.dimension == expected_d
    assert spec.rank == expected_rank
    n = cat.counting_of(spec)
    if not n.is_zero():
        assert n.max_exponent() == expected_d


def test_period_vectors():
    assert cat.sl(4).periods.periods == (F(2), F(3), F(4))
    assert cat.gl(4).periods.periods == (F(1), F(2), F(3), F(4))
    assert cat.gm_tensor(3).periods.periods == (F(1), F(1), F(1))
    assert cat.spec_f1().periods is None


def test_names():
    assert cat.sl(2).name == "SL(2)"
    assert cat.gl(1).name == "GL(1)"
    assert cat.gm_tensor(2).name == "Gm^2"
    assert cat.gm().name == "Gm"


# ---------------------------------------------------------------------------
# zeta factorizations

def test_zeta_spec_f1():
    assert str(cat.zeta_of_scheme(cat.spec_f1())) == "s^-1"


def test_zeta_sl2():
    assert str(cat.zeta_of_scheme(cat.sl(2))) == "(s-1)^1 * (s-3)^-1"


def test_zeta_gl1():
    assert str(cat.zeta_of_scheme(cat.gl(1))) == "s^1 * (s-1)^-1"


def test_zeta_gl2():
    z = cat.zeta_of_scheme(cat.gl(2))
    assert z.factor_map() == {F(4): F(-1), F(3): F(1), F(2): F(1), F(1): F(-1)}


@pytest.mark.parametrize("spec", [
    cat.gm(), cat.gm_tensor(2), cat.gm_tensor(6),
    cat.sl(2), cat.sl(3), cat.sl(4), cat.sl(5), cat.sl(6),
    cat.gl(1), cat.gl(2), cat.gl(3), cat.gl(4), cat.gl(5),
])
def test_zeta_internal_cross_check_passes(spec):
    """The counting route passes the cross-check against the periods' gamma."""
    z = cat.zeta_of_scheme(spec)
    assert z == zeta_of(cat.counting_of(spec))


RANKED = ([cat.gm()] + [cat.gm_tensor(r) for r in range(1, 13)]
          + [cat.sl(r) for r in range(2, 14)] + [cat.gl(r) for r in range(1, 13)])


@pytest.mark.parametrize("spec", RANKED, ids=[s.name for s in RANKED])
def test_zeta_equals_shifted_multiperiod_gamma(spec):
    """The paper's identity: zeta of the scheme is its periods' gamma at s - d."""
    gamma = multiperiod_gamma(MultiGammaSpec(-spec.rank, spec.periods))
    assert cat.zeta_of_scheme(spec) == gamma.shifted(spec.dimension, variable="s")


@st.composite
def catalog_specs(draw):
    kind = draw(st.sampled_from(sorted(cat.SCHEMES)))
    min_r = cat.SCHEMES[kind].min_r
    return cat.SchemeSpec(kind) if min_r is None else cat.SchemeSpec(
        kind, draw(st.integers(min_r, 14)))


def _closed_form(spec):
    row = cat.SCHEMES[spec.kind]
    return "*".join([f"u^{row.dimension(spec.r)}"] + [f"(1-u^-{w})" for w in row.periods(spec.r)])


@settings(max_examples=100, deadline=None)
@given(catalog_specs())
def test_integer_route_matches_the_closed_form(spec):
    """The integer expansion is the parsed product u^d*(1-u^-w1)*..., its zeta
    is zeta_of of it, and every term and factor is a pair of exact Fractions
    (an int would compare equal, so the types are checked)."""
    n = cat.counting_of(spec)
    assert n == parse_expr(_closed_form(spec))
    z = cat.zeta_of_scheme(spec)
    assert z == zeta_of(n)
    assert all(type(x) is F for pair in n.terms + z.factors for x in pair)


def _wrong_maps(n):
    terms = list(n.terms)
    mid = len(terms) // 2
    yield cf.ZERO
    yield cf.otimes(n, cf.U)                                        # shifted up
    yield cf.CountingFunction(tuple(terms[:-1]))                    # lowest term lost
    yield cf.oplus(n, cf.normalize([(terms[mid][0], 1)]))           # one coefficient off
    yield cf.oplus(n, cf.normalize([(terms[mid][0] - F(1, 2), 1)]))  # a fractional exponent
    yield cf.normalize(terms[:mid] + [(a, m / 2) for a, m in terms[mid:]])  # fractional coefficients


@pytest.mark.parametrize("spec", [cat.gm(), cat.gm_tensor(5), cat.sl(4), cat.gl(4)],
                         ids=lambda s: s.name)
def test_cross_check_refuses_wrong_counting(spec, monkeypatch):
    """The expansion the cross-check reads is integer (E, C) pairs; a wrong
    map's fractional exponent or coefficient is fed to it as a Fraction."""
    right = cat.counting_of(spec)
    for wrong in _wrong_maps(right):
        assert wrong != right
        monkeypatch.setattr(cat, "_expansion", lambda _spec, terms=_integer_terms(wrong): terms)
        with pytest.raises(AssertionError, match="cross-check failed") as refused:
            cat.zeta_of_scheme(spec)
        assert f"counting route gives {wrong}," in str(refused.value)
    monkeypatch.setattr(cat, "_expansion", lambda _spec: _integer_terms(right))
    assert cat.zeta_of_scheme(spec) == zeta_of(right)


def _integer_terms(n):
    return [tuple([x.numerator if x.denominator == 1 else x for x in pair]) for pair in n.terms]


def test_cross_check_refuses_a_perturbed_gamma(monkeypatch):
    """zeta_of_scheme compares the zeta with the periods' gamma, so a gamma
    with one exponent changed is refused too: the exponent of its least
    root -t, the largest subset sum t."""
    exponents_of = cat.subset_sum_exponents

    def perturbed(steps):
        exponents = exponents_of(steps)
        exponents[max([t for t, e in exponents.items() if e])] += 1
        return exponents

    monkeypatch.setattr(cat, "subset_sum_exponents", perturbed)
    for spec in (cat.gm(), cat.gm_tensor(5), cat.sl(4), cat.gl(4)):
        with pytest.raises(AssertionError, match="cross-check failed"):
            cat.zeta_of_scheme(spec)


def test_rank_budget():
    cap = cat.MAX_TOTAL_PERIOD
    start = time.perf_counter()
    for refused in (lambda: cat.gm_tensor(cap + 1), lambda: cat.gm_tensor(10 ** 4000),
                    lambda: cat.gl(38), lambda: cat.sl(38), lambda: cat.gl(10 ** 4000)):
        with pytest.raises(ParameterRangeError, match="rank budget"):
            refused()
    assert time.perf_counter() - start < 1.0
    assert sum(cat.gl(37).periods.periods) <= cap < sum(range(1, 39))
    assert cat.gm_tensor(cap).rank == cap
    assert cat.zeta_of_scheme(cat.gl(24)) == zeta_of(cat.counting_of(cat.gl(24)))


def test_zeta_custom_scheme():
    # a scheme outside the table is given by its counting function n, its zeta by zeta_of(n)
    n = cf.normalize([(2, 1), (0, -3)])
    assert zeta_of(n).factor_map() == {F(2): F(-1), F(0): F(3)}


# ---------------------------------------------------------------------------
# functional-equation parameters

@pytest.mark.parametrize("r,center,sign", [
    (2, 4, -1),    # 2*3 - 2
    (3, 11, 1),    # 2*8 - 5
    (4, 21, -1),   # 2*15 - 9
    (5, 34, 1),
])
def test_sl_center_matches_closed_form(r, center, sign):
    fe = cat.fe_params_of(cat.sl(r))
    assert fe.center == F(center) == F(r * (3 * r - 1), 2) - 1
    assert fe.sign == sign == (-1) ** (r - 1)


@pytest.mark.parametrize("r,center,sign", [
    (1, 1, -1),
    (2, 5, 1),     # 2*4 - 3
    (3, 12, -1),   # 2*9 - 6
    (4, 22, 1),
])
def test_gl_center_matches_closed_form(r, center, sign):
    fe = cat.fe_params_of(cat.gl(r))
    assert fe.center == F(center) == F(r * (3 * r - 1), 2)
    assert fe.sign == sign == (-1) ** r


def test_gm_center():
    fe = cat.fe_params_of(cat.gm())
    assert (fe.center, fe.sign) == (F(1), -1)
    fe4 = cat.fe_params_of(cat.gm_tensor(4))
    assert (fe4.center, fe4.sign) == (F(4), 1)


@pytest.mark.parametrize("spec", [
    cat.gm(), cat.gm_tensor(2), cat.gm_tensor(3), cat.gm_tensor(7),
    cat.sl(2), cat.sl(3), cat.sl(4), cat.sl(5), cat.sl(6),
    cat.gl(1), cat.gl(2), cat.gl(3), cat.gl(4), cat.gl(5), cat.gl(6),
])
def test_fe_actually_holds(spec):
    rep = check_functional_equation(cat.zeta_of_scheme(spec), cat.fe_params_of(spec))
    assert rep.holds, rep.mismatches


@pytest.mark.parametrize("spec", [cat.spec_f1()])
def test_no_fe_on_record(spec):
    with pytest.raises(NoFunctionalEquationError):
        cat.fe_params_of(spec)


# ---------------------------------------------------------------------------
# validation and listing

def test_constructor_validation():
    for bad_call in (lambda: cat.sl(1), lambda: cat.gl(0),
                     lambda: cat.gm_tensor(0), lambda: cat.sl(2.0),
                     lambda: cat.gm_tensor(True)):
        with pytest.raises(ParameterRangeError):
            bad_call()
    # a kind counting_of cannot count is refused when the spec is built
    for kind in ("Foo", "Custom"):
        with pytest.raises(ParameterRangeError, match=f"unknown scheme kind '{kind}'"):
            cat.SchemeSpec(kind, 3)


def test_catalog_entries_are_consistent():
    entries = cat.catalog_entries()
    names = [e.name for e in entries]
    assert names[0] == "SpecF1"
    assert "SL(2)" in names and "GL(2)" in names and "Gm" in names
    assert len(names) == len(set(names))
    for e in entries:
        cat.zeta_of_scheme(e)  # cross-check must not raise
