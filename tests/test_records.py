"""The package's immutable records behave as frozen value types.

Claims covered, for every public record:
- equal field values compare equal and hash equal, the hash being that of
  the stored field tuple (``__slots__``) in order; records of different
  classes are never equal, even with equal field values;
- positional and keyword construction agree, and defaults apply;
- assigning or deleting an attribute raises AttributeError;
- the repr is ``Name(field=value, ...)``, constructor field by field;
- the validation done at construction raises the same errors as before;
- counting functions, power products and period vectors store only their
  integers, and ``terms``, ``factors`` and ``periods`` are Fraction views
  built from them on each read; those built by the integer route keep all
  of the above, and pickle;
- comparing, hashing, copying and pickling a term map builds no view, even
  one of 150 000 terms;
- the exact functional-equation path builds a few Fractions however many
  terms its maps have.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F

import pytest

import abszeta as az
from abszeta.errors import DomainError, ParameterRangeError

N = az.normalize([(2, 1), (0, -1)])
TERMS = ((F(1), F(2)),)

#: (class, positional fields, keyword fields, repr of the instance)
RECORDS = [
    (az.CountingFunction, (N.terms,), {"terms": N.terms},
     "CountingFunction(terms=((Fraction(2, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(-1, 1))))"),
    (az.PowerProduct, (TERMS, "s"), {"factors": TERMS, "variable": "s"},
     "PowerProduct(factors=((Fraction(1, 1), Fraction(2, 1)),), variable='s')"),
    (az.FEParams, (F(3, 2), -1), {"center": F(3, 2), "sign": -1},
     "FEParams(center=Fraction(3, 2), sign=-1)"),
    (az.FEReport, (True, F(1), 1, 0, ()),
     {"holds": True, "center": F(1), "sign": 1, "parity_sum": 0, "mismatches": ()},
     "FEReport(holds=True, center=Fraction(1, 1), sign=1, parity_sum=0, mismatches=())"),
    (az.CheckReport, ("n", True, 1.0, 0.5, 1e-9, "d"),
     {"name": "n", "passed": True, "value": 1.0, "expected": 0.5, "tolerance": 1e-9,
      "detail": "d"},
     "CheckReport(name='n', passed=True, value=1.0, expected=0.5, tolerance=1e-09, "
     "detail='d')"),
    (az.PeriodVector, ((F(1), F(1, 2)),), {"periods": (F(1), F(1, 2))},
     "PeriodVector(periods=(Fraction(1, 1), Fraction(1, 2)))"),
    (az.MultiGammaSpec, (-2, az.PeriodVector((F(1), F(2)))),
     {"order": -2, "periods": az.PeriodVector((F(1), F(2)))},
     "MultiGammaSpec(order=-2, periods=PeriodVector(periods=(Fraction(1, 1), "
     "Fraction(2, 1))))"),
    (az.SchemeSpec, ("SL", 3), {"kind": "SL", "r": 3}, "SchemeSpec(kind='SL', r=3)"),
    (az.SeriesSettings, (1e-8, 1000), {"tol": 1e-8, "max_terms": 1000},
     "SeriesSettings(tol=1e-08, max_terms=1000)"),
    (az.QuadSettings, (1e-8,), {"tol": 1e-8}, "QuadSettings(tol=1e-08)"),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize("cls,args,kwargs,text", RECORDS, ids=IDS)
def test_value_semantics(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in cls.__slots__))
    assert tuple(getattr(a, name) for name in kwargs) == tuple(kwargs.values())
    assert repr(a) == repr(b) == text
    assert a != object() and a != tuple(kwargs.values())
    assert copy.copy(a) == a and copy.deepcopy(a) == a


@pytest.mark.parametrize("cls,args,kwargs,text", RECORDS, ids=IDS)
def test_immutable(cls, args, kwargs, text):
    a = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(**kwargs)


#: Counting functions and power products built on integers, with the
#: constructor fields (``__match_args__``) their Fraction view must read back.
INTEGER_ROUTE = [
    (lambda: az.tensor_power(az.U_MINUS_ONE, 2), (((F(2), F(1)), (F(1), F(-2)), (F(0), F(1))),)),
    (lambda: az.parse_expr("(1/2*u^(1/2) - 1/3)^2"),
     (((F(1), F(1, 4)), (F(1, 2), F(-1, 3)), (F(0), F(1, 9))),)),
    (lambda: az.counting_of(az.sl(2)), (((F(3), F(1)), (F(1), F(-1))),)),
    (lambda: az.zeta_of(az.parse_expr("u^(1/2) - 2/3")),
     (((F(0), F(2, 3)), (F(1, 2), F(-1))), "s")),
    (lambda: az.zeta_of_scheme(az.gm()), (((F(0), F(1)), (F(1), F(-1))), "s")),
    (lambda: az.multiperiod_gamma(az.MultiGammaSpec(-2, (F(1, 2), 1))),
     (((F(-3, 2), F(-1)), (F(-1), F(1)), (F(-1, 2), F(1)), (F(0), F(-1))), "x")),
    (lambda: az.neg_sine(3), ((), "x")),
]


@pytest.mark.parametrize("build,fields", INTEGER_ROUTE, ids=[
    "tensor_power", "parse_expr", "counting_of", "zeta_of", "zeta_of_scheme",
    "multiperiod_gamma", "neg_sine"])
def test_integer_route_value_semantics(build, fields):
    """Each check starts from a fresh instance."""
    cls = type(build())
    expected = cls(*fields)
    assert build() == expected and expected == build() and build() == build()
    a = build()
    assert hash(a) == hash((a.den, a.mden, a.pairs) + fields[1:]) == hash(expected)
    assert repr(build()) == repr(expected)
    assert tuple(getattr(build(), name) for name in cls.__match_args__) == fields
    for clone in (copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))):
        twin = clone(build())
        assert type(twin) is cls and twin == expected and twin.pairs == expected.pairs
    a = build()
    view = cls.__match_args__[0]
    for name in ("den", "pairs", view):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
    assert getattr(a, view) == fields[0] and type(getattr(a, view)) is tuple
    assert all(type(x) is F for pair in getattr(build(), view) for x in pair)


def _count_fractions(monkeypatch) -> list:
    """The argument tuples of every Fraction built from here on."""
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    return built


@pytest.mark.parametrize("build,fields", INTEGER_ROUTE, ids=[
    "tensor_power", "parse_expr", "counting_of", "zeta_of", "zeta_of_scheme",
    "multiperiod_gamma", "neg_sine"])
def test_integer_route_equality_builds_no_view(monkeypatch, build, fields):
    """The integer fields decide equality and the hash, so neither builds a Fraction."""
    a, b = build(), build()
    half = type(a).from_pairs(a.den, 2 * a.mden, a.pairs, *fields[1:])  # each value halved
    built = _count_fractions(monkeypatch)
    assert a == b and not a != b and hash(a) == hash(b)
    assert (a != half) == bool(a.pairs)
    assert built == []


def test_large_map_value_semantics_build_no_view(monkeypatch):
    """hash, ==, copy, deepcopy and pickle of a fresh 150 000-term map run on its
    integers: not one Fraction is built, and each copy is an equal map."""
    terms = 150_000
    a = az.CountingFunction.from_pairs(1, 1, [(k, 1) for k in range(terms - 1, -1, -1)])
    b = az.CountingFunction.from_pairs(1, 1, list(a.pairs))
    built = _count_fractions(monkeypatch)
    assert hash(a) == hash(b) == hash((1, 1, a.pairs))
    assert a == b and not a != b
    twins = [copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
    assert built == []
    for twin in twins:
        assert type(twin) is az.CountingFunction and twin == a and len(twin.pairs) == terms


def _scheme_fe_holds(spec) -> bool:
    return az.check_functional_equation(az.zeta_of_scheme(spec), az.fe_params_of(spec)).holds


@pytest.mark.parametrize("run", [
    lambda: az.tensor_power_fe_check(5).passed,
    lambda: az.tensor_power_fe_check(50).passed,
    lambda: _scheme_fe_holds(az.gl(3)),
    lambda: _scheme_fe_holds(az.gl(9)),
], ids=["thm4-5", "thm4-50", "fe-GL(3)", "fe-GL(9)"])
def test_exact_fe_path_builds_a_few_fractions(monkeypatch, run):
    """The maps stay integer from the expansion to the verdict: the center is
    the one Fraction, however many terms the map has."""
    built = _count_fractions(monkeypatch)
    assert run()
    assert len(built) <= 2, built


def test_different_classes_are_never_equal():
    assert az.CountingFunction(TERMS) != az.PowerProduct(TERMS, "s")
    assert az.SeriesSettings(1e-8, 200) != az.QuadSettings(1e-8)
    assert len({az.CountingFunction(TERMS), az.PowerProduct(TERMS),
                az.CountingFunction(TERMS)}) == 2


def test_defaults():
    assert az.PowerProduct(TERMS).variable == "s"
    assert az.CheckReport("n", True, 1.0, 1.0, 0.0).detail == ""
    assert az.SchemeSpec("Gm") == az.SchemeSpec("Gm", None) == az.gm()
    assert az.SeriesSettings() == az.SeriesSettings(1e-9, 300_000)
    assert az.QuadSettings() == az.QuadSettings(1e-10)


def test_construction_coerces():
    assert az.FEParams("3/2", 1).center == F(3, 2)
    assert az.FEParams(2, 1).center == F(2) and type(az.FEParams(2, 1).center) is F
    assert az.PeriodVector([1, "1/2"]).periods == (F(1), F(1, 2))
    spec = az.MultiGammaSpec(order=-2, periods=(1, 2))
    assert spec.periods == az.PeriodVector((F(1), F(2)))
    assert (az.sl(3).name, az.sl(3).dimension, az.sl(3).rank) == ("SL(3)", 8, 2)


@pytest.mark.parametrize("build,error,message", [
    (lambda: az.FEParams(0, 2), DomainError, "functional-equation sign must be +1 or -1, got 2"),
    (lambda: az.SchemeSpec("SL", 1), ParameterRangeError, "SL(r) needs an integer r >= 2, got 1"),
    (lambda: az.SchemeSpec("SL", True), ParameterRangeError,
     "SL(r) needs an integer r >= 2, got True"),
    (lambda: az.SchemeSpec("GL", None), ParameterRangeError,
     "GL(r) needs an integer r >= 1, got None"),
    (lambda: az.sl(723), ParameterRangeError,
     "SL(r) exceeds the rank budget: total period above 722"),
    (lambda: az.PeriodVector(()), ParameterRangeError, "a period vector needs at least one period"),
    (lambda: az.PeriodVector((0,)), ParameterRangeError, "periods must be positive, got 0"),
    (lambda: az.PeriodVector((1,) * 723), ParameterRangeError,
     "at most 722 periods supported (the rank budget)"),
    (lambda: az.PeriodVector((1.5,)), TypeError, "expected int, str, or Fraction, got float"),
    (lambda: az.MultiGammaSpec(1, (1,)), ParameterRangeError,
     "order must be a negative integer, got 1"),
    (lambda: az.MultiGammaSpec(-2, (1,)), ParameterRangeError,
     "order -2 needs exactly 2 periods, got 1"),
    (lambda: az.SeriesSettings(tol=0), DomainError, "tolerance must be positive and finite, got 0"),
    (lambda: az.SeriesSettings(max_terms=0), DomainError, "max_terms must be >= 1, got 0"),
    (lambda: az.SeriesSettings(max_terms=2 ** 23), ParameterRangeError,
     "max_terms 8388608 is above the series budget of 4194304 terms"),
    (lambda: az.QuadSettings(tol=float("nan")), DomainError,
     "tolerance must be positive and finite, got nan"),
])
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
