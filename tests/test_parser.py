"""Expression and scheme-name parsing.

Claims covered:
- accepted forms evaluate to the right counting function (oracle: Python's
  own eval on the caret-to-double-star rewrite, compared numerically);
- every canonically printed counting function parses back to itself
  (hypothesis round-trip), and a minus sign negates its term exactly, as
  the tensor product with -1 does (hypothesis);
- rejected inputs fail with ParseError carrying an in-range offset, and
  a randomized byte-string fuzz never produces any other exception;
- scheme names map to catalog entries, unknown names and bad ranks fail
  with the documented error types.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import abszeta.counting as cf
from abszeta.errors import ParameterRangeError, ParseError, UnknownSchemeError
from abszeta.parser import GRAMMAR, MAX_COMPOUND_EXPONENT, MAX_DEPTH, parse_expr, parse_scheme

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
counting_fns = st.lists(st.tuples(rationals, rationals), max_size=5).map(cf.normalize)


def eval_oracle(text: str, u: float) -> float:
    """Evaluate canonical print syntax with Python's evaluator."""
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, {"u": u}))


# ---------------------------------------------------------------------------
# accepted forms

@pytest.mark.parametrize("text,terms", [
    ("u^3 - u", [(3, 1), (1, -1)]),
    ("u", [(1, 1)]),
    ("1", [(0, 1)]),
    ("0", []),
    ("-2", [(0, -2)]),
    ("3/2*u^2", [(2, F(3, 2))]),
    ("u^(1/2)", [(F(1, 2), 1)]),
    ("u^1/2", [(F(1, 2), 1)]),        # unparenthesized rational exponent on u
    ("u^-2", [(-2, 1)]),
    ("u^(-1/2)", [(F(-1, 2), 1)]),
    ("-u + 1", [(1, -1), (0, 1)]),
    ("(u-1)^2", [(2, 1), (1, -2), (0, 1)]),
    ("(u-1)*(u+1)", [(2, 1), (0, -1)]),
    ("2*3", [(0, 6)]),
    ("2^10", [(0, 1024)]),
    ("u^0", [(0, 1)]),
    ("(u+2)^0", [(0, 1)]),
    ("  u ^ 3\t-  u ", [(3, 1), (1, -1)]),
    ("u^3 − u", [(3, 1), (1, -1)]),   # Unicode minus
    ("((u))", [(1, 1)]),
])
def test_accepted_forms(text, terms):
    assert parse_expr(text) == cf.normalize(terms)


def test_big_constant_power_is_exact():
    assert parse_expr("2^512") == cf.normalize([(0, 2 ** 512)])


def test_compound_power_expansion():
    got = parse_expr("(u-1)^64")
    assert got == cf.tensor_power(cf.U_MINUS_ONE, 64)


@pytest.mark.parametrize("text,u", [
    ("u^3 - u", 2.3),
    ("3/2*u^2 + u^(1/2) - 7", 2.3),
    ("(u-1)^3*(u+2)", 1.9),
    ("u^-2 + u^(-1/2)", 4.0),
])
def test_parse_agrees_with_python_eval_oracle(text, u):
    n = parse_expr(text)
    assert cf.eval_at(n, u) == pytest.approx(eval_oracle(text, u), rel=1e-12)


@settings(max_examples=200)
@given(counting_fns)
def test_canonical_round_trip(n):
    assert parse_expr(str(n)) == n


MINUS_ONE = cf.normalize([(0, -1)])
exponents = st.one_of(st.integers(-6, 6).map(F),
                      st.fractions(min_value=-6, max_value=6, max_denominator=6))
coefficients = st.fractions(min_value=F(1, 10), max_value=10, max_denominator=10)


@st.composite
def signed_sums(draw):
    """The text of a sum of terms c*u^(e), some times a power of
    (['-']u^(e2) - c2), each with a drawn sign; and the same sum with each
    minus taken as the tensor product with the constant -1."""
    text, total = "", cf.ZERO
    for i in range(draw(st.integers(1, 4))):
        c, e = draw(coefficients), draw(exponents)
        body, term = f"{c}*u^({e})", cf.normalize([(e, c)])
        if draw(st.booleans()):
            e2, c2, k = draw(exponents), draw(coefficients), draw(st.integers(1, 4))
            lead = draw(st.booleans())
            body += f"*({'-' if lead else ''}u^({e2}) - {c2})^{k}"
            head = cf.normalize([(e2, 1)])
            inner = cf.oplus(cf.otimes(MINUS_ONE, head) if lead else head,
                             cf.otimes(MINUS_ONE, cf.normalize([(0, c2)])))
            term = cf.otimes(term, cf.tensor_power(inner, k))
        minus = draw(st.booleans())
        text += ("-" if minus else "+" if i else "") + body
        total = cf.oplus(total, cf.otimes(MINUS_ONE, term) if minus else term)
    return text, total


@settings(max_examples=200, deadline=None)
@given(signed_sums())
def test_minus_negates_exactly(case):
    """A minus sign flips the multiplicities of its term: the parse equals the
    sum built with products by -1, and its data stay exact Fractions."""
    text, expected = case
    n = parse_expr(text)
    assert n == expected
    assert all(type(x) is F for term in n.terms for x in term)


# ---------------------------------------------------------------------------
# rejected forms: positioned errors

@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("   ", 0),
    ("u^", 2),
    ("u^^2", 2),
    ("2//3", 2),
    ("1/0", 0),
    ("(u", 2),
    (")", 0),
    ("u u", 2),
    ("u @ 1", 2),
    ("* u", 0),
    ("2 * - 3", 4),
    ("u + ", 4),
    ("(u+1)^(1/2)", 6),
    ("(u+1)^-1", 6),
    (f"(u+1)^{MAX_COMPOUND_EXPONENT + 1}", 6),
    ("(u u", 3),
    ("u^-u", 3),
    ("u^(-u)", 4),
    ("u^(u)", 3),
    ("(u+1)^(-)", 8),
    ("u^(1/2", 6),
    ("1/", 2),
    ("u^(1/2)(", 7),
])
def test_rejections_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.offset == offset
    assert 0 <= exc.value.offset <= len(text)


OVERLONG = "9" * 5000  # beyond the digits int() converts


@pytest.mark.parametrize("text,offset", [
    (OVERLONG, 0), (f"u^{OVERLONG}", 2), (f"(u-1)^{OVERLONG}", 6), (f"u^(1/{OVERLONG})", 3),
], ids=["number", "variable-exponent", "compound-exponent", "denominator"])
def test_overlong_literal_is_a_positioned_parse_error(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.offset == offset


#: 600 signed terms c*u^(e) over 33 exponents, so that equal exponents add up.
MIXED_TERMS = [(F(k % 11 - 5, k % 3 + 1), F((-1) ** k * (k % 7 + 1), k % 5 + 1))
               for k in range(1, 601)]
MIXED_SUM = "".join(f"{'-' if c < 0 else '+'}{abs(c)}*u^({e})" for e, c in MIXED_TERMS)
LONG_SUM = "+".join(f"u^{k}" for k in range(1, 17773))  # 131 069 characters


@pytest.mark.parametrize("text,terms", [
    (MIXED_SUM, MIXED_TERMS),
    (LONG_SUM, [(k, 1) for k in range(1, 17773)]),
], ids=["mixed", "long"])
def test_sum_merges_its_terms_once(monkeypatch, text, terms):
    """A sum of k terms is added by one merge of all k, and equals the
    normalized list of its terms."""
    calls = []
    merged = cf.CountingFunction.merged.__func__

    def counted(cls, maps, descending, *fields):
        calls.append(len(maps))
        return merged(cls, maps, descending, *fields)

    expected = cf.normalize(terms)
    monkeypatch.setattr(cf.CountingFunction, "merged", classmethod(counted))
    assert parse_expr(text) == expected
    assert calls == [len(terms)]


def test_nesting_cap():
    deep = "(" * (MAX_DEPTH + 1) + "u" + ")" * (MAX_DEPTH + 1)
    with pytest.raises(ParseError) as exc:
        parse_expr(deep)
    assert exc.value.offset == MAX_DEPTH
    ok = "(" * MAX_DEPTH + "u" + ")" * MAX_DEPTH
    assert parse_expr(ok) == cf.U


def test_non_string_input():
    with pytest.raises(ParseError):
        parse_expr(42)


def test_fuzz_smoke_only_positioned_parse_errors():
    rng = random.Random(20240817)
    for _ in range(5000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(65)))
        text = raw.decode("latin-1")
        try:
            parse_expr(text)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(text)
        # any other exception propagates and fails the test


def test_grammar_constant_survives_optimization():
    # documented grammar must not depend on __doc__ (stripped under -OO)
    assert "Expr" in GRAMMAR and "NUMBER" in GRAMMAR


# ---------------------------------------------------------------------------
# scheme names

@pytest.mark.parametrize("text,name", [
    ("SpecF1", "SpecF1"),
    ("Gm", "Gm"),
    ("Gm^3", "Gm^3"),
    ("SL(2)", "SL(2)"),
    ("GL(10)", "GL(10)"),
    ("  SL(3)  ", "SL(3)"),
])
def test_scheme_names(text, name):
    assert parse_scheme(text).name == name


@pytest.mark.parametrize("text", [
    "", "  ", "sl(2)", "SL(2) extra", "SL", "SL()", "SL(-2)", "Gm^", "Gm^x",
    "PGL(2)", "u^3 - u", 42,
])
def test_unknown_scheme_names(text):
    with pytest.raises(UnknownSchemeError):
        parse_scheme(text)


@pytest.mark.parametrize("text", ["SL(1)", "SL(0)", "GL(0)", "Gm^0"])
def test_known_scheme_bad_rank(text):
    with pytest.raises(ParameterRangeError):
        parse_scheme(text)


@pytest.mark.parametrize("template", ["GL({})", "SL({})", "Gm^{}"])
def test_overlong_scheme_rank(template):
    with pytest.raises(ParameterRangeError, match="rank of 5000 digits"):
        parse_scheme(template.format(OVERLONG))


def test_unknown_scheme_error_is_a_parse_error():
    assert issubclass(UnknownSchemeError, ParseError)
