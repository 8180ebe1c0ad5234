"""Command-line interface: output formats, schemas, exit codes.

Claims covered:
- documented example invocations produce the documented output;
- --json documents validate against the published schemas and are
  byte-stable across repeated identical invocations;
- `zeta --scheme X` and `zeta --expr <printed counting of X>` emit
  identical documents for every catalog scheme;
- text outputs round-trip through the expression parser where they are
  defined to be parseable;
- golden bytes: the catalog listing and, for one scheme of each kind,
  counting/zeta/check fe text and the rank-error messages;
- exit codes: 0 success, 1 usage, 2 parse, 3 domain, 4 convergence,
  with a single diagnostic line (plus a JSON error document under
  --json) on the error stream.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import jsonschema
import mpmath
import pytest

import abszeta
import abszeta.catalog as cat
from abszeta.numerics import MAX_SERIES_TERMS
from abszeta.parser import parse_expr, parse_scheme
from abszeta.symzeta import zeta_of
from conftest import run_cli

OVERLONG = "9" * 5000  # beyond the digits int() converts
BAD_CENTERS = ("nan", "inf", "abc", "1/0", "", OVERLONG)

RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}
SIGNED_INT = {"type": "string", "pattern": r"^-?\d+$"}


def _strict(properties: dict) -> dict:
    return {"type": "object", "properties": properties,
            "required": sorted(properties), "additionalProperties": False}


SCHEMAS = {
    "counting": _strict({
        "kind": {"const": "counting"},
        "variable": {"const": "u"},
        "terms": {"type": "array", "items": _strict({
            "exponent": RATIONAL, "multiplicity": RATIONAL})},
    }),
    "power_product": _strict({
        "kind": {"const": "power_product"},
        "variable": {"enum": ["s", "x"]},
        "factors": {"type": "array", "items": _strict({
            "root": RATIONAL, "exp": RATIONAL})},
    }),
    "hurwitz_form": _strict({
        "kind": {"const": "hurwitz_form"},
        "variable": {"enum": ["s", "x"]},
        "terms": {"type": "array", "items": _strict({
            "shift": RATIONAL, "coeff": RATIONAL})},
    }),
    "number": _strict({
        "kind": {"const": "number"},
        "re": {"type": "number"}, "im": {"type": "number"},
    }),
    "fe_report": _strict({
        "kind": {"const": "fe_report"},
        "holds": {"type": "boolean"},
        "center": RATIONAL,
        "sign": {"enum": ["+1", "-1"]},
        "parity_sum": SIGNED_INT,
        "mismatches": {"type": "array", "items": _strict({
            "root": RATIONAL, "exp": RATIONAL, "transformed_exp": RATIONAL})},
    }),
    "check_report": _strict({
        "kind": {"const": "check_report"},
        "name": {"type": "string"},
        "passed": {"type": "boolean"},
        "value": {"type": "number"},
        "expected": {"type": "number"},
        "tolerance": {"type": "number"},
        "detail": {"type": "string"},
    }),
    "catalog": _strict({
        "kind": {"const": "catalog"},
        "schemes": {"type": "array", "items": _strict({
            "name": {"type": "string"},
            "dimension": {"type": ["integer", "null"]},
            "rank": {"type": ["integer", "null"]},
            "periods": {"type": "array", "items": RATIONAL},
        })},
    }),
    "error": _strict({
        "kind": {"const": "error"},
        "error": {"type": "string"},
        "message": {"type": "string"},
    }),
}


def run_json(*argv: str) -> dict:
    code, out, err = run_cli(*argv, "--json")
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS[doc["kind"]])
    return doc


# ---------------------------------------------------------------------------
# documented examples

def test_example_zeta_sl2():
    code, out, err = run_cli("zeta", "--scheme", "SL(2)")
    assert (code, out, err) == (0, "(s-1)^1 * (s-3)^-1\n", "")


def test_example_fe_gl2_json():
    doc = run_json("check", "fe", "--scheme", "GL(2)")
    assert doc["kind"] == "fe_report"
    assert doc["holds"] is True
    assert doc["center"] == "5"
    assert doc["sign"] == "+1"
    assert doc["mismatches"] == []


def test_example_gamma_integral():
    code, out, _ = run_cli("gamma", "--order", "-1", "--x", "1", "--method", "integral")
    assert code == 0
    assert float(out) == pytest.approx(2.0, abs=1e-8)


def test_gamma_integral_at_large_x():
    # (x + 1) / x = 1.000001: the mass of the integrand sits at t below 1/x
    code, out, _ = run_cli("gamma", "--order=-1", "--x", "1e6", "--method", "integral")
    assert code == 0
    assert abs(math.log(float(out)) - math.log1p(1e-6)) <= 1e-10
    # an order in (-1, 0) is integrated by parts, and x / (-order) would overflow
    assert run_cli("gamma", "--order=-1/2", "--x=1.7e308", "--method", "integral") == (
        0, "1.0\n", "")


def test_spec_f1_zeta():
    code, out, _ = run_cli("zeta", "--expr", "1")
    assert (code, out) == (0, "s^-1\n")


# ---------------------------------------------------------------------------
# cross-invocation invariants

@pytest.mark.parametrize("spec", cat.catalog_entries(), ids=lambda s: s.name)
def test_zeta_scheme_equals_zeta_expr(spec):
    printed = str(cat.counting_of(spec))
    code_a, out_a, _ = run_cli("zeta", "--scheme", spec.name)
    code_b, out_b, _ = run_cli("zeta", "--expr", printed)
    assert (code_a, code_b) == (0, 0)
    assert out_a == out_b
    json_a = run_cli("zeta", "--scheme", spec.name, "--json")[1]
    json_b = run_cli("zeta", "--expr", printed, "--json")[1]
    assert json_a == json_b


def test_json_outputs_are_byte_stable():
    for argv in (("zeta", "--scheme", "SL(3)"),
                 ("counting", "--expr", "(u-1)^3"),
                 ("check", "fe", "--scheme", "GL(2)"),
                 ("catalog",)):
        first = run_cli(*argv, "--json")[1]
        second = run_cli(*argv, "--json")[1]
        assert first == second
        assert first.endswith("\n") and "\n" not in first[:-1]  # one line


def test_counting_text_round_trips_through_parser():
    for expr in ("(u-1)^2", "u^3 - u", "3/2*u^2 + u^(1/2)"):
        code, out, _ = run_cli("counting", "--expr", expr)
        assert code == 0
        assert parse_expr(out.strip()) == parse_expr(expr)


# ---------------------------------------------------------------------------
# per-command behavior

def test_counting_scheme():
    code, out, _ = run_cli("counting", "--scheme", "GL(2)")
    assert (code, out) == (0, "u^4 - u^3 - u^2 + u\n")
    doc = run_json("counting", "--scheme", "GL(2)")
    assert doc["terms"][0] == {"exponent": "4", "multiplicity": "1"}


def test_hurwitz_symbolic_and_value():
    code, out, _ = run_cli("hurwitz", "--expr", "u^3 - u")
    assert (code, out) == (0, "(s-3)^-w - (s-1)^-w\n")
    doc = run_json("hurwitz", "--expr", "u^3 - u")
    assert doc["terms"] == [{"shift": "3", "coeff": "1"}, {"shift": "1", "coeff": "-1"}]
    code, out, _ = run_cli("hurwitz", "--expr", "u^3 - u", "--w", "2", "--s", "5")
    assert code == 0
    assert float(out) == pytest.approx((5 - 3) ** -2.0 - (5 - 1) ** -2.0, rel=1e-12)


def test_hurwitz_at_a_shift():
    """At s = a the term (s - a)^(-w) is 0 for Re w < 0: u^3 - u at w = -1, s = 3
    is 0 - (3 - 1)^1; for Re w >= 0, w != 0, s = a is a pole (exit 3)."""
    assert run_cli("hurwitz", "--expr", "u^3-u", "--w=-1", "--s", "3") == (0, "-2.0\n", "")
    code, out, err = run_cli("hurwitz", "--expr", "u^3-u", "--w=0,1", "--s", "3")
    assert (code, out) == (3, "")
    assert "coincides with shift 3" in err


def test_hurwitz_complex_value():
    doc = run_json("hurwitz", "--expr", "u", "--w", "1", "--s", "3,4")
    # (s-1)^-1 at s = 2+4j: 1/(2+4j) = (2-4j)/20
    assert doc["re"] == pytest.approx(0.1)
    assert doc["im"] == pytest.approx(-0.2)


def test_hurwitz_bad_complex_argument_names_the_forms():
    for bad in ("1j", "1,2,3", ""):
        code, out, err = run_cli("hurwitz", "--expr", "u", f"--w={bad}", "--s", "3")
        assert (code, out) == (1, "")
        assert f"argument --w: expected a number 're' or 're,im' with float parts, got {bad!r}" in err
        assert "_parse_complex" not in err


def test_hurwitz_refuses_a_phase_lost_in_rounding():
    """At s - a = -1 + i the phase of w = 1e17 keeps no digit: exit 4, not noise.
    A real w at a positive base has phase 0 and keeps its value, and a real integer
    w at a negative real base takes its sign from the parity of w: (-1)^(-1e17) = 1."""
    code, out, err = run_cli("hurwitz", "--expr", "u^2", "--w", "1e17", "--s", "1,1")
    assert (code, out) == (4, "")
    assert "lost in rounding" in err
    assert run_cli("hurwitz", "--expr", "u^2", "--w", "1e17", "--s", "1") == (0, "1.0\n", "")
    assert run_cli("hurwitz", "--expr", "u-1", "--w", "1e300", "--s", "3") == (0, "0.0\n", "")


def test_hurwitz_refuses_a_real_sum_lost_in_rounding():
    """At a real non-integer w and a real s, a sum whose rounding passes 1e-9 of its
    value exits 4: (u - 1)^40 at w = 0.5, s = 41.5 printed 0.0010010047167224034,
    3.3e-3 off the 60-digit value.  (u - 1)^12 at s = 13.5 keeps its value."""
    code, out, err = run_cli("hurwitz", "--expr", "(u-1)^40", "--w", "0.5", "--s", "41.5")
    assert (code, out) == (4, "")
    assert "cancels: its rounding may reach" in err
    assert run_cli("hurwitz", "--expr", "(u-1)^12", "--w", "0.5", "--s", "13.5") == (
        0, "0.006731371417147747\n", "")


def test_gamma_product_form_and_value():
    code, out, _ = run_cli("gamma", "--order", "-2")
    assert (code, out) == (0, "(x+2)^-1 * (x+1)^2 * x^-1\n")
    code, out, _ = run_cli("gamma", "--order", "-2", "--x", "1.5")
    assert code == 0
    assert float(out) == pytest.approx(2.5 ** 2 / (1.5 * 3.5), rel=1e-12)


@pytest.mark.parametrize("order,printed", [
    ("-25", "1.0110726961389913"), ("-60", "1.0037372746965274")])
def test_gamma_product_past_float_rounding_is_summed_in_decimal(order, printed):
    """Both exited 4 while the product was taken in floats (its log sum off by
    1.93e-08 and 8.77e+02); each now prints the 50-digit product, rounded once,
    which the integral route prints too."""
    assert run_cli("gamma", f"--order={order}", "--x", "1") == (0, printed + "\n", "")
    k = -int(order)
    with mpmath.workdps(50):
        exact = mpmath.exp(mpmath.fsum((-1) ** (n + 1) * math.comb(k, n) * mpmath.log(1 + n)
                                       for n in range(k + 1)))
    assert float(printed) == float(exact)
    assert run_cli("gamma", f"--order={order}", "--x", "1", "--method", "integral")[1] == (
        printed + "\n")


def test_gamma_default_method_for_fractional_order_is_series():
    code, out, _ = run_cli("gamma", "--order", "-1/2", "--x", "1")
    assert code == 0
    assert float(out) == pytest.approx(4.959982653983067, rel=1e-8)


def test_gamma_product_real_at_negative_x():
    # the factors' logs carry multiples of i*pi; the real value has none
    code, out, _ = run_cli("gamma", "--order=-3", "--x=-1.5")
    assert code == 0
    assert "j" not in out
    assert abs(float(out) - 1.0) <= 1e-15


def test_gamma_multiperiod_product():
    code, out, _ = run_cli("gamma", "--order", "-2", "--periods", "1,2")
    assert (code, out) == (0, "(x+3)^-1 * (x+2)^1 * (x+1)^1 * x^-1\n")


def test_sine_commands_print_one():
    assert run_cli("sine", "--order", "-3") == (0, "1\n", "")
    assert run_cli("sine", "--order", "-2", "--periods", "1,2")[1] == "1\n"
    doc = run_json("sine", "--order", "-4")
    assert doc["factors"] == []


def test_check_thm2():
    doc = run_json("check", "thm2", "--r", "-3/2")
    assert doc["passed"] is True
    assert "m=-1" in doc["detail"] and "m=0" in doc["detail"]


def test_check_identity_binomial():
    doc = run_json("check", "identity-binomial")
    assert doc["passed"] is True
    assert doc["expected"] == 1.0
    assert abs(doc["value"] - 1.0) < 1e-3


def test_check_reflection():
    doc = run_json("check", "reflection", "--s", "0.25")
    assert doc["passed"] is True


def test_check_thm4():
    doc = run_json("check", "thm4", "--r", "5")
    assert doc["passed"] is True
    code, out, _ = run_cli("check", "thm4", "--r", "5")
    assert code == 0 and "PASS" in out


def test_check_fe_expr_route():
    code, out, _ = run_cli("check", "fe", "--expr", "u^3 - u",
                           "--center", "4", "--sign", "-1")
    assert code == 0
    assert out.splitlines()[0] == "holds: true"
    doc = run_json("check", "fe", "--expr", "u^3 - u", "--center", "4", "--sign", "-1")
    assert doc["holds"] is True


def test_check_fe_negative_control():
    doc = run_json("check", "fe", "--expr", "1", "--center", "1", "--sign", "+1")
    assert doc["holds"] is False
    assert doc["mismatches"]


def test_eval():
    code, out, _ = run_cli("eval", "--expr", "u^3 - u", "--u", "4")
    assert (code, out) == (0, "60.0\n")
    doc = run_json("eval", "--expr", "u^3 - u", "--u", "4")
    assert doc == {"kind": "number", "re": 60.0, "im": 0.0}
    # a zero on the lattice: u^(1/2) = 2 at u = 4
    assert run_cli("eval", "--expr", "u^(1/2)-2", "--u", "4")[:2] == (0, "0.0\n")


def test_catalog_listing():
    code, out, _ = run_cli("catalog")
    assert code == 0
    assert any(line.startswith("SL(2)") for line in out.splitlines())
    doc = run_json("catalog")
    by_name = {s["name"]: s for s in doc["schemes"]}
    assert by_name["SL(2)"] == {"name": "SL(2)", "dimension": 3, "rank": 1,
                                "periods": ["2"]}
    assert by_name["SpecF1"]["periods"] == []


def test_version_and_help_exit_zero():
    assert run_cli("--version")[0] == 0
    assert run_cli("--help")[0] == 0
    assert run_cli("zeta", "--help")[0] == 0


# ---------------------------------------------------------------------------
# golden output: exact bytes, one scheme of each catalog kind

CATALOG_TEXT = """\
name      dim rank  periods
SpecF1      0    0  -
Gm          1    1  (1)
Gm^2        2    2  (1,1)
Gm^3        3    3  (1,1,1)
SL(2)       3    1  (2)
SL(3)       8    2  (2,3)
SL(4)      15    3  (2,3,4)
GL(1)       1    1  (1)
GL(2)       4    2  (1,2)
GL(3)       9    3  (1,2,3)
"""

CATALOG_JSON = (
    '{"kind":"catalog","schemes":['
    '{"name":"SpecF1","dimension":0,"rank":0,"periods":[]},'
    '{"name":"Gm","dimension":1,"rank":1,"periods":["1"]},'
    '{"name":"Gm^2","dimension":2,"rank":2,"periods":["1","1"]},'
    '{"name":"Gm^3","dimension":3,"rank":3,"periods":["1","1","1"]},'
    '{"name":"SL(2)","dimension":3,"rank":1,"periods":["2"]},'
    '{"name":"SL(3)","dimension":8,"rank":2,"periods":["2","3"]},'
    '{"name":"SL(4)","dimension":15,"rank":3,"periods":["2","3","4"]},'
    '{"name":"GL(1)","dimension":1,"rank":1,"periods":["1"]},'
    '{"name":"GL(2)","dimension":4,"rank":2,"periods":["1","2"]},'
    '{"name":"GL(3)","dimension":9,"rank":3,"periods":["1","2","3"]}]}\n')

FE_TEXT = "holds: true\ncenter: {}\nsign: {}\nparity sum: 0\n"
NO_FE = "abszeta: error: no functional equation on record for SpecF1\n"


GOLDEN = [
    (("catalog",), 0, CATALOG_TEXT, ""),
    (("catalog", "--json"), 0, CATALOG_JSON, ""),
    (("counting", "--scheme", "SpecF1"), 0, "1\n", ""),
    (("zeta", "--scheme", "SpecF1"), 0, "s^-1\n", ""),
    (("check", "fe", "--scheme", "SpecF1"), 3, "", NO_FE),
    (("counting", "--scheme", "Gm"), 0, "u - 1\n", ""),
    (("zeta", "--scheme", "Gm"), 0, "s^1 * (s-1)^-1\n", ""),
    (("check", "fe", "--scheme", "Gm"), 0, FE_TEXT.format(1, -1), ""),
    (("counting", "--scheme", "Gm^3"), 0, "u^3 - 3*u^2 + 3*u - 1\n", ""),
    (("zeta", "--scheme", "Gm^3"), 0, "s^1 * (s-1)^-3 * (s-2)^3 * (s-3)^-1\n", ""),
    (("check", "fe", "--scheme", "Gm^3"), 0, FE_TEXT.format(3, -1), ""),
    (("counting", "--scheme", "SL(3)"), 0, "u^8 - u^6 - u^5 + u^3\n", ""),
    (("zeta", "--scheme", "SL(3)"), 0, "(s-3)^-1 * (s-5)^1 * (s-6)^1 * (s-8)^-1\n", ""),
    (("check", "fe", "--scheme", "SL(3)"), 0, FE_TEXT.format(11, "+1"), ""),
    (("counting", "--scheme", "GL(3)"), 0, "u^9 - u^8 - u^7 + u^5 + u^4 - u^3\n", ""),
    (("zeta", "--scheme", "GL(3)"), 0,
     "(s-3)^1 * (s-4)^-1 * (s-5)^-1 * (s-7)^1 * (s-8)^1 * (s-9)^-1\n", ""),
    (("check", "fe", "--scheme", "GL(3)"), 0, FE_TEXT.format(12, -1), ""),
    (("zeta", "--scheme", "SL(1)"), 3, "",
     "abszeta: error: SL(r) needs an integer r >= 2, got 1\n"),
    (("zeta", "--scheme", "GL(0)"), 3, "",
     "abszeta: error: GL(r) needs an integer r >= 1, got 0\n"),
    (("zeta", "--scheme", "Gm^0"), 3, "",
     "abszeta: error: Gm^r needs an integer r >= 1, got 0\n"),
    # the sine side is (-1)^k sin(pi (s - k)), k = round(s); mpmath: -15915.4947138667416
    (("check", "reflection", "--s=10390.00001"), 0,
     "reflection product at s=10390.00001 against -1/(2 sin(pi s)): PASS "
     "(value=-15915.494712967535, expected=-15915.494713866743, tol=1e-08)\n", ""),
]


@pytest.mark.parametrize("argv,code,out,err", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, out, err):
    assert run_cli(*argv) == (code, out, err)


# ---------------------------------------------------------------------------
# exit codes and error stream

@pytest.mark.parametrize("argv,code", [
    (("zeta",), 1),                                        # neither input given
    (("zeta", "--expr", "u", "--scheme", "Gm"), 1),        # both inputs given
    (("hurwitz", "--expr", "u", "--w", "2"), 1),           # --w without --s
    (("gamma", "--order", "-1/2"), 1),                     # series needs --x
    (("gamma", "--order", "-2", "--periods", "1,2", "--method", "series"), 1),
    (("nonsense",), 1),                                    # unknown subcommand
    (("zeta", "--expr", "u +"), 2),                        # parse error
    (("zeta", "--scheme", "Spec(3)"), 2),                  # unknown scheme
    (("eval", "--expr", "u", "--u", "0.5"), 3),            # outside u > 1
    (("gamma", "--order", "2", "--x", "1"), 3),            # positive order
    (("check", "thm2", "--r", "-2"), 3),                   # integer order
    (("check", "reflection", "--s", "1"), 3),              # pole
    (("gamma", "--order", "-1/2", "--x", "1", "--tol", "1e-18"), 4),
    # values beyond the float range
    (("eval", "--expr", "u^2000", "--u", "10"), 3),
    (("eval", "--expr", "u^(4001/2)", "--u", "10"), 3),
    (("eval", "--expr", "1000000000000*u^1023", "--u", "2"), 3),
    (("hurwitz", "--expr", "u", "--w=-400", "--s", "1e10"), 3),
    (("gamma", "--order", "-1", "--x", "1e-320"), 3),
    # literals longer than int() converts
    (("zeta", "--scheme", f"GL({OVERLONG})"), 3),
    (("counting", "--expr", OVERLONG), 2),
    (("counting", "--expr", f"u^{OVERLONG}"), 2),
    (("counting", "--expr", f"(u-1)^{OVERLONG}"), 2),
    (("gamma", "--order=-0.001", "--x", "1", "--method", "integral"), 3),  # e^999
    # exact orders beyond the float range, and non-finite ones
    (("gamma", "--order=-1e400"), 3),
    (("gamma", "--order=-1e400", "--x", "1"), 3),
    (("gamma", "--order=-1e400", "--x", "1", "--method", "series"), 3),
    (("check", "thm2", "--r=-1e400"), 3),
    (("check", "thm2", "--r=-inf"), 3),
    (("check", "thm2", "--r=nan"), 3),
    # series whose terms or elimination factors leave the float range
    (("gamma", "--order=-2000.5", "--x", "1"), 4),
    (("gamma", "--order=-1e-300", "--x", "1"), 4),
    # budgets: series terms, total period, term pairs, rank and subset-sum steps
    (("gamma", "--order=-1/2", "--x", "1", "--max-terms", "200000000"), 3),
    (("zeta", "--scheme", "Gm^3000"), 3),
    (("counting", "--expr", "((u+1)^512)^8"), 3),
    (("sine", "--order=-100000"), 3),
    (("gamma", "--order=-16", "--periods", ",".join(f"1/{p}" for p in (
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))), 3),
    # a coefficient of 51200 digits, beyond what str(int) prints
    (("counting", "--expr", f"({'9' * 100})^512"), 3),
    (("check", "fe", "--expr", f"({'9' * 100})^512", "--center", "0", "--sign", "1"), 3),
    # packed bits: a one-term power whose coefficient would reach 87 Mbit
    (("counting", "--expr", f"(({'9' * 100})^512)^512"), 3),
    # the series routes need a finite x
    (("check", "thm2", "--r=-0.5", "--x", "inf"), 3),
    (("gamma", "--order=-0.5", "--x", "inf"), 3),
    (("gamma", "--order=-0.5", "--x", "inf", "--method", "integral"), 3),
    # the reflection check needs a finite s
    (("check", "reflection", "--s=nan"), 3),
    (("check", "reflection", "--s=inf"), 3),
    (("check", "reflection", "--s=-inf"), 3),
    (("check", "reflection", "--s=1e400"), 3),
    # --center must be a rational literal
    *[(("check", "fe", "--expr", "u-1", "--center", center, "--sign", "1"), 1)
      for center in BAD_CENTERS],
    # exact literals whose decimal exponent is beyond 4300, refused before Fraction
    *[(argv, 3) for lit in ("1e20000000", "1e-20000000") for argv in (
        ("gamma", f"--order=-{lit}"), ("sine", "--order=-1", "--periods", lit),
        ("check", "thm4", "--r", lit), ("check", "thm2", f"--r=-{lit}"),
        ("check", "fe", "--expr", "u-1", "--center", lit, "--sign", "1"))],
    # integer-order gammas whose alternating sums cancel: the default product
    # route sums its logs in decimal, and the series route refuses in floats
    *[(("gamma", f"--order={order}", "--x", "1", *method), code)
      for order in (-60, -100, -200)
      for method, code in (((), 0), (("--method", "series"), 4))],
    # the gamma integral needs a finite order
    (("gamma", "--order=-inf", "--x", "1", "--method", "integral"), 3),
])
def test_exit_codes(argv, code):
    start = time.perf_counter()
    got, out, err = run_cli(*argv)
    assert time.perf_counter() - start < 10.0
    assert got == code
    assert "Traceback" not in err
    if code in (2, 3, 4):
        assert out == ""
        assert err.startswith("abszeta: error:")


@pytest.mark.parametrize("center", BAD_CENTERS)
def test_bad_center_is_one_usage_line(center):
    code, out, err = run_cli("check", "fe", "--expr", "u-1", "--center", center, "--sign", "1")
    assert (code, out) == (1, "")
    assert err == f"abszeta: error: --center must be a rational number, got {center!r}\n"


def test_bad_sign_is_one_usage_line():
    code, out, err = run_cli("check", "fe", "--expr", "u", "--center", "1", "--sign", "2")
    assert (code, out) == (1, "")
    assert err == "abszeta: error: --sign must be +1 or -1, got '2'\n"
    code, _, err = run_cli("check", "fe", "--expr", "u", "--center", "1", "--sign", "2", "--json")
    assert (code, json.loads(err.splitlines()[1])["error"]) == (1, "usage")


def test_budget_errors_name_their_limit():
    code, _, err = run_cli("counting", "--expr", f"({'9' * 100})^512")
    assert (code, err) == (3, "abszeta: error: a number of 51200 digits is too long to print "
                              "(the limit is 4300)\n")
    code, _, err = run_cli("zeta", "--scheme", "GL(38)")
    assert code == 3 and f"total period above {cat.MAX_TOTAL_PERIOD}" in err
    start = time.perf_counter()
    code, _, err = run_cli("gamma", "--order=-1/2", "--x", "1", "--max-terms", "200000000")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (3, "abszeta: error: max_terms 200000000 is above the series "
                              f"budget of {MAX_SERIES_TERMS} terms\n")


def test_largest_schemes_within_rank_budget():
    """GL(24) and the largest GL within the budget finish; GL(24) never did before."""
    for name in ("GL(24)", "GL(37)"):
        start = time.perf_counter()
        code, out, err = run_cli("zeta", "--scheme", name)
        assert (code, err) == (0, "")
        assert time.perf_counter() - start < 5.0
        assert out == str(zeta_of(cat.counting_of(parse_scheme(name)))) + "\n"


def test_error_json_document_on_error_stream():
    code, out, err = run_cli("zeta", "--expr", "u^", "--json")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("abszeta: error:")
    doc = json.loads(lines[1])
    jsonschema.validate(doc, SCHEMAS["error"])
    assert doc["error"] == "ParseError"


def test_number_formatting_avoids_negative_zero():
    doc = run_json("eval", "--expr", "0", "--u", "2")
    assert doc["re"] == 0.0 and repr(doc["re"]) == "0.0"


def _subprocess_env() -> dict:
    src = os.path.dirname(os.path.dirname(abszeta.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_script_entry_point():
    """A real process: the installed script, else the module's own entry point."""
    exe = shutil.which("abszeta")
    cmd = [exe] if exe else [sys.executable, "-m", "abszeta.cli"]
    proc = subprocess.run(cmd + ["zeta", "--scheme", "SL(2)"],
                          capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 0
    assert proc.stdout == "(s-1)^1 * (s-3)^-1\n"


IMPORT_PROBE = """
import contextlib, io, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import abszeta, abszeta.cli

def loaded():
    return sorted(m for m in ("numpy", "scipy") if sys.modules.get(m) is not None)

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert abszeta.cli.run(list(argv)) == 0, argv

for argv in [("catalog",), ("zeta", "--scheme", "SL(3)"), ("check", "fe", "--scheme", "GL(3)"),
             ("sine", "--order=-2"), ("eval", "--expr", "u^3 - u", "--u", "4")]:
    run(*argv)
print(loaded())
for argv in [("gamma", "--order=-1.5", "--x", "2", "--method", "integral"),
             ("gamma", "--order=-1.5", "--x", "2"), ("check", "thm2", "--r=-2.5"),
             ("check", "identity-binomial")]:
    run(*argv)
print(loaded())
"""


STARTUP_PROBE = """
import contextlib, io, sys
SLOW = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")
preloaded = {m for m in SLOW if m in sys.modules}
import abszeta, abszeta.cli

def loaded():
    return sorted(m for m in SLOW if m in sys.modules and m not in preloaded)

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert abszeta.cli.run(list(argv)) == 0, argv

print(sorted(preloaded), loaded())
run("zeta", "--scheme", "SL(3)")
run("catalog")
print(loaded())
run("catalog", "--json")
print(loaded())
"""


def test_cli_start_loads_no_code_generation_or_json():
    """Import and the text commands load neither ``dataclasses`` (nor what it
    pulls in: inspect, ast, dis, tokenize) nor ``json``; ``--json`` loads json."""
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE],
                          capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n[]\n['json']\n"


def test_symbolic_commands_and_quadrature_load_no_numeric_stack():
    """Import, the exact subcommands, quadrature and the series are stdlib-only:
    with numpy made unimportable, every one of them still runs."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
