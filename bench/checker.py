"""Output checker shared by all workloads.

Each result is checked by a route that shares no code with ``abszeta``:

* exact results (counting functions, zeta products, functional-equation
  verdicts, sine products) against the paper's closed forms, evaluated in
  plain ``Fraction``/``int`` arithmetic at deg + 1 points: two polynomials
  of degree at most deg that agree at deg + 1 points are equal;
* numeric results against ``mpmath`` references at 30 digits, computed
  after the timed region, with the error expressed as a share of the
  tolerance the call requested (the error ratio, at most 1 to pass);
* CLI invocations by their exit code and by parsing stdout the same way.

A failure that matches an entry of ``KNOWN_DEFECTS`` still counts as a
failed operation; only failures outside that list make a run incorrect.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath as mp

from workloads import scheme_factors

mp.mp.dps = 30

#: Known defects: two on record in ROADMAP.md, one found by this benchmark.
#: They count as failed operations and stay in the workloads; they do not
#: mark the run as incorrect.
KNOWN_DEFECTS = {
    "series_cancellation": "zeta series of order r <= -6.5 (vanishing_check, check thm2): the "
                           "alternating head cancels, giving ConvergenceError or an error "
                           "above the requested tolerance",
    "eval_overflow": "eval --expr 'u^2000' --u 10 ends in a raw OverflowError traceback "
                     "(exit 1) instead of exit 3",
    "gamma_series_small_order": "gamma series at orders -0.2 < r < 0 cannot meet tolerance 1e-9 "
                                "within the default 300000 terms (ConvergenceError, exit 4); "
                                "found by this benchmark",
}


class Verdict:
    """Outcome of checking one operation."""

    __slots__ = ("ok", "reason", "defect", "err_ratio")

    def __init__(self, ok: bool, reason: str = "", defect: str | None = None,
                 err_ratio: float | None = None):
        self.ok = ok
        self.reason = reason
        self.defect = defect
        self.err_ratio = err_ratio


def _fail(reason: str, defect: str | None = None, err_ratio: float | None = None) -> Verdict:
    return Verdict(False, reason, defect, err_ratio)


# ---------------------------------------------------------------------------
# closed forms in plain rational arithmetic

def _lcm_den(values) -> int:
    out = 1
    for v in values:
        out = out * v.denominator // math.gcd(out, v.denominator)
    return out


def closed_form_terms(factors) -> dict[Fraction, Fraction]:
    """Expand a product of powered sums into an exponent -> coefficient map.

    Only used for small inputs (CLI schemes, numeric references); larger
    ones are checked pointwise by :func:`expression_matches`.
    """
    acc = {Fraction(0): Fraction(1)}
    for base, power in factors:
        base = [(Fraction(c), Fraction(e)) for c, e in base]
        for _ in range(power):
            nxt: dict[Fraction, Fraction] = {}
            for a, m in acc.items():
                for c, e in base:
                    nxt[a + e] = nxt.get(a + e, Fraction(0)) + m * c
            acc = {a: m for a, m in nxt.items() if m != 0}
    return acc


def _exponent_range(factors):
    lo = hi = Fraction(0)
    for base, power in factors:
        exps = [Fraction(e) for _c, e in base]
        lo += power * min(exps)
        hi += power * max(exps)
    return lo, hi


def _closed_form_at(factors, v: int, scale: int) -> Fraction:
    """prod (sum c * v^(scale*e))^power at the integer point v."""
    total = Fraction(1)
    for base, power in factors:
        s = Fraction(0)
        for c, e in base:
            k = Fraction(e) * scale
            s += Fraction(c) * Fraction(v) ** int(k)
        total *= s ** power
    return total


def expression_matches(factors, terms) -> str:
    """'' if the term map equals the closed-form product, else the reason.

    With u = v^L (L clears every exponent denominator) both sides become
    Laurent polynomials in v of span D; after multiplying by v^(-lo) they
    are polynomials of degree <= D, compared at the D + 1 points 1..D+1.
    """
    terms = [(Fraction(a), Fraction(m)) for a, m in terms]
    lo, hi = _exponent_range(factors)
    exps = [Fraction(e) for base, _p in factors for _c, e in base] + [a for a, _m in terms]
    scale = _lcm_den(exps)
    for a, m in terms:
        if not lo <= a <= hi:
            return f"exponent {a} outside the closed form's range [{lo}, {hi}]"
        if m == 0:
            return "zero multiplicity kept"
    if [a for a, _ in terms] != sorted((a for a, _ in terms), reverse=True):
        return "terms not in descending exponent order"
    degree = int((hi - lo) * scale)
    shift = int(lo * scale)
    coeffs: dict[int, Fraction] = {}
    for a, m in terms:
        coeffs[int(a * scale) - shift] = m
    dense = [coeffs.get(k, Fraction(0)) for k in range(degree, -1, -1)]
    if all(m.denominator == 1 for m in dense):
        dense = [int(m) for m in dense]
    for v in range(1, degree + 2):
        acc = 0
        for m in dense:
            acc = acc * v + m
        expected = _closed_form_at(factors, v, scale) * Fraction(v) ** (-shift)
        if acc != expected:
            return f"differs from the closed form at u^(1/{scale}) = {v}"
    return ""


def fe_holds(factors, center: Fraction, sign: int) -> bool:
    """Whether N(u) satisfies u^c N(1/u) = sign * N(u) and N(1) is even.

    That is the functional equation P(s) = P(c - s)^sign of the zeta
    product prod (s - a)^(-m(a)), decided on the closed form at enough
    points of v with u = v^L.
    """
    lo, hi = _exponent_range(factors)
    exps = [Fraction(e) for base, _p in factors for _c, e in base] + [center]
    scale = _lcm_den(exps)
    # both sides are Laurent polynomials in v with exponents within this span
    span = int((max(hi, center - lo) - min(lo, center - hi)) * scale)
    for v in range(2, span + 3):
        left = Fraction(v) ** int(center * scale) * _closed_form_at(factors, Fraction(1, v), scale)
        if left != sign * _closed_form_at(factors, v, scale):
            return False
    value_at_one = _closed_form_at(factors, 1, scale)
    return value_at_one.denominator == 1 and value_at_one.numerator % 2 == 0


def _product_terms(factors):
    """Counting function (exponent, multiplicity) pairs of a zeta product."""
    return [(Fraction(r), -Fraction(e)) for r, e in sorted(
        ((Fraction(r), Fraction(e)) for r, e in factors), key=lambda p: p[0], reverse=True)]


def product_is_one(factors) -> str:
    if factors:
        return f"expected the constant 1, got {len(factors)} factors"
    return ""


# ---------------------------------------------------------------------------
# mpmath references (30 digits)

def ref_zeta_series(r: float, w: complex, x: float):
    """sum C(n+r-1, n) (n+x)^(-w) via its Mellin integral.

    1/Gamma(w) * int t^(w-1) e^(-xt) (1-e^(-t))^(-r) dt; the head [0, 1]
    is flattened by tau = t^a with a = Re(w) - r.
    """
    r = mp.mpf(r)
    x = mp.mpf(x)
    w = mp.mpc(w.real, w.imag)
    a = w.real - r

    def smooth(t):
        return mp.exp(-x * t) * (-mp.expm1(-t) / t) ** (-r) if t > 0 else mp.mpf(1)

    def head(tau):
        if tau == 0:
            return mp.mpf(0) if mp.im(w) != 0 else mp.mpf(1) / a
        t = tau ** (1 / a)
        return smooth(t) * mp.exp(1j * mp.im(w) * mp.log(t)) / a

    def tail(t):
        return t ** (w - 1) * mp.exp(-x * t) * (-mp.expm1(-t)) ** (-r)

    total = mp.quad(head, [0, 1]) + mp.quad(tail, [1, 10, 60, mp.inf])
    return total / mp.gamma(w)


def ref_log_gamma(r: float, x: float):
    """log Gamma_r(x) = int (1-e^(-t))^(-r) e^(-xt) / t dt, head flattened."""
    a = -mp.mpf(r)
    x = mp.mpf(x)

    def head(tau):
        if tau == 0:
            return 1 / a
        t = tau ** (1 / a)
        return (-mp.expm1(-t) / t) ** a * mp.exp(-x * t) / a

    def tail(t):
        return (-mp.expm1(-t)) ** a * mp.exp(-x * t) / t

    return mp.quad(head, [0, 1]) + mp.quad(tail, [1, 10, 60, mp.inf])


def ref_log_zeta(factors, s: float):
    """log prod (s - a)^(-m(a)) for the closed-form counting function."""
    s = mp.mpf(s)
    return -ref_term_sum(factors, lambda a: mp.log(s - a))[0]


def _mpq(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def ref_term_sum(factors, term):
    """(sum of m * term(a), sum of |m * term(a)|) over the expanded closed form."""
    values = [_mpq(m) * term(_mpq(a)) for a, m in closed_form_terms(factors).items()]
    return mp.fsum(values), mp.fsum(abs(v) for v in values)


def ref_hurwitz_eval(factors, w, s):
    w = mp.mpc(*w)
    s = mp.mpc(*s)
    return ref_term_sum(factors, lambda a: mp.exp(-w * mp.log(s - a)))


def ref_eval(factors, u: float):
    u = mp.mpf(u)
    return ref_term_sum(factors, lambda a: u ** a)


def reference(op: dict):
    """The mpmath reference for a numeric operation, or None for exact ones."""
    kind = op["kind"]
    if kind == "zeta_series":
        return ref_zeta_series(op["r"], complex(*op["w"]), op["x"])
    if kind in ("gamma_series", "gamma_integral", "gamma"):
        return ref_log_gamma(op["r"], op["x"])
    if kind == "vanishing":
        return mp.mpf(0)  # the paper's theorem: zero at integers in (r, 0]
    if kind == "monomial_kernel":
        return (mp.mpf(op["s"]) - _mpq(Fraction(op["alpha"]))) ** (-mp.mpf(op["w"]))
    if kind == "log_zeta_integral":
        return ref_log_zeta(op["factors"], op["s"])
    if kind == "classical_hurwitz":
        return mp.zeta(op["w"], op["x"])
    if kind in ("reflection", "reflection_cli"):
        return -1 / (2 * mp.sin(mp.pi * mp.mpf(op["s"])))
    if kind == "hurwitz_eval":
        return ref_hurwitz_eval(op["factors"], op["w"], op["s"])
    if kind == "eval":
        return ref_eval(op["factors"], op["u"])
    return None


# ---------------------------------------------------------------------------
# checking one in-process result

def _is_series_cancellation(op: dict) -> bool:
    # the error grows about 30-fold per unit of -r; it first exceeds
    # tolerance 1e-9 at r = -6.5 and tolerance 1e-6 at r = -8.5
    return op["kind"] == "vanishing" and op["r"] <= -6.5


def _is_small_order_gamma(op: dict) -> bool:
    return (op["kind"] == "gamma_series" or op.get("method") == "series") and -0.2 < op["r"] < 0


def _convergence_defect(op: dict) -> str | None:
    """The known defect behind a ConvergenceError (exit 4), if any."""
    if _is_series_cancellation(op):
        return "series_cancellation"
    if _is_small_order_gamma(op):
        return "gamma_series_small_order"
    return None


def _ratio_verdict(op: dict, ratio: float) -> Verdict:
    if ratio <= 1.0:
        return Verdict(True, err_ratio=ratio)
    defect = "series_cancellation" if _is_series_cancellation(op) else None
    return _fail(f"error ratio {ratio:.3g} above 1", defect, ratio)


def check_numeric(op: dict, result: dict, ref) -> Verdict:
    tol = op["tol"]
    kind = op["kind"]
    if kind == "reflection":
        left, right = result["values"]
        exact = float(ref)
        scale = max(1.0, abs(exact))
        return _ratio_verdict(op, max(abs(left - exact), abs(right - exact)) / scale / tol)
    value = complex(result["re"], result["im"])
    if kind in ("gamma_series", "gamma_integral"):
        if not (value.imag == 0 and value.real > 0):
            return _fail(f"gamma value {value} is not a positive real")
        return _ratio_verdict(op, abs(math.log(value.real) - float(ref)) / tol)
    if kind == "classical_hurwitz":
        exact = float(ref)
        return _ratio_verdict(op, abs(value - exact) / max(1.0, abs(exact)) / tol)
    exact = complex(ref)
    return _ratio_verdict(op, abs(value - exact) / tol)


def check_exact(op: dict, result: dict) -> Verdict:
    kind = op["kind"]
    if kind == "zeta_scheme":
        reason = expression_matches(scheme_factors(op["scheme"]), _product_terms(result["factors"]))
        return Verdict(not reason, reason)
    if kind == "parse":
        reason = expression_matches(op["factors"], result["terms"])
        return Verdict(not reason, reason)
    if kind == "tensor_power":
        reason = expression_matches([(op["base"], op["power"])], result["terms"])
        return Verdict(not reason, reason)
    if kind == "otimes":
        reason = expression_matches(op["left"] + op["right"], result["terms"])
        return Verdict(not reason, reason)
    if kind == "fe_check":
        center = Fraction(op["center"])
        expected = fe_holds(op["factors"], center, op["sign"])
        if result["holds"] != expected:
            return _fail(f"holds={result['holds']}, closed form says {expected}")
        if Fraction(result["center"]) != center or result["sign"] != op["sign"]:
            return _fail("report carries the wrong center or sign")
        if expected and result["mismatches"]:
            return _fail("equation holds but mismatches were reported")
        return Verdict(True)
    if kind == "sine":
        reason = product_is_one(result["factors"])
        return Verdict(not reason, reason)
    if kind == "thm4":
        expected = fe_holds([([["1", "1"], ["-1", "0"]], op["r"])], Fraction(op["r"]), (-1) ** op["r"])
        if result["passed"] != expected:
            return _fail(f"passed={result['passed']}, closed form says {expected}")
        return Verdict(True)
    raise ValueError(f"no exact check for {kind!r}")


def check_result(op: dict, result: dict | None, error, ref=None) -> Verdict:
    """Check one in-process operation: its serialized result or its error."""
    if error is not None:
        defect = _convergence_defect(op) if error[0] == "ConvergenceError" else None
        return _fail(f"raised {error[0]}: {error[1]}", defect)
    if op.get("tol") is not None:
        return check_numeric(op, result, ref)
    return check_exact(op, result)


# ---------------------------------------------------------------------------
# checking one CLI invocation

def _json_doc(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def _cli_float(stdout: str) -> complex:
    return complex(stdout.strip())


_CATALOG = [("SpecF1", 0, 0, []), ("Gm", 1, 1, ["1"]), ("Gm^2", 2, 2, ["1", "1"]),
            ("Gm^3", 3, 3, ["1", "1", "1"]), ("SL(2)", 3, 1, ["2"]),
            ("SL(3)", 8, 2, ["2", "3"]), ("SL(4)", 15, 3, ["2", "3", "4"]),
            ("GL(1)", 1, 1, ["1"]), ("GL(2)", 4, 2, ["1", "2"]),
            ("GL(3)", 9, 3, ["1", "2", "3"])]


def check_cli(op: dict, code: int, stdout: str, stderr: str, ref=None) -> Verdict:
    """Check a CLI invocation's exit code and output."""
    expect = op.get("expect_exit", 0)
    if code != expect:
        defect = None
        if op.get("defect") == "eval_overflow" and code == 1 and "OverflowError" in stderr:
            defect = "eval_overflow"
        elif code == 4:
            defect = _convergence_defect(op)
        return _fail(f"exit {code}, expected {expect}: {' '.join(op['argv'])}", defect)
    if expect != 0:
        if stdout.strip():
            return _fail("error exit printed to stdout")
        if "abszeta: error:" not in stderr:
            return _fail("error exit without a diagnostic on stderr")
        return Verdict(True)
    kind = op["kind"]
    try:
        if kind in ("gamma", "eval"):
            value = _cli_float(stdout)
        else:
            doc = _json_doc(stdout)
    except ValueError as exc:
        return _fail(f"unparsable output: {exc}")
    if kind in ("counting", "zeta", "hurwitz"):
        if kind == "counting":
            terms = [(t["exponent"], t["multiplicity"]) for t in doc["terms"]]
        elif kind == "zeta":
            terms = _product_terms([(f["root"], f["exp"]) for f in doc["factors"]])
        else:
            terms = [(t["shift"], t["coeff"]) for t in doc["terms"]]
        reason = expression_matches(op["factors"], terms)
        return Verdict(not reason, reason)
    if kind == "sine":
        reason = product_is_one(doc["factors"])
        return Verdict(not reason, reason)
    if kind == "check_fe":
        expected = fe_holds(op["factors"], Fraction(op["center"]), op["sign"])
        if doc["holds"] != expected or Fraction(doc["center"]) != Fraction(op["center"]):
            return _fail(f"holds={doc['holds']} center={doc['center']}, closed form says {expected}")
        return Verdict(True)
    if kind == "thm4":
        expected = fe_holds([([["1", "1"], ["-1", "0"]], op["r"])], Fraction(op["r"]), (-1) ** op["r"])
        return Verdict(doc["passed"] == expected, "" if doc["passed"] == expected else "wrong verdict")
    if kind == "catalog":
        got = [(e["name"], e["dimension"], e["rank"], e["periods"]) for e in doc["schemes"]]
        ok = [(n, d, r, p) for n, d, r, p in got] == [(n, d, r, p) for n, d, r, p in _CATALOG]
        return Verdict(ok, "" if ok else "catalog listing differs")
    if kind == "hurwitz_eval":
        # a floating sum of terms: its error scales with the sum of their sizes
        exact, size = ref
        ratio = abs(complex(doc["re"], doc["im"]) - complex(exact)) / (1e-12 * float(size))
        return Verdict(ratio <= 1.0, "" if ratio <= 1.0 else f"error ratio {ratio:.3g}",
                       err_ratio=ratio)
    if kind == "gamma":
        if value.imag != 0 or value.real <= 0:
            return _fail(f"gamma value {value} is not a positive real")
        ratio = abs(math.log(value.real) - float(ref)) / op["tol"]
        return Verdict(ratio <= 1.0, "" if ratio <= 1.0 else f"error ratio {ratio:.3g}", err_ratio=ratio)
    if kind == "eval":
        exact, size = ref
        if value.imag != 0:
            return _fail(f"eval printed a complex value {value}")
        ratio = abs(value.real - float(exact)) / (1e-12 * float(size))
        return Verdict(ratio <= 1.0, "" if ratio <= 1.0 else f"error ratio {ratio:.3g}",
                       err_ratio=ratio)
    if kind == "thm2":
        ok = doc["passed"] is True and doc["value"] <= op["tol"]
        return Verdict(ok, "" if ok else f"passed={doc['passed']} value={doc['value']}",
                       err_ratio=doc["value"] / op["tol"])
    if kind == "reflection_cli":
        exact = float(ref)
        ratio = abs(doc["value"] - exact) / max(1.0, abs(exact)) / op["tol"]
        ok = doc["passed"] is True and ratio <= 1.0
        return Verdict(ok, "" if ok else f"passed={doc['passed']} ratio={ratio:.3g}", err_ratio=ratio)
    if kind == "binomial":
        ratio = abs(doc["value"] - 1.0) / op["tol"]
        ok = doc["passed"] is True and ratio <= 1.0
        return Verdict(ok, "" if ok else f"value {doc['value']}", err_ratio=ratio)
    raise ValueError(f"no CLI check for {kind!r}")


