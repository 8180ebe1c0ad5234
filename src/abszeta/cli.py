"""Command-line interface.

Subcommands::

    counting   print the counting function of an expression or scheme
    zeta       print the factored absolute zeta function
    hurwitz    print the Hurwitz-type form, or evaluate it at (w, s)
    gamma      gamma functions of negative order (product/series/integral)
    sine       sine functions of negative order (trivial by design)
    check      run verification commands (fe, thm2, identity-binomial,
               reflection, thm4)
    eval       evaluate a counting function at real u > 1
    catalog    list the built-in schemes

Global flags: ``--json`` switches to machine-readable one-line JSON
documents; ``--tol`` and ``--max-terms`` tune the numeric engine.  Exit
codes: 0 success, 1 usage error, 2 parse error, 3 domain error (poles,
bad ranges, violated preconditions), 4 convergence failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

from . import __version__
from .catalog import catalog_entries, counting_of, fe_params_of, zeta_of_scheme
from .counting import CountingFunction, eval_at
from .errors import (AbsZetaError, ConvergenceError, DomainError, ParameterRangeError,
                     ParseError)
from .gammasine import (MultiGammaSpec, PeriodVector, multiperiod_gamma,
                        multiperiod_sine, neg_gamma, neg_sine,
                        tensor_power_fe_check)
from .numerics import (SeriesSettings, binomial_identity_sum, euler_reflection_check,
                       gamma_integral, gamma_series, vanishing_check)
from .parser import GRAMMAR, parse_expr, parse_scheme
from .quadrature import QuadSettings
from .rationals import as_rational, qstr
from .reports import CheckReport
from .symzeta import (FEParams, FEReport, PowerProduct, check_functional_equation,
                      eval_hurwitz, eval_power_product, hurwitz_str, zeta_of)


class _UsageError(Exception):
    """Command-line usage problem detected after argparse (exit code 1)."""


# ---------------------------------------------------------------------------
# argument conversion helpers

def _parse_complex(text: str) -> complex:
    """Accept 're' or 're,im' with float components."""
    try:
        return complex(*map(float, text.split(",")))
    except (TypeError, ValueError):  # TypeError: more than two parts
        raise argparse.ArgumentTypeError(
            f"expected a number 're' or 're,im' with float parts, got {text!r}") from None


def _parse_rational_or_float(text: str):
    """Return a Fraction when the literal is exact, else a float."""
    try:
        return as_rational(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"not a number: {text!r}") from None


def _order_float(text: str, what: str) -> float:
    """The order literal as a float; an exact value beyond the float range exits 3."""
    try:
        return float(_parse_rational_or_float(text))
    except OverflowError:
        raise ParameterRangeError(f"{what} {text} is beyond the float range") from None


def _parse_periods(text: str) -> PeriodVector:
    try:
        parts = [as_rational(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad period list {text!r}: {exc}") from None
    return PeriodVector(tuple(parts))


def _as_int(value, what: str) -> int:
    """The integer of a :func:`_parse_rational_or_float` value, whose floats are inf or nan."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise _UsageError(f"{what} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# output documents

def _fmt_float(x: float) -> float:
    # JSON serializes repr(float); keep -0.0 from leaking into documents.
    return 0.0 if x == 0.0 else float(x)


def _fmt_number(z: complex) -> str:
    if z.imag == 0.0:
        return repr(_fmt_float(z.real))
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_float(z.real)!r}{sign}{abs(z.imag)!r}j"


def counting_doc(n: CountingFunction) -> dict:
    return {"kind": "counting", "variable": "u",
            "terms": [{"exponent": qstr(a, n.den), "multiplicity": qstr(m, n.mden)}
                      for a, m in n.pairs]}


def power_product_doc(p: PowerProduct) -> dict:
    return {"kind": "power_product", "variable": p.variable,
            "factors": [{"root": qstr(r, p.den), "exp": qstr(e, p.mden)} for r, e in p.pairs]}


def hurwitz_doc(n: CountingFunction) -> dict:
    return {"kind": "hurwitz_form", "variable": "s",
            "terms": [{"shift": qstr(a, n.den), "coeff": qstr(m, n.mden)} for a, m in n.pairs]}


def number_doc(z: complex) -> dict:
    return {"kind": "number", "re": _fmt_float(z.real), "im": _fmt_float(z.imag)}


def fe_report_doc(rep: FEReport) -> dict:
    return {"kind": "fe_report", "holds": rep.holds, "center": qstr(rep.center),
            "sign": f"{rep.sign:+d}", "parity_sum": qstr(rep.parity_sum),
            "mismatches": [{"root": qstr(r), "exp": qstr(e), "transformed_exp": qstr(t)}
                           for r, e, t in rep.mismatches]}


def check_report_doc(rep: CheckReport) -> dict:
    return {"kind": "check_report", "name": rep.name, "passed": rep.passed,
            "value": _fmt_float(rep.value), "expected": _fmt_float(rep.expected),
            "tolerance": _fmt_float(rep.tolerance), "detail": rep.detail}


def catalog_doc() -> dict:
    return {"kind": "catalog", "schemes": [
        {"name": spec.name, "dimension": spec.dimension, "rank": spec.rank,
         "periods": [qstr(p) for p in spec.periods.periods] if spec.periods else []}
        for spec in catalog_entries()]}


def _fe_report_text(rep: FEReport) -> str:
    lines = [f"holds: {'true' if rep.holds else 'false'}",
             f"center: {qstr(rep.center)}",
             f"sign: {rep.sign:+d}",
             f"parity sum: {qstr(rep.parity_sum)}"]
    for root, orig, trans in rep.mismatches:
        lines.append(f"mismatch at root {qstr(root)}: exponent {qstr(orig)}, "
                     f"reflected {qstr(trans)}")
    return "\n".join(lines)


def _emit(args, doc: dict, text: str) -> int:
    if args.json:
        import json  # only --json needs it; text output starts without it
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# per-command handlers

def _counting_from_args(args) -> CountingFunction:
    if (args.expr is None) == (args.scheme is None):
        raise _UsageError("exactly one of --expr or --scheme is required")
    if args.expr is not None:
        return parse_expr(args.expr)
    return counting_of(parse_scheme(args.scheme))


def _series_cfg(args) -> SeriesSettings:
    return SeriesSettings(tol=_check_tol(args, 1e-9), max_terms=args.max_terms)


def _check_tol(args, default: float) -> float:
    return args.tol if args.tol is not None else default


def _cmd_counting(args) -> int:
    n = _counting_from_args(args)
    return _emit(args, counting_doc(n), str(n))


def _cmd_zeta(args) -> int:
    if args.expr is None and args.scheme is not None:
        p = zeta_of_scheme(parse_scheme(args.scheme))
    else:
        p = zeta_of(_counting_from_args(args))
    return _emit(args, power_product_doc(p), str(p))


def _cmd_hurwitz(args) -> int:
    n = _counting_from_args(args)
    if (args.w is None) != (args.s is None):
        raise _UsageError("--w and --s must be given together")
    if args.w is None:
        return _emit(args, hurwitz_doc(n), hurwitz_str(n))
    value = eval_hurwitz(n, args.w, args.s)
    return _emit(args, number_doc(value), _fmt_number(value))


def _cmd_gamma(args) -> int:
    order = _parse_rational_or_float(args.order)
    method = args.method
    if method is None:
        is_int = isinstance(order, Fraction) and order.denominator == 1
        method = "product" if (is_int and args.periods is None) or args.periods else "series"
    if args.periods is not None and method != "product":
        raise _UsageError("--periods implies the multi-period product form")
    if method == "product":
        if args.periods is not None:
            spec = MultiGammaSpec(order=_as_int(order, "--order"),
                                  periods=_parse_periods(args.periods))
            product = multiperiod_gamma(spec)
        else:
            k = _as_int(order, "--order")
            if k >= 0:
                raise DomainError(f"gamma order must be negative, got {k}")
            product = neg_gamma(-k)
        if args.x is None:
            return _emit(args, power_product_doc(product), str(product))
        value = eval_power_product(product, complex(args.x))
        return _emit(args, number_doc(value), _fmt_number(value))
    if args.x is None:
        raise _UsageError(f"method {method!r} needs --x")
    order_f = _order_float(args.order, "--order")
    if method == "series":
        value = gamma_series(order_f, args.x, _series_cfg(args))
    else:
        value = gamma_integral(order_f, args.x, QuadSettings(tol=_check_tol(args, 1e-10)))
    return _emit(args, number_doc(complex(value)), _fmt_number(complex(value)))


def _cmd_sine(args) -> int:
    order = _as_int(_parse_rational_or_float(args.order), "--order")
    if args.periods is not None:
        product = multiperiod_sine(MultiGammaSpec(order=order,
                                                  periods=_parse_periods(args.periods)))
    else:
        if order >= 0:
            raise DomainError(f"sine order must be negative, got {order}")
        product = neg_sine(-order)
    return _emit(args, power_product_doc(product), str(product))


def _cmd_check_fe(args) -> int:
    if args.scheme is not None:
        if args.expr is not None:
            raise _UsageError("give either --scheme or --expr, not both")
        spec = parse_scheme(args.scheme)
        product = zeta_of_scheme(spec)
        fe = fe_params_of(spec)
    else:
        if args.expr is None:
            raise _UsageError("--expr or --scheme is required")
        if args.center is None or args.sign is None:
            raise _UsageError("--expr needs --center and --sign")
        product = zeta_of(parse_expr(args.expr))
        sign = args.sign.lstrip("+")
        if sign not in ("1", "-1"):
            raise _UsageError(f"--sign must be +1 or -1, got {args.sign!r}")
        try:
            fe = FEParams(center=args.center, sign=int(sign))
        except ValueError:  # as_rational refused the literal
            raise _UsageError(f"--center must be a rational number, got {args.center!r}") from None
    rep = check_functional_equation(product, fe)
    return _emit(args, fe_report_doc(rep), _fe_report_text(rep))


def _cmd_check_thm2(args) -> int:
    r = _order_float(args.r, "--r")
    if not math.isfinite(r) or r.is_integer() or r >= 0.0:
        raise DomainError(f"the vanishing statement needs a negative non-integer order, got {r}")
    x = args.x if args.x is not None else 0.5
    cfg = _series_cfg(args)
    tol = _check_tol(args, 1e-6)
    first = math.floor(r) + 1
    defects = {m: vanishing_check(r, m, x, cfg) for m in range(first, 1)}
    worst = max(defects.values())
    detail = "; ".join(f"m={m}: defect {d:.3e}" for m, d in sorted(defects.items()))
    rep = CheckReport(
        name=f"vanishing of the order {r} series at integer arguments in ({r}, 0]",
        passed=worst <= tol, value=worst, expected=0.0, tolerance=tol, detail=detail)
    return _emit(args, check_report_doc(rep), rep.summary())


def _cmd_check_identity_binomial(args) -> int:
    value = binomial_identity_sum(_series_cfg(args))
    tol = _check_tol(args, 1e-3)
    rep = CheckReport(
        name="central binomial sum C(2n,n)/((2n-1)4^n) totals 1",
        passed=abs(value - 1.0) <= tol, value=value, expected=1.0, tolerance=tol)
    return _emit(args, check_report_doc(rep), rep.summary())


def _cmd_check_reflection(args) -> int:
    left, right = euler_reflection_check(args.s)
    tol = _check_tol(args, 1e-8)
    rep = CheckReport(
        name=f"reflection product at s={args.s} against -1/(2 sin(pi s))",
        passed=abs(left - right) <= tol * max(1.0, abs(right)),
        value=left, expected=right, tolerance=tol)
    return _emit(args, check_report_doc(rep), rep.summary())


def _cmd_check_thm4(args) -> int:
    rep = tensor_power_fe_check(_as_int(_parse_rational_or_float(args.r), "--r"))
    return _emit(args, check_report_doc(rep), rep.summary())


def _cmd_eval(args) -> int:
    n = parse_expr(args.expr)
    value = eval_at(n, args.u)
    return _emit(args, number_doc(complex(value)), repr(_fmt_float(value)))


def _cmd_catalog(args) -> int:
    lines = [f"{'name':<8} {'dim':>4} {'rank':>4}  periods"]
    for spec in catalog_entries():
        periods = str(spec.periods) if spec.periods else "-"
        lines.append(f"{spec.name:<8} {spec.dimension:>4} {spec.rank:>4}  {periods}")
    return _emit(args, catalog_doc(), "\n".join(lines))


# ---------------------------------------------------------------------------
# parser assembly and dispatch

#: argparse only lets plain negative integers/decimals through as option
#: values; orders like -1/2 must qualify too.  (Newer Pythons are already
#: permissive here; on older ones we widen the private matcher, which at
#: worst leaves the --order=-1/2 spelling as the fallback.)
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _allow_negative_values(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one-line JSON documents instead of text")
    common.add_argument("--tol", type=float, default=None,
                        help="numeric tolerance / check threshold override")
    common.add_argument("--max-terms", type=int, default=300_000,
                        help="term cap for series summation (default 300000)")

    top = argparse.ArgumentParser(
        prog="abszeta",
        description="Absolute zeta functions over F1: exact factored forms, "
                    "functional equations, and negative-order gamma/sine numerics.",
        epilog="Expression grammar:\n" + GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, group=sub):
        p = group.add_parser(name, parents=[common], help=help_text,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(func=func)
        return _allow_negative_values(p)

    p = add("counting", _cmd_counting, "counting function of an expression or scheme")
    p.add_argument("--expr", help="expression in u, e.g. '(u-1)^2'")
    p.add_argument("--scheme", help="scheme name: SpecF1, Gm, Gm^r, SL(r), GL(r)")

    p = add("zeta", _cmd_zeta, "factored absolute zeta function")
    p.add_argument("--expr")
    p.add_argument("--scheme")

    p = add("hurwitz", _cmd_hurwitz, "Hurwitz-type form, or its value at (w, s)")
    p.add_argument("--expr")
    p.add_argument("--scheme")
    p.add_argument("--w", type=_parse_complex, help="order, 're' or 're,im'")
    p.add_argument("--s", type=_parse_complex, help="argument, 're' or 're,im'")

    p = add("gamma", _cmd_gamma, "gamma function of negative order")
    p.add_argument("--order", required=True, help="negative order, e.g. -3 or -1/2")
    p.add_argument("--x", type=float, help="evaluation point x > 0")
    p.add_argument("--method", choices=("product", "series", "integral"))
    p.add_argument("--periods", help="comma-separated positive periods, e.g. 1,2")

    p = add("sine", _cmd_sine, "sine function of negative order (trivial)")
    p.add_argument("--order", required=True)
    p.add_argument("--periods")

    chk = sub.add_parser("check", help="verification commands")
    chk_sub = chk.add_subparsers(dest="check_command", required=True)

    p = add("fe", _cmd_check_fe, "exact functional-equation check", chk_sub)
    p.add_argument("--expr")
    p.add_argument("--scheme")
    p.add_argument("--center", help="reflection center (rational)")
    p.add_argument("--sign", help="+1 or -1")

    p = add("thm2", _cmd_check_thm2,
            "vanishing of the negative-order series at integers in (r, 0]", chk_sub)
    p.add_argument("--r", required=True, help="negative non-integer order")
    p.add_argument("--x", type=float, help="evaluation point x > 0 (default 0.5)")

    add("identity-binomial", _cmd_check_identity_binomial, "central binomial sum equals 1",
        chk_sub)

    p = add("reflection", _cmd_check_reflection, "classical reflection formula cross-check",
            chk_sub)
    p.add_argument("--s", type=float, required=True, help="non-integer argument")

    p = add("thm4", _cmd_check_thm4, "tensor-power functional equation via the trivial sine",
            chk_sub)
    p.add_argument("--r", required=True, help="tensor power r >= 1")

    p = add("eval", _cmd_eval, "evaluate a counting function at u > 1")
    p.add_argument("--expr", required=True)
    p.add_argument("--u", type=float, required=True)

    add("catalog", _cmd_catalog, "list built-in schemes")
    return top


#: The exit code of each error class, the first match winning; DomainError and
#: any other package error exit 3.
_EXIT_CODES = ((_UsageError, 1), (ParseError, 2), (ConvergenceError, 4), (AbsZetaError, 3))


def run(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if (exc.code == 0 or exc.code is None) else 1
    try:
        return args.func(args)
    except (_UsageError, AbsZetaError) as exc:
        code = next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
        _report_error(args, "usage" if code == 1 else type(exc).__name__, str(exc))
        return code


def _report_error(args, kind: str, message: str) -> None:
    print(f"abszeta: error: {message}", file=sys.stderr)
    if getattr(args, "json", False):
        import json
        doc = {"kind": "error", "error": kind, "message": message}
        print(json.dumps(doc, separators=(",", ":")), file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
