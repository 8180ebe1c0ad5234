"""Runs one workload's operations in-process, in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Reads one JSON job
from stdin, imports ``abszeta``, runs the workload's warm-up operations and
prints ``READY``; the parent times set-up from the spawn to that line.  In
``setup`` mode it stops there.  Otherwise it runs the batch repeatedly for
the job's seconds (tracing every other pass when asked) and prints one JSON
document: per-operation latencies, per-pass times, the serialized results of
the first pass, the operations whose later passes returned something else,
and its peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, layer_totals  # noqa: E402


def _q(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def serialize(result) -> dict:
    kind = type(result).__name__
    if kind in ("CountingFunction", "HurwitzForm"):
        return {"type": "terms", "terms": [[_q(a), _q(m)] for a, m in result.terms]}
    if kind == "PowerProduct":
        return {"type": "product", "factors": [[_q(r), _q(e)] for r, e in result.factors]}
    if kind == "FEReport":
        return {"type": "fe", "holds": result.holds, "center": _q(result.center),
                "sign": result.sign, "parity": result.parity_sum,
                "mismatches": len(result.mismatches)}
    if kind == "CheckReport":
        return {"type": "check", "passed": result.passed, "value": result.value,
                "expected": result.expected}
    if isinstance(result, tuple) and kind == "tuple":
        return {"type": "values", "values": [float(v) for v in result]}
    if isinstance(result, (int, float, complex)):
        z = complex(result)
        return {"type": "number", "re": z.real, "im": z.imag}
    if isinstance(result, dict):
        return dict(result, type="cli")
    raise TypeError(f"cannot serialize {kind}")


class Executor:
    """Maps an operation description onto calls of the public API."""

    def __init__(self, az):
        self.az = az
        from abszeta.numerics import SeriesSettings
        from abszeta.quadrature import QuadSettings
        self.series = SeriesSettings
        self.quad = QuadSettings

    def __call__(self, op: dict):
        az = self.az
        kind = op["kind"]
        if kind == "zeta_scheme":
            return az.zeta_of_scheme(az.parse_scheme(op["scheme"]))
        if kind == "parse":
            return az.parse_expr(op["text"])
        if kind == "tensor_power":
            return az.tensor_power(az.parse_expr(op["text"]), op["power"])
        if kind == "otimes":
            return az.otimes(az.parse_expr(op["left_text"]), az.parse_expr(op["right_text"]))
        if kind == "fe_check":
            if "scheme" in op:
                product = az.zeta_of_scheme(az.parse_scheme(op["scheme"]))
            else:
                product = az.zeta_of(az.parse_expr(op["text"]))
            return az.check_functional_equation(
                product, az.FEParams(center=Fraction(op["center"]), sign=op["sign"]))
        if kind == "sine":
            periods = az.PeriodVector(tuple(Fraction(p) for p in op["periods"]))
            return az.multiperiod_sine(az.MultiGammaSpec(order=-len(periods), periods=periods))
        if kind == "thm4":
            return az.tensor_power_fe_check(op["r"])
        tol = op.get("tol")
        if kind == "zeta_series":
            return az.zeta_series(op["r"], complex(*op["w"]), op["x"], self.series(tol=tol))
        if kind == "gamma_series":
            return az.gamma_series(op["r"], op["x"], self.series(tol=tol))
        if kind == "vanishing":
            return az.vanishing_check(op["r"], op["m"], op["x"], self.series(tol=tol))
        if kind == "gamma_integral":
            return az.gamma_integral(op["r"], op["x"], self.quad(tol=tol))
        if kind == "monomial_kernel":
            return az.monomial_kernel_check(Fraction(op["alpha"]), op["s"], op["w"],
                                            self.quad(tol=tol))
        if kind == "log_zeta_integral":
            n = az.counting_of(az.parse_scheme(op["scheme"]))
            return az.log_zeta_integral(n, op["s"], self.quad(tol=tol))
        if kind == "classical_hurwitz":
            return az.classical_hurwitz(op["w"], op["x"])
        if kind == "reflection":
            return az.euler_reflection_check(op["s"])
        if "argv" in op:
            return self.cli(op["argv"])
        raise ValueError(f"unknown operation kind {kind!r}")

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.az.cli.run(list(argv))
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pass(execute, ops, tracer: Tracer | None, first_op: int):
    """Run the batch once; each result is serialized to a JSON string as soon
    as it is timed, so the worker holds no large result objects."""
    outputs, latencies = [], []
    if tracer is not None:
        tracer.install()
        tracer.enabled = True
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = time.perf_counter()
        try:
            result, error = execute(op), None
        except Exception as exc:  # recorded per operation and judged by the checker
            result, error = None, [type(exc).__name__, str(exc)[:300]]
        latencies.append(time.perf_counter() - t0)
        outputs.append(json.dumps([None if error else serialize(result), error]))
        result = None
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()
    # the batch's time is the program's: the operations, not the serialization
    return sum(latencies), latencies, outputs


def main() -> int:
    job = json.loads(sys.stdin.read())
    import abszeta as az
    if job["workload"] == "cli_cold":
        import abszeta.cli
        abszeta.cli.build_arg_parser()
    execute = Executor(az)
    for op in job.get("warmup", []):
        execute(op)
    print("READY", flush=True)
    if job["mode"] == "setup":
        return 0

    tracer = None
    if job["trace"]:
        tracer = Tracer()
    ops = job["ops"]
    seconds = job["seconds"]
    min_passes = 2 if job["trace"] else 1
    passes, latencies, traced = [], [], []
    first = None
    mismatched: set[int] = set()
    begin = time.perf_counter()
    while True:
        use_tracer = tracer if (job["trace"] and len(passes) % 2 == 1) else None
        elapsed, lat, outputs = run_pass(execute, ops, use_tracer, len(passes) * len(ops))
        passes.append(elapsed)
        traced.append(use_tracer is not None)
        latencies.append(lat)
        if first is None:
            first = outputs
        else:
            mismatched.update(i for i, (a, b) in enumerate(zip(first, outputs)) if a != b)
        spent = time.perf_counter() - begin
        if len(passes) >= min_passes and spent + max(passes) > seconds:
            break

    doc = {"passes": passes, "traced": traced, "latencies": latencies,
           "results": [json.loads(out) for out in first], "mismatched": sorted(mismatched),
           "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.write(job["trace_file"])
        totals = layer_totals(tracer.spans)
        doc["trace"] = {"totals": dict(totals), "counts": dict(tracer.counts),
                        "spans": len(tracer.spans),
                        "traced_batch_s": statistics.median(p for p, t in zip(passes, traced) if t),
                        "traced_mean_s": statistics.mean(p for p, t in zip(passes, traced) if t),
                        "untraced_batch_s": statistics.median(p for p, t in zip(passes, traced) if not t),
                        "traced_passes": sum(traced)}
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
