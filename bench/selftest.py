"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py          # from the root of the checkout

Checks that:

* every workload, traced and untraced, prints a last line with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
  metrics are exactly the ones BENCHMARK.json names, with their units;
* the checker accepts genuine results and rejects deliberately corrupted
  ones (exact, numeric and CLI);
* the benchmark refuses to run, with a non-zero exit and no result line,
  in a directory that holds only the benchmark.

Takes about two minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def run_bench(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_emitted_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            proc = run_bench(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} --trace {trace} exits 0 ({proc.stderr[-300:]})")
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(doc) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} --trace {trace}: result keys")
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            expect(got == wanted, f"{workload} --trace {trace}: every {key} metric, with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values()),
                   f"{workload} --trace {trace}: every value is a number")
            expect(doc["correct"] is True and doc["attempted"] >= 1,
                   f"{workload} --trace {trace}: correct, with operations attempted")
            if trace == 0:
                count = run.CLI_BATCHES if workload == "cli_cold" else 1
                distinct = sum(map(len, workloads.make_batches(workload, 7, count)))
                expect(doc["attempted"] == distinct,
                       f"{workload}: attempted counts each of the seed's {distinct} operations once")


def _genuine(op):
    import abszeta
    from worker import Executor, serialize
    return serialize(Executor(abszeta)(op))


def check_checker_rejects_corruption() -> None:
    import random
    rng = random.Random(3)
    ops = workloads.exact_batch(rng)
    by_kind = {}
    for op in ops:
        if op["kind"] in ("zeta_scheme", "parse", "fe_check", "sine", "thm4") and \
                op.get("scheme") not in ("GL(12)", "Gm^13", "Gm^12"):
            by_kind.setdefault(op["kind"], op)
    for kind, op in by_kind.items():
        result = _genuine(op)
        expect(checker.check_result(op, result, None).ok, f"checker accepts a genuine {kind} result")
        bad = copy.deepcopy(result)
        if kind == "zeta_scheme":
            root, exp = bad["factors"][0]
            bad["factors"][0] = [root, str(int(exp) + 1)]
        elif kind == "parse":
            exponent, mult = bad["terms"][-1]
            bad["terms"][-1] = [exponent, str(Fraction(mult) + 1)]
        elif kind == "fe_check":
            bad["holds"] = not bad["holds"]
        elif kind == "sine":
            bad["factors"] = [["0", "1"], ["1", "-1"]]
        elif kind == "thm4":
            bad["passed"] = not bad["passed"]
        expect(not checker.check_result(op, bad, None).ok, f"checker rejects a corrupted {kind} result")

    op = dict(workloads.numeric_warmup()[0], tol=1e-9)
    result = _genuine(op)
    ref = checker.reference(op)
    expect(checker.check_result(op, result, None, ref).ok, "checker accepts a genuine series value")
    bad = dict(result, re=result["re"] * (1 + 1e-7))
    expect(not checker.check_result(op, bad, None, ref).ok,
           "checker rejects a series value off by 1e-7 relative at tolerance 1e-9")
    expect(not checker.check_result(op, None, ["ConvergenceError", "x"], ref).ok,
           "checker rejects a raised ConvergenceError outside the known defects")

    cli_op = {"kind": "counting", "argv": ["counting", "--scheme", "GL(3)", "--json"],
              "factors": workloads.scheme_factors("GL(3)")}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "abszeta.cli"] + cli_op["argv"],
                          capture_output=True, text=True, env=env, timeout=120)
    expect(checker.check_cli(cli_op, proc.returncode, proc.stdout, proc.stderr).ok,
           "checker accepts genuine CLI output")
    doc = json.loads(proc.stdout)
    doc["terms"] = doc["terms"][1:]
    expect(not checker.check_cli(cli_op, 0, json.dumps(doc), "").ok,
           "checker rejects CLI output with a term dropped")
    expect(not checker.check_cli(cli_op, 3, "", "abszeta: error: x").ok,
           "checker rejects an unexpected CLI exit code")


def check_refuses_without_program() -> None:
    empty = os.path.join(HERE, "out", "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
        shutil.copytree(HERE, os.path.join(empty, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(empty, "exact_scale", 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "refuses to run without the program: non-zero exit, no result")
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def main() -> int:
    os.chdir(ROOT)
    check_checker_rejects_corruption()
    check_refuses_without_program()
    check_emitted_metrics()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
