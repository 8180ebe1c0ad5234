"""abszeta benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload {cli_cold,exact_scale,numeric_grid}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is taken from ``src/`` (byte-
compiled first), and every operation runs in a fresh interpreter started
from here, so the benchmark process itself never imports ``abszeta``.

* ``cli_cold``: each operation is one ``python -m abszeta.cli ...`` process.
* ``exact_scale`` / ``numeric_grid``: one worker process imports the
  package, warms up, and runs the seeded batch in a closed loop with one
  client for the given seconds.

With ``--trace 0`` the last line of stdout is the JSON result with every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Lines before it are a readable summary.  See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Set-up is timed this many times per run (fresh interpreters); the median is reported.
SETUP_SAMPLES = 5
#: Wall-clock cap for any one child process.
CHILD_TIMEOUT_S = 120.0
#: cli_cold runs this many seeded batches of ten invocations, each at least
#: once, so every run attempts the same operations and its tail has ten
#: samples beyond it.
CLI_BATCHES = 2

OUT_DIR = os.path.join(HERE, "out")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, crashed worker)."""


# ---------------------------------------------------------------------------
# child processes

def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env):
    """Run one process to completion; returns (seconds, exit code, stdout, stderr, max RSS kB).

    Output goes to files, so the process never blocks on a full pipe, and
    the process is reaped with ``wait4`` to read its own peak RSS.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "child.stdout")
    err_path = os.path.join(OUT_DIR, "child.stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (elapsed, proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), usage.ru_maxrss)


class Worker:
    """A ``worker.py`` process; ``ready_s`` is spawn-to-READY, its set-up time."""

    def __init__(self, root: str, env: dict, job: dict, importtime: bool = False):
        argv = [sys.executable]
        if importtime:
            argv += ["-X", "importtime"]
        argv.append(os.path.join(HERE, "worker.py"))
        os.makedirs(OUT_DIR, exist_ok=True)
        self.err_path = os.path.join(OUT_DIR, "worker.stderr")
        self._err = open(self.err_path, "w+b")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._err, env=env, text=True, cwd=root)
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()
        self.proc.stdin.write(json.dumps(job))
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"worker failed during set-up: {self.stderr()[-2000:]}")

    def finish(self) -> str:
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self._watchdog.cancel()
            self._err.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}: {self.stderr()[-2000:]}")
        return out

    def stderr(self) -> str:
        with open(self.err_path, encoding="utf-8", errors="replace") as f:
            return f.read()


def build(root: str, env: dict) -> None:
    """Byte-compile the package, so set-up is not timed with a cold bytecode cache."""
    _t, code, _out, err, _rss = run_child(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")], env)
    if code != 0:
        raise BenchError(f"byte-compiling src failed: {err[-2000:]}")


def setup_samples(root: str, env: dict, workload: str, count: int) -> list[float]:
    job = {"workload": workload, "mode": "setup", "warmup": workloads.warmup_ops(workload)}
    samples = []
    for _ in range(count):
        worker = Worker(root, env, job)
        worker.finish()
        samples.append(worker.ready_s)
    return samples


# ---------------------------------------------------------------------------
# statistics

def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, weighted by a Beta((n+1)q,
    (n+1)(1-q)) distribution.  A single order statistic jumps when two
    samples swap places across a gap between operation sizes; this estimate
    moves smoothly, so a run-to-run wobble does not read as a jump.
    """
    import mpmath
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with fewer than eleven
    samples the maximum is returned as the 100th percentile.
    """
    n = len(values)
    if n < 11:
        return max(values), 100.0, n
    q = (n - 10) / n
    return quantile(values, q), 100.0 * q, n


def parse_importtime(stderr: str) -> dict:
    """Import time in ms: all of abszeta (cumulative) and the numpy and scipy modules (self)."""
    totals = {"abszeta": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cumulative_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        top = name.partition(".")[0]
        if top == "abszeta" and indent == 1:
            totals["abszeta"] += cumulative_us / 1000.0
        elif top in ("numpy", "scipy"):
            totals[top] += self_us / 1000.0
    return totals


# ---------------------------------------------------------------------------
# workloads

def checked_results(ops, results):
    """Check every result; returns the verdicts in operation order."""
    import checker
    verdicts, refs = [], {}
    for op, (result, error) in zip(ops, results):
        ref = None
        if error is None and op.get("tol") is not None:
            # both tolerances of a grid point share one reference
            point = json.dumps({k: v for k, v in op.items() if k not in ("tol", "group")},
                               sort_keys=True)
            if point not in refs:
                refs[point] = checker.reference(op)
            ref = refs[point]
        verdicts.append(checker.check_result(op, result, error, ref))
    return verdicts


def run_inprocess(root, env, workload, seed, seconds, trace):
    ops = workloads.make_batches(workload, seed, 1)[0]
    setup = [] if trace else setup_samples(root, env, workload, SETUP_SAMPLES - 1)
    trace_file = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
    job = {"workload": workload, "mode": "run", "ops": ops, "seconds": seconds,
           "warmup": workloads.warmup_ops(workload), "trace": bool(trace),
           "trace_file": trace_file}
    worker = Worker(root, env, job, importtime=bool(trace))
    setup.append(worker.ready_s)
    doc = json.loads(worker.finish())
    # Each operation counts once, however often it repeats: the first pass is
    # checked, and the worker compared every later pass with it.
    verdicts = checked_results(ops, doc["results"])
    for i in doc["mismatched"]:
        import checker
        verdicts[i] = checker.Verdict(False, f"operation {i} ({ops[i]['kind']}) returned "
                                             "a different result on a later pass")
    # An operation's latency is its fastest repetition in the run: the work is
    # deterministic, and the minimum filters out interference from the host.
    fastest = [min(lat) for lat in zip(*doc["latencies"])]
    samples = [(op["group"], t) for op, t in zip(ops, fastest)]
    run = {
        "setup": setup, "batches": [sum(fastest)], "samples": samples,
        "batch_note": f"batch_s sums each operation's fastest of {len(doc['passes'])} repetitions",
        "verdicts": verdicts, "peak_rss_kb": doc["max_rss_kb"],
    }
    if trace:
        run["trace"] = doc["trace"]
        run["imports"] = [parse_importtime(worker.stderr())]
        run["trace_file"] = trace_file
    return run


def run_cli(root, env, seed, seconds, trace):
    """Run the seeded set of invocations once, then again from its start until
    the seconds are up.  Every invocation is timed and checked; an operation
    counts once, and fails if any of its invocations fails."""
    setup = [] if trace else setup_samples(root, env, "cli_cold", SETUP_SAMPLES)
    ops = [op for batch in workloads.make_batches("cli_cold", seed, CLI_BATCHES) for op in batch]
    python = [sys.executable] + (["-X", "importtime"] if trace else [])
    cli_seconds = seconds / 2 if trace else seconds
    samples, outputs, imports, rss_kb = [], [], [], []
    begin = time.perf_counter()
    while len(samples) < len(ops) or (
            time.perf_counter() - begin + statistics.median(s for _g, s in samples) <= cli_seconds):
        i = len(samples) % len(ops)
        op = ops[i]
        elapsed, code, out, err, rss = run_child(python + ["-m", "abszeta.cli"] + op["argv"], env)
        samples.append((op["group"], elapsed))
        outputs.append((i, code, out, err))
        rss_kb.append(rss)
        if trace:
            imports.append(parse_importtime(err))
    import checker
    verdicts = [None] * len(ops)
    for i, code, out, err in outputs:
        op = ops[i]
        if trace:
            err = "\n".join(line for line in err.splitlines() if not line.startswith("import time:"))
        ref = checker.reference(op) if code == op.get("expect_exit", 0) else None
        verdict = checker.check_cli(op, code, out, err, ref)
        if verdicts[i] is None:
            verdicts[i] = verdict
        elif verdict.ok != verdicts[i].ok:
            verdicts[i] = checker.Verdict(False, "a repeated invocation gave another verdict: "
                                                 + " ".join(op["argv"]))
    # a batch is ten consecutive invocations, as the set is laid out batch by batch
    size = len(ops) // CLI_BATCHES
    batch_times = [sum(s for _g, s in samples[k:k + size])
                   for k in range(0, len(samples) - size + 1, size)]
    # each invocation is its own process: report the median of their peaks
    run = {"setup": setup, "batches": batch_times, "samples": samples,
           "batch_note": f"batch_s is the median of {len(batch_times)} batches of {size} "
                         f"({len(samples)} invocations of {len(ops)} distinct operations)",
           "verdicts": verdicts, "peak_rss_kb": statistics.median_low(rss_kb)}
    if trace:
        job = {"workload": "cli_cold", "mode": "run", "ops": ops[:size],
               "seconds": max(1.0, seconds / 4), "trace": True,
               "trace_file": os.path.join(OUT_DIR, f"trace-cli_cold-{seed}.jsonl")}
        worker = Worker(root, env, job)
        doc = json.loads(worker.finish())
        run["trace"] = doc["trace"]
        run["imports"] = imports
        run["trace_file"] = job["trace_file"]
        run["cli_ops_per_batch"] = size
    return run


# ---------------------------------------------------------------------------
# metrics

END_TO_END = [
    ("setup_s", "s"), ("batch_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("group_a_p50_ms", "ms"), ("group_b_p50_ms", "ms"), ("peak_rss_mb", "MiB"),
]


def end_to_end(run) -> tuple[dict, list[str]]:
    latencies_ms = [s * 1000.0 for _g, s in run["samples"]]
    group_a = [s * 1000.0 for g, s in run["samples"] if g == "a"]
    group_b = [s * 1000.0 for g, s in run["samples"] if g == "b"]
    tail_ms, tail_pct, n = tail(latencies_ms)
    values = {
        "setup_s": statistics.median(run["setup"]),
        "batch_s": statistics.median(run["batches"]),
        "op_p50_ms": quantile(latencies_ms, 0.5),
        "op_tail_ms": tail_ms,
        "group_a_p50_ms": quantile(group_a, 0.5),
        "group_b_p50_ms": quantile(group_b, 0.5),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    notes = [f"percentiles are Harrell-Davis estimates; op_tail_ms is p{tail_pct:.2f} of {n} operations "
             f"({len(group_a)} in group a, {len(group_b)} in group b)",
             f"setup_s is the median of {len(run['setup'])} fresh interpreters; "
             + run["batch_note"]]
    return values, notes


PER_LAYER = [
    ("import.abszeta_ms", "ms"), ("import.numpy_ms", "ms"), ("import.scipy_ms", "ms"),
    ("cli.build_parser_ms", "ms"), ("cli.handler_ms", "ms"),
    ("parser.calls", "count"), ("parser.busy_ms", "ms"), ("parser.terms_out", "count"),
    ("counting.otimes_calls", "count"), ("counting.otimes_pairs", "count"),
    ("counting.self_ms", "ms"),
    ("catalog.self_ms", "ms"), ("catalog.crosscheck_ms", "ms"),
    ("catalog.crosscheck_share", "ratio"), ("catalog.subsets", "count"),
    ("gammasine.self_ms", "ms"), ("gammasine.subsets", "count"),
    ("symzeta.self_ms", "ms"), ("symzeta.factors_out", "count"), ("symzeta.fe_checks", "count"),
    ("numerics.series_calls", "count"), ("numerics.series_ms", "ms"),
    ("numerics.self_ms", "ms"), ("numerics.terms_summed", "count"),
    ("numerics.array_bytes_peak", "bytes"), ("numerics.convergence_errors", "count"),
    ("quadrature.integrate_calls", "count"), ("quadrature.busy_ms", "ms"),
    ("quadrature.self_ms", "ms"), ("quadrature.failures", "count"),
    ("trace.batch_ms", "ms"), ("trace.unaccounted_ms", "ms"), ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_ms", "ms"), ("trace.overhead_share", "ratio"), ("trace.spans", "count"),
    ("result.err_ratio_max", "ratio"), ("result.fail_ratio", "ratio"),
]


def per_layer(run, verdicts) -> tuple[dict, list[str]]:
    tr = run["trace"]
    totals = tr["totals"]
    counts = tr["counts"]
    n = tr["traced_passes"]

    def per_batch_ms(key):
        return totals.get(key, 0) / n / 1e6

    def per_batch(key, source=totals):
        return source.get(key, 0) / n

    imports = run["imports"]
    batch_ms = tr["traced_mean_s"] * 1000.0
    self_ms = {layer: per_batch_ms(f"{layer}.self_ns") for layer in
               ("cli", "parser", "counting", "symzeta", "gammasine", "catalog",
                "numerics", "quadrature")}
    top_ms = per_batch_ms("top.busy_ns")
    ops_per_batch = run.get("cli_ops_per_batch", 1)
    zeta_scheme_ms = per_batch_ms("catalog.zeta_of_scheme_ns")
    ratios = [v.err_ratio for v in verdicts if v.err_ratio is not None]
    values = {
        "import.abszeta_ms": statistics.median(i["abszeta"] for i in imports),
        "import.numpy_ms": statistics.median(i["numpy"] for i in imports),
        "import.scipy_ms": statistics.median(i["scipy"] for i in imports),
        "cli.build_parser_ms": per_batch_ms("cli.build_parser_ns") / ops_per_batch,
        "cli.handler_ms": (per_batch_ms("cli.run_ns") - per_batch_ms("cli.build_parser_ns"))
        / ops_per_batch,
        "parser.calls": per_batch("parser.calls"),
        "parser.busy_ms": per_batch_ms("parser.busy_ns"),
        "parser.terms_out": per_batch("parser.terms_out", counts),
        "counting.otimes_calls": per_batch("counting.otimes_calls"),
        "counting.otimes_pairs": per_batch("counting.otimes_pairs", counts),
        "counting.self_ms": self_ms["counting"],
        "catalog.self_ms": self_ms["catalog"],
        "catalog.crosscheck_ms": per_batch_ms("catalog.crosscheck_ns"),
        "catalog.crosscheck_share": (per_batch_ms("catalog.crosscheck_ns") / zeta_scheme_ms
                                     if zeta_scheme_ms else 0.0),
        "catalog.subsets": per_batch("catalog.subsets", counts),
        "gammasine.self_ms": self_ms["gammasine"],
        "gammasine.subsets": per_batch("gammasine.subsets", counts),
        "symzeta.self_ms": self_ms["symzeta"],
        "symzeta.factors_out": per_batch("symzeta.factors_out", counts),
        "symzeta.fe_checks": per_batch("symzeta.fe_checks"),
        "numerics.series_calls": per_batch("numerics.series_calls"),
        "numerics.series_ms": per_batch_ms("numerics.series_ns"),
        "numerics.self_ms": self_ms["numerics"],
        "numerics.terms_summed": per_batch("numerics.terms_summed", counts),
        "numerics.array_bytes_peak": counts.get("numerics.array_bytes_peak", 0),
        "numerics.convergence_errors": per_batch("numerics.convergence_errors"),
        "quadrature.integrate_calls": per_batch("quadrature.integrate_calls"),
        "quadrature.busy_ms": per_batch_ms("quadrature.busy_ns"),
        "quadrature.self_ms": self_ms["quadrature"],
        "quadrature.failures": per_batch("quadrature.failures"),
        "trace.batch_ms": batch_ms,
        "trace.unaccounted_ms": batch_ms - sum(self_ms.values()),
        "trace.unaccounted_share": (batch_ms - sum(self_ms.values())) / batch_ms,
        "trace.overhead_ms": (tr["traced_batch_s"] - tr["untraced_batch_s"]) * 1000.0,
        "trace.overhead_share": (tr["traced_batch_s"] - tr["untraced_batch_s"]) / tr["untraced_batch_s"],
        "trace.spans": tr["spans"] / n,
        "result.err_ratio_max": max(ratios) if ratios else 0.0,
        "result.fail_ratio": sum(not v.ok for v in verdicts) / len(verdicts),
    }
    shares = sorted(((ms / batch_ms, layer) for layer, ms in self_ms.items() if ms > 0), reverse=True)
    notes = ["self time per traced batch: " + ", ".join(
        f"{layer} {share:.1%}" for share, layer in shares)
        + f", unaccounted {values['trace.unaccounted_share']:.1%}",
        f"spans written to {os.path.relpath(run['trace_file'])}",
        f"top-level spans cover {top_ms / batch_ms:.1%} of the traced batch",
        f"tracing overhead is the median traced minus the median untraced batch "
        f"({tr['traced_passes']} traced batches)"]
    if run.get("cli_ops_per_batch"):
        cli_ms = statistics.median(s for _g, s in run["samples"]) * 1000.0
        notes.append(f"import of abszeta is {values['import.abszeta_ms'] / cli_ms:.1%} of the "
                     f"median CLI invocation ({cli_ms:.1f} ms under -X importtime)")
    return values, notes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "abszeta", "__init__.py")):
        print("bench: no src/abszeta here; run from the root of an abszeta checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        build(root, env)
        if args.workload == "cli_cold":
            run = run_cli(root, env, args.seed, args.seconds, args.trace)
        else:
            run = run_inprocess(root, env, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    import checker
    verdicts = run["verdicts"]
    failed = [v for v in verdicts if not v.ok]
    unexpected = [v for v in failed if v.defect is None]
    if args.trace:
        values, notes = per_layer(run, verdicts)
        units = dict(PER_LAYER)
    else:
        values, notes = end_to_end(run)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name:30s} {value:>16.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    print(f"# {len(failed)} of {len(verdicts)} operations failed "
          f"(fail ratio {len(failed) / len(verdicts):.4f}); "
          f"{len(failed) - len(unexpected)} are known defects")
    for defect in sorted({v.defect for v in failed if v.defect}):
        print(f"#   known defect {defect}: {checker.KNOWN_DEFECTS[defect]}")
    for v in unexpected[:10]:
        print(f"#   UNEXPECTED: {v.reason}")
    result = {
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
