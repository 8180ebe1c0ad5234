"""Spans around calls into abszeta's modules, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules, in
every module namespace that holds it (the defining module and each module
that imported the name), by a wrapper that records one span per call:
qualified name, start and end (``perf_counter_ns``), index of the parent
span, operation id and the exception type if the call raised.  Spans stay
in memory and are written once, at the end of the run.

The program itself is not changed.  Calls between functions of one module
that go through the module's globals are traced too; calls through local
aliases and methods are not, and their time is the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

#: Modules traced as layers; special, rationals, reports and errors are too
#: small to trace separately, so their time is their caller's self time.
LAYERS = ("cli", "parser", "counting", "symzeta", "gammasine", "catalog",
          "numerics", "quadrature")

SERIES_FUNCTIONS = ("numerics.zeta_series", "numerics.gamma_series")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, op, error]
        self.counts: Counter = Counter()
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._hooks = {
            "counting.otimes": self._count_otimes,
            "parser.parse_expr": self._count_parsed,
            "catalog.zeta_of_scheme": self._count_scheme_subsets,
            "gammasine.multiperiod_gamma": self._count_gamma_subsets,
        }
        self._numpy_patched = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package: str = "abszeta") -> None:
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module(package))
        wrapped: dict[int, object] = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(package + ".") or home not in LAYERS:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(f"{home}.{obj.__name__}", obj)
                self._patches.append((module, name, obj))
                setattr(module, name, wrapped[id(obj)])
        self._patch_numpy()

    def uninstall(self) -> None:
        """Restore every original function, so untraced passes run unwrapped."""
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()
        self._numpy_patched = False

    def _patch_numpy(self) -> None:
        """Count the elements the numerics layer hands to numpy reductions.

        Patched on the numpy module object, so a later lazy ``import numpy``
        inside the program sees the same wrappers.  Only called once numpy
        is loaded; the tracer never imports it itself.
        """
        numpy = sys.modules.get("numpy")
        if numpy is None or self._numpy_patched:
            return
        self._numpy_patched = True
        for name in ("cumsum", "sum"):
            original = getattr(numpy, name)

            def reduce(a, *args, _original=original, **kwargs):
                if self.enabled and self._stack and self.spans[self._stack[-1]][0].startswith("numerics."):
                    size = getattr(a, "size", None)
                    if size is not None:
                        self.counts["numerics.terms_summed"] += int(size)
                        nbytes = int(a.nbytes)
                        if nbytes > self.counts["numerics.array_bytes_peak"]:
                            self.counts["numerics.array_bytes_peak"] = nbytes
                return _original(a, *args, **kwargs)

            self._patches.append((numpy, name, original))
            setattr(numpy, name, reduce)

    def _wrap(self, qualname: str, fn):
        spans = self.spans
        stack = self._stack
        hook = self._hooks.get(qualname)
        layer = qualname.partition(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if layer == "numerics" and not self._numpy_patched:
                self._patch_numpy()
            parent = stack[-1] if stack else -1
            span = [qualname, perf_counter_ns(), 0, parent, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, result)
            if layer == "symzeta" and (parent < 0 or not spans[parent][0].startswith("symzeta.")):
                factors = getattr(result, "factors", None)
                if factors is not None:
                    self.counts["symzeta.factors_out"] += len(factors)
            return result

        return traced

    # -- counters computed at the boundary --------------------------------

    def _count_otimes(self, args, result) -> None:
        self.counts["counting.otimes_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _count_parsed(self, args, result) -> None:
        self.counts["parser.terms_out"] += len(result.terms)

    def _count_scheme_subsets(self, args, result) -> None:
        periods = args[0].periods
        if periods is not None:
            self.counts["catalog.subsets"] += 2 ** len(periods)

    def _count_gamma_subsets(self, args, result) -> None:
        self.counts["gammasine.subsets"] += 2 ** len(args[0].periods)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, error in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op, "error": error}) + "\n")


def layer_totals(spans: list[list]) -> Counter:
    """Self time and boundary counts per layer, in nanoseconds and calls.

    A span's self time is its duration minus its children's durations.  A
    boundary span is one whose parent is outside its layer; its inclusive
    time is the layer's busy time.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _err in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: Counter = Counter()
    first_zeta_child: dict[int, int] = {}
    for i, (name, start, end, parent, _op, error) in enumerate(spans):
        layer = name.partition(".")[0]
        duration = end - start
        totals[f"{layer}.self_ns"] += duration - child_ns[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent < 0:
            totals["top.busy_ns"] += duration
        if not parent_name.startswith(layer + "."):
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.busy_ns"] += duration
            if error == "ConvergenceError":
                totals[f"{layer}.convergence_errors"] += 1
        if name == "counting.otimes":
            totals["counting.otimes_calls"] += 1
        elif name == "symzeta.check_functional_equation":
            totals["symzeta.fe_checks"] += 1
        elif name == "quadrature.integrate":
            totals["quadrature.integrate_calls"] += 1
            totals["quadrature.integrate_ns"] += duration
            if error is not None:
                totals["quadrature.failures"] += 1
        elif name in SERIES_FUNCTIONS:
            totals["numerics.series_calls"] += 1
            totals["numerics.series_ns"] += duration
        elif name == "cli.build_arg_parser":
            totals["cli.build_parser_ns"] += duration
        elif name == "cli.run":
            totals["cli.run_ns"] += duration
        if name == "symzeta.zeta_of" and parent >= 0 and spans[parent][0] == "catalog.zeta_of_scheme":
            first_zeta_child.setdefault(parent, i)
    # The cross-check is everything zeta_of_scheme does after the counting
    # route (zeta_of of the counting function) has returned.
    for parent, child in first_zeta_child.items():
        totals["catalog.crosscheck_ns"] += spans[parent][2] - spans[child][2]
        totals["catalog.zeta_of_scheme_ns"] += spans[parent][2] - spans[parent][1]
    return totals
