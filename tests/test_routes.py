"""Route-independence gate, on the standard library alone (``ast``).

A cross-check behind a paper claim proves something only if its two routes
share no code.  The gate builds the package's call graph from the source:
a module-level function, class or constant reaches every package name its
body reads, followed through each module's imports (``from .m import f``,
``from . import m as alias`` and ``alias.f``); reaching a class reaches
its methods.  Calls through other attributes (``obj.method``) are left out.
Every name is resolved at module scope, so a local that shadows a
module-level name counts as a read of it, and an import inside a function
binds its names for the whole module: the gate errs toward sharing.

Claims covered:
- the catalog's expansion (``catalog._expansion``, down to the packed
  product's kernel) and the gamma's subset-sum recurrence
  (``gammasine.subset_sum_exponents``), the two routes of the catalog's
  cross-check, meet only in :data:`ALLOWED`;
- the three routes of a negative-order gamma, the series (``gamma_series``),
  the integral (``gamma_integral``) and the exact product (``neg_gamma``,
  evaluated by ``eval_power_product``), meet pairwise only in :data:`ALLOWED`
  and :data:`GAMMA_ALLOWED`, and each entry of the latter is still met;
- the gate sees a route that calls a helper of the other.
"""

from __future__ import annotations

import ast
import os
from itertools import combinations

import abszeta

SRC = os.path.dirname(abszeta.__file__)

#: What two routes may share: the error taxonomy, which only refuses, and the
#: record base of the input data types, which only stores fields.
ALLOWED = {("errors", "*"), ("reports", "Record")}

#: What the gamma routes may share beyond :data:`ALLOWED`, and why it proves nothing
#: either way: each entry checks or coerces an input, bounds the work, or takes the
#: exponential of a log that each route computed on its own.
GAMMA_ALLOWED = {
    ("numerics", "_finite_positive"): "the series' and the integral's check that x > 0 is finite",
    ("numerics", "_exp_log_gamma"): "exp of the log each numeric route computed, refusing a "
                                    "value beyond the float range",
    ("counting", "MAX_PACKED_BITS"): "the bit budget above which the series' exact terminating "
                                     "sum and the product's decimal log sum refuse",
    ("rationals", "as_rational"): "coerces rational data: the exact terminating sum's x, the "
                                  "product's roots and exponents",
}

#: The roots of each gamma route.
GAMMA_ROUTES = {
    "series": [("numerics", "gamma_series")],
    "integral": [("numerics", "gamma_integral")],
    "product": [("gammasine", "neg_gamma"), ("symzeta", "eval_power_product")],
}


def _package() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                trees[name[:-3]] = ast.parse(f.read(), name)
    return trees


def call_graph(trees: dict[str, ast.Module]) -> dict[tuple[str, str], set[tuple[str, str]]]:
    """(module, name) of each top-level definition -> the definitions its body reads."""
    bodies, scopes = {}, {}
    for module, tree in trees.items():
        scope = scopes[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # from . import m: a module alias; from .m import f: the name f of m
                    target = (alias.name, None) if node.module is None else (node.module, alias.name)
                    scope[alias.asname or alias.name] = target
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[module, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        bodies[module, target.id] = node.value

    def resolve(module: str, name: str) -> tuple[str, str] | None:
        while (module, name) not in bodies:  # follow re-exports to the definition
            if name not in scopes.get(module, {}) or scopes[module][name][1] is None:
                return None
            module, name = scopes[module][name]
        return module, name

    graph = {}
    for (module, name), body in bodies.items():
        reads = set()
        for node in ast.walk(body):
            if isinstance(node, ast.Name):
                reads.add(resolve(module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                alias = scopes[module].get(node.value.id)
                if alias is not None and alias[1] is None:  # m.f of a module alias m
                    reads.add(resolve(alias[0], node.attr))
        graph[module, name] = reads - {None, (module, name)}
    return graph


def reachable(graph, *roots: tuple[str, str]) -> set[tuple[str, str]]:
    seen, todo = set(roots), list(roots)
    while todo:
        for nxt in graph[todo.pop()] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def shared(graph, one: list[tuple[str, str]], other: list[tuple[str, str]]) -> set:
    """What both routes, each given by its roots, reach, less :data:`ALLOWED`."""
    meet = reachable(graph, *one) & reachable(graph, *other)
    return {(m, n) for m, n in meet if (m, n) not in ALLOWED and (m, "*") not in ALLOWED}


def test_catalog_routes_share_no_code():
    graph = call_graph(_package())
    expansion = reachable(graph, ("catalog", "_expansion"))
    # the graph follows the expansion into the kernel it checks
    assert {("counting", "_packed_product"), ("counting", "_pack"),
            ("counting", "_sparse_product")} <= expansion
    assert not shared(graph, [("catalog", "_expansion")], [("gammasine", "subset_sum_exponents")])


def test_gamma_routes_meet_only_in_the_allow_list():
    graph = call_graph(_package())
    # the graph follows each route into its kernel
    assert {("numerics", "_series_limit"), ("numerics", "_terminating_sum")} <= reachable(
        graph, *GAMMA_ROUTES["series"])
    assert ("quadrature", "integrate") in reachable(graph, *GAMMA_ROUTES["integral"])
    assert ("gammasine", "_neg_gamma_exponents") in reachable(graph, *GAMMA_ROUTES["product"])
    met = set()
    for one, other in combinations(GAMMA_ROUTES, 2):
        meet = shared(graph, GAMMA_ROUTES[one], GAMMA_ROUTES[other])
        assert meet <= GAMMA_ALLOWED.keys(), (one, other, meet - GAMMA_ALLOWED.keys())
        met |= meet
    assert met == GAMMA_ALLOWED.keys()  # no entry outlives its reason


def test_gate_sees_a_shared_helper():
    trees = {
        "errors": ast.parse("class ParameterRangeError(Exception): pass\n"),
        "counting": ast.parse("from .errors import ParameterRangeError\n"
                              "def _bits(p): raise ParameterRangeError\n"
                              "def product(p): return _bits(p)\n"),
        "gammasine": ast.parse("from . import counting as cf\n"
                               "from .errors import ParameterRangeError\n"
                               "def subsets(s): return cf._bits(s)\n"
                               "def apart(s): raise ParameterRangeError\n"
                               "def late(s):\n"
                               "    from .counting import _bits\n"
                               "    return _bits(s)\n"),
    }
    graph = call_graph(trees)
    for route in ("subsets", "late"):
        assert shared(graph, [("counting", "product")], [("gammasine", route)]) == {
            ("counting", "_bits")}
    assert not shared(graph, [("counting", "product")], [("gammasine", "apart")])
