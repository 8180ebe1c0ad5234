"""Seeded inputs for the three benchmark workloads.

Every operation is plain data (a dict of strings, numbers and lists), so
the parent process can generate it, send it to a worker as JSON, and
check the worker's answer against the same description.  Nothing here
imports ``abszeta``: the checker must not share code with what it checks.

The mix of each batch is fixed; the seed varies the order of the
operations and the data inside each one (coefficients, rational
exponents, periods, evaluation points).  That keeps the amount of work in
a batch, and so the timings, nearly the same from seed to seed while the
inputs differ.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("cli_cold", "exact_scale", "numeric_grid")

#: The two tolerances every numeric_grid call runs at.
LOOSE_TOL = 1e-6
TIGHT_TOL = 1e-9


def q(x) -> str:
    """Canonical string of a rational, as the CLI prints it."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# expressions with a known closed form
#
# An expression is a product of factors (base, power); a base is a list of
# (coefficient, exponent) pairs, i.e. sum c * u^e.  The checker evaluates
# the closed form directly; the program gets the rendered text.

def render_base(base) -> str:
    parts = []
    for i, (c, e) in enumerate(base):
        c, e = Fraction(c), Fraction(e)
        if e == 0:
            body = q(abs(c))
        else:
            upart = "u" if e == 1 else (f"u^{q(e)}" if e.denominator == 1 else f"u^({q(e)})")
            body = upart if abs(c) == 1 else f"{q(abs(c))}*{upart}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


def render_expr(factors) -> str:
    out = []
    for base, power in factors:
        text = render_base(base)
        out.append(f"({text})" if power == 1 else f"({text})^{power}")
    return "*".join(out)


def _pair(c, e):
    return [q(c), q(e)]


def scheme_closed_form(name: str):
    """(dimension, periods) of a catalog scheme name, from the paper's formulas."""
    if name == "SpecF1":
        return 0, []
    if name == "Gm":
        return 1, [1]
    if name.startswith("Gm^"):
        r = int(name[3:])
        return r, [1] * r
    r = int(name[3:-1])
    if name.startswith("GL("):
        return r * r, list(range(1, r + 1))
    if name.startswith("SL("):
        return r * r - 1, list(range(2, r + 1))
    raise ValueError(name)


def scheme_factors(name: str):
    """The counting function of a scheme as an expression: u^d * prod (1 - u^-w)."""
    d, periods = scheme_closed_form(name)
    factors = [([_pair(1, d)], 1)]
    factors += [([_pair(1, 0), _pair(-1, -w)], 1) for w in periods]
    return factors


# ---------------------------------------------------------------------------
# exact_scale

def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _rational_base(rng: random.Random, den: int, c: int = 3):
    """u^(1/den) +- c.  Only the sign is drawn: other numerators would change
    how many exponents of a product coincide, and with it the work."""
    return [_pair(1, Fraction(1, den)), _pair(c * _sign(rng), 0)]


def _integer_base(rng: random.Random, magnitudes):
    """sum of +-m * u^e with the given coefficient sizes, highest power first.

    Only the signs are drawn, so the term count and the size of the
    expanded coefficients, and with them the work, do not depend on the seed.
    """
    degree = len(magnitudes) - 1
    return [_pair(m * (_sign(rng) if i else 1), degree - i) for i, m in enumerate(magnitudes)]


def _fe_op(factors, center, sign, group, **source):
    return dict({"kind": "fe_check", "factors": factors, "center": q(center), "sign": sign,
                 "group": group}, **source)


def exact_batch(rng: random.Random) -> list[dict]:
    """One batch: group a has integer exponents, group b rational ones.

    Sizes are fixed; the seed draws signs, periods, control centers and the
    order.  No call takes much over 60 ms and the batch about 0.7 s, so each
    call repeats about forty times in a run and its fastest repetition is
    steady: GL(14), Gm^13..16 and sines of 11 or more periods are left out.  Gm^r for
    r >= 20, GL(24) and similar inputs do not finish in bounded time (see
    README.md) and are not run.
    """
    ops: list[dict] = []
    # zeta of catalog schemes, cross-checked inside the program by 2^rank subsets;
    # every other rank, up to rank 12, so the batch repeats about forty times a run
    for r in (6, 8, 10, 12):
        ops.append({"kind": "zeta_scheme", "scheme": f"GL({r})", "group": "a"})
    for r in (7, 9, 11, 13):
        ops.append({"kind": "zeta_scheme", "scheme": f"SL({r})", "group": "a"})
    for r in (8, 10, 12):
        ops.append({"kind": "zeta_scheme", "scheme": f"Gm^{r}", "group": "a"})
    # integer-exponent powers and products: through the parser, tensor_power and otimes
    factors = [(_integer_base(rng, (1, 2)), 48)]
    ops.append({"kind": "parse", "factors": factors, "text": render_expr(factors), "group": "a"})
    factors = [(_integer_base(rng, (2, 3, 2)), 24), (_integer_base(rng, (2, 3)), 24)]
    ops.append({"kind": "parse", "factors": factors, "text": render_expr(factors), "group": "a"})
    for power in (32, 40):
        base = _integer_base(rng, (2, 3))
        ops.append({"kind": "tensor_power", "base": base, "text": render_base(base),
                    "power": power, "group": "a"})
    left, right = [(_integer_base(rng, (1, 3)), 32)], [(_integer_base(rng, (2, 3, 2)), 16)]
    ops.append({"kind": "otimes", "left": left, "right": right,
                "left_text": render_expr(left), "right_text": render_expr(right), "group": "a"})
    # the same algebra on rational exponents
    for p1, p2, d1, d2 in ((30, 24, 2, 3), (30, 24, 3, 4), (30, 24, 2, 5), (24, 24, 4, 2)):
        factors = [(_rational_base(rng, d1), p1), (_rational_base(rng, d2, 2), p2)]
        ops.append({"kind": "parse", "factors": factors, "text": render_expr(factors),
                    "group": "b"})
    for power, den in ((40, 2), (36, 3), (45, 5)):
        base = _rational_base(rng, den)
        ops.append({"kind": "tensor_power", "base": base, "text": render_base(base),
                    "power": power, "group": "b"})
    left, right = [(_rational_base(rng, 2), 45)], [(_rational_base(rng, 3, 2), 24)]
    ops.append({"kind": "otimes", "left": left, "right": right,
                "left_text": render_expr(left), "right_text": render_expr(right), "group": "b"})
    # exact functional-equation checks; each scheme also gets a control center that must fail
    for name in ("GL(9)", "SL(10)", "Gm^10"):
        d, periods = scheme_closed_form(name)
        center = 2 * d - sum(periods)
        sign = -1 if len(periods) % 2 else 1
        for c in (center, center + rng.randint(1, 3)):
            ops.append(_fe_op(scheme_factors(name), c, sign, "a", scheme=name))
    for den, power in ((1, 48), (2, 40), (3, 30), (4, 24)):
        factors = [([_pair(1, Fraction(1, den)), _pair(-1, 0)], power)]
        ops.append(_fe_op(factors, Fraction(power, den), (-1) ** power,
                          "a" if den == 1 else "b", text=render_expr(factors)))
    # multi-period sine, trivial (the constant 1) for every period vector; periods
    # with distinct subset sums, so every seed enumerates the same 2^r roots
    for r in (8, 9, 10):
        periods = [Fraction(p, 7) for p in rng.sample(range(100, 1000), r)]
        ops.append({"kind": "sine", "periods": [q(p) for p in periods], "group": "a"})
    for r in (40, 50):
        ops.append({"kind": "thm4", "r": r, "group": "a"})
    rng.shuffle(ops)
    return ops


def exact_warmup() -> list[dict]:
    factors = [([_pair(1, Fraction(1, 2)), _pair(-1, 0)], 3)]
    return [
        {"kind": "zeta_scheme", "scheme": "GL(3)", "group": "a"},
        {"kind": "parse", "factors": factors, "text": render_expr(factors), "group": "b"},
        {"kind": "tensor_power", "base": [_pair(1, 1), _pair(-1, 0)], "text": "u-1",
         "power": 3, "group": "a"},
        {"kind": "otimes", "left": factors, "right": factors, "left_text": render_expr(factors),
         "right_text": render_expr(factors), "group": "b"},
        {"kind": "fe_check", "factors": scheme_factors("GL(2)"), "scheme": "GL(2)",
         "center": "5", "sign": 1, "group": "a"},
        {"kind": "sine", "periods": ["1", "2"], "group": "a"},
        {"kind": "thm4", "r": 3, "group": "a"},
    ]


# ---------------------------------------------------------------------------
# numeric_grid

def _noninteger(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform in [lo, hi], at least 0.1 away from every integer."""
    while True:
        v = rng.uniform(lo, hi)
        if abs(v - round(v)) >= 0.1:
            return round(v, 6)


def _stratified(rng: random.Random, n: int, lo: float, hi: float,
                avoid_integers: bool = False) -> list[float]:
    """n values in [lo, hi]: one uniform draw from each of n equal slices of
    the range, in random order.  With ``avoid_integers`` the slices cover
    only the part of the range at least 0.1 away from every integer.

    Each seed draws other values, but every seed covers the range the same
    way, so the work of a batch hardly changes from seed to seed.
    """
    pieces = [(lo, hi)]
    if avoid_integers:
        pieces, start = [], lo
        for k in range(math.floor(lo) - 1, math.ceil(hi) + 2):
            a, b = k - 0.1, k + 0.1
            if a > start:
                pieces.append((start, min(a, hi)))
            start = max(start, b)
            if start >= hi:
                break
        pieces = [(a, b) for a, b in pieces if b > a]
    total = sum(b - a for a, b in pieces)
    values = []
    for i in range(n):
        t = (i + rng.random()) * total / n
        for a, b in pieces:
            if t <= b - a:
                values.append(round(a + t, 6))
                break
            t -= b - a
        else:
            values.append(round(pieces[-1][1], 6))
    rng.shuffle(values)
    return values


def numeric_batch(rng: random.Random) -> list[dict]:
    """One grid; every parameter is drawn stratified over its range."""
    points: list[dict] = []
    for imag in (False, True):
        for r, dw, x, y in zip(_stratified(rng, 4, -6.0, -0.1, True), _stratified(rng, 4, 0.5, 3.0),
                               _stratified(rng, 4, 0.3, 3.0), _stratified(rng, 4, -3.0, 3.0)):
            points.append({"kind": "zeta_series", "r": r, "w": [round(r + dw, 6), y if imag else 0.0],
                           "x": x})
    for r, x in zip(_stratified(rng, 4, -6.0, -0.1, True), _stratified(rng, 4, 0.3, 3.0)):
        points.append({"kind": "gamma_series", "r": r, "x": x})
    # vanishing at integers in (r, 0]: one order from each band of [-12.5, -0.5],
    # including the large orders where the series is known to lose accuracy
    # (at m = -k, the integer just above r, the large orders fail)
    for (lo, hi, nearest), x in zip(((0, 3, False), (4, 7, False), (8, 12, False), (8, 12, True)),
                                    _stratified(rng, 4, 0.3, 2.0)):
        k = rng.randint(lo, hi)
        points.append({"kind": "vanishing", "r": -k - 0.5,
                       "m": -k if nearest else rng.randint(-k, 0), "x": x})
    for r, x in zip(_stratified(rng, 40, -6.0, -0.1, True), _stratified(rng, 40, 0.3, 3.0)):
        points.append({"kind": "gamma_integral", "r": r, "x": x})
    denominators = [1, 2, 3, 4] * 10
    rng.shuffle(denominators)
    for num, den, ds, w in zip(_stratified(rng, 40, -6.49, 6.49), denominators,
                               _stratified(rng, 40, 0.5, 4.0), _stratified(rng, 40, 0.3, 4.0)):
        alpha = Fraction(round(num), den)
        points.append({"kind": "monomial_kernel", "alpha": q(alpha),
                       "s": round(float(alpha) + ds, 6), "w": w})
    schemes = ["Gm", "Gm^2", "Gm^3", "SL(2)", "SL(3)", "GL(2)", "GL(3)"]
    names = schemes * 4 + rng.sample(schemes, 2)
    rng.shuffle(names)
    for name, ds in zip(names, _stratified(rng, 30, 0.5, 4.0)):
        d, _periods = scheme_closed_form(name)
        points.append({"kind": "log_zeta_integral", "scheme": name, "factors": scheme_factors(name),
                       "s": round(d + ds, 6)})
    for w, x in zip(_stratified(rng, 20, -4.0, 6.0, True), _stratified(rng, 20, 0.2, 4.0)):
        points.append({"kind": "classical_hurwitz", "w": w, "x": x})
    for s in _stratified(rng, 20, -4.0, 4.0, True):
        points.append({"kind": "reflection", "s": s})
    ops = []
    for point in points:
        for group, tol in (("a", LOOSE_TOL), ("b", TIGHT_TOL)):
            ops.append(dict(point, tol=tol, group=group))
    rng.shuffle(ops)
    return ops


def numeric_warmup() -> list[dict]:
    base = [
        {"kind": "zeta_series", "r": -0.5, "w": [1.0, 0.5], "x": 1.0},
        {"kind": "gamma_series", "r": -0.5, "x": 1.0},
        {"kind": "vanishing", "r": -1.5, "m": -1, "x": 0.5},
        {"kind": "gamma_integral", "r": -0.5, "x": 1.0},
        {"kind": "monomial_kernel", "alpha": "0", "s": 1.0, "w": 0.5},
        {"kind": "log_zeta_integral", "scheme": "Gm", "factors": scheme_factors("Gm"), "s": 2.0},
        {"kind": "classical_hurwitz", "w": 2.5, "x": 1.0},
        {"kind": "reflection", "s": 0.5},
    ]
    return [dict(p, tol=LOOSE_TOL, group="a") for p in base]


# ---------------------------------------------------------------------------
# cli_cold
#
# A batch is ten invocations: six symbolic, three numeric, one invalid.
# The invalid slot alternates between the known eval overflow and the
# other documented error paths, so every run includes the overflow.

_SMALL_SCHEMES = ([f"GL({r})" for r in range(2, 11)] + [f"SL({r})" for r in range(2, 11)]
                  + [f"Gm^{r}" for r in range(1, 13)] + ["Gm", "SpecF1"])
_FE_SCHEMES = [s for s in _SMALL_SCHEMES if s != "SpecF1"]


def _cli_symbolic(rng: random.Random, kind: str) -> dict:
    if kind in ("counting", "zeta"):
        if rng.random() < 0.5:
            name = rng.choice(_SMALL_SCHEMES)
            return {"kind": kind, "argv": [kind, "--scheme", name, "--json"],
                    "factors": scheme_factors(name)}
        factors = [(_integer_base(rng, [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]),
                    rng.randint(2, 24)),
                   (_rational_base(rng, rng.randint(2, 3)), rng.randint(1, 12))]
        return {"kind": kind, "argv": [kind, "--expr", render_expr(factors), "--json"],
                "factors": factors}
    if kind == "hurwitz":
        name = rng.choice(_SMALL_SCHEMES)
        d, _periods = scheme_closed_form(name)
        if rng.random() < 0.5:
            return {"kind": "hurwitz", "argv": ["hurwitz", "--scheme", name, "--json"],
                    "factors": scheme_factors(name)}
        w = [round(rng.uniform(-2.0, 2.0), 6), round(rng.uniform(-1.0, 1.0), 6)]
        s = [round(d + rng.uniform(0.5, 3.0), 6), round(rng.uniform(-1.0, 1.0), 6)]
        return {"kind": "hurwitz_eval", "factors": scheme_factors(name), "w": w, "s": s,
                "argv": ["hurwitz", "--scheme", name, f"--w={w[0]!r},{w[1]!r}",
                         f"--s={s[0]!r},{s[1]!r}", "--json"]}
    if kind == "sine":
        r = rng.randint(1, 8)
        argv = ["sine", f"--order=-{r}", "--json"]
        if rng.random() < 0.5:
            periods = [q(Fraction(rng.randint(1, 9), rng.randint(1, 3))) for _ in range(r)]
            argv[2:2] = ["--periods", ",".join(periods)]
        return {"kind": "sine", "argv": argv}
    if kind == "check_fe":
        name = rng.choice(_FE_SCHEMES)
        d, periods = scheme_closed_form(name)
        return {"kind": "check_fe", "argv": ["check", "fe", "--scheme", name, "--json"],
                "factors": scheme_factors(name), "center": q(2 * d - sum(periods)),
                "sign": -1 if len(periods) % 2 else 1}
    if kind == "thm4":
        r = rng.randint(1, 40)
        return {"kind": "thm4", "argv": ["check", "thm4", "--r", str(r), "--json"], "r": r}
    if kind == "catalog":
        return {"kind": "catalog", "argv": ["catalog", "--json"]}
    raise ValueError(kind)


def _cli_numeric(rng: random.Random, kind: str) -> dict:
    if kind == "gamma":
        r = _noninteger(rng, -4.0, -0.1)
        x = round(rng.uniform(0.3, 3.0), 6)
        method = rng.choice(("series", "integral"))
        return {"kind": "gamma", "r": r, "x": x, "method": method,
                "tol": 1e-9 if method == "series" else 1e-10,
                "argv": ["gamma", f"--order={r!r}", "--x", repr(x), "--method", method]}
    if kind == "thm2":
        r = -rng.randint(0, 5) - rng.choice((0.25, 0.5, 0.75))
        return {"kind": "thm2", "r": r, "tol": 1e-6,
                "argv": ["check", "thm2", f"--r={r!r}", "--json"]}
    if kind == "reflection":
        s = _noninteger(rng, -4.0, 4.0)
        return {"kind": "reflection_cli", "s": s, "tol": 1e-8,
                "argv": ["check", "reflection", f"--s={s!r}", "--json"]}
    if kind == "binomial":
        return {"kind": "binomial", "tol": 1e-3, "argv": ["check", "identity-binomial", "--json"]}
    if kind == "eval":
        factors = [(_integer_base(rng, (1, rng.randint(1, 4))), rng.randint(1, 6)),
                   (_rational_base(rng, 2), rng.randint(1, 4))]
        u = round(rng.uniform(1.5, 6.0), 6)
        return {"kind": "eval", "factors": factors, "u": u,
                "argv": ["eval", "--expr", render_expr(factors), "--u", repr(u)]}
    raise ValueError(kind)


def _cli_invalid(rng: random.Random, overflow: bool) -> dict:
    if overflow:
        k = rng.randint(2000, 3000)
        u = rng.randint(10, 99)
        return {"kind": "invalid", "expect_exit": 3, "defect": "eval_overflow",
                "argv": ["eval", "--expr", f"u^{k}", "--u", str(u)]}
    choice = rng.randrange(6)
    if choice == 0:
        return {"kind": "invalid", "expect_exit": 2,
                "argv": ["counting", "--expr", f"(u-{rng.randint(1, 9)}))"]}
    if choice == 1:
        return {"kind": "invalid", "expect_exit": 2,
                "argv": ["zeta", "--scheme", f"PGL({rng.randint(2, 9)})"]}
    if choice == 2:
        return {"kind": "invalid", "expect_exit": 3,
                "argv": ["gamma", "--order", str(rng.randint(1, 9)), "--x", "1.5"]}
    if choice == 3:
        return {"kind": "invalid", "expect_exit": 3,
                "argv": ["check", "reflection", "--s", str(rng.randint(-5, 5))]}
    if choice == 4:
        return {"kind": "invalid", "expect_exit": 3,
                "argv": ["eval", "--expr", "u^2-1", "--u", repr(round(rng.uniform(0.1, 0.9), 3))]}
    return {"kind": "invalid", "expect_exit": 3, "argv": ["zeta", "--scheme", "SL(1)"]}


_SYMBOLIC_KINDS = ("counting", "zeta", "hurwitz", "sine", "check_fe", "thm4", "catalog")
_NUMERIC_KINDS = ("gamma", "thm2", "reflection", "binomial", "eval")


def cli_batch(rng: random.Random, index: int) -> list[dict]:
    ops = [dict(_cli_symbolic(rng, k), group="a") for k in rng.sample(_SYMBOLIC_KINDS, 6)]
    ops += [dict(_cli_numeric(rng, k), group="b") for k in rng.sample(_NUMERIC_KINDS, 3)]
    ops.append(dict(_cli_invalid(rng, overflow=index % 2 == 0), group="invalid"))
    rng.shuffle(ops)
    return ops


def make_batches(workload: str, seed: int, count: int) -> list[list[dict]]:
    """The first ``count`` batches of a workload.  In-process workloads
    repeat one batch; cli_cold draws a fresh batch each time."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_cold":
        return [cli_batch(rng, i) for i in range(count)]
    if workload == "exact_scale":
        return [exact_batch(rng)]
    if workload == "numeric_grid":
        return [numeric_batch(rng)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(workload: str) -> list[dict]:
    if workload == "exact_scale":
        return exact_warmup()
    if workload == "numeric_grid":
        return numeric_warmup()
    return []
