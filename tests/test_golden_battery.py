"""Byte-identity battery: stdout and exit code of about 470 CLI invocations.

Claims covered:
- every subcommand, in text and ``--json``, prints exactly the bytes
  recorded in ``golden_battery.json``: every scheme kind up to rank 14,
  integer- and rational-exponent powers and products (dense and sparse
  exponent lattices, large and byte-boundary coefficients), gamma and
  sine products of up to 14 unit periods and 12 rational ones, and the
  numeric routes;
- error cases keep their exit code and print nothing on stdout.

The first 430 rows were written by the code before the exact layer moved
to integer arithmetic.  The later rows (failing functional equations and
every Hurwitz form in ``--json``, terminating gamma series, three more
integrals) were written by the code before the Hurwitz form became the
counting function itself.  So any change in printed output fails here.
Only stdout and the exit code are recorded: the wording of budget errors
on stderr may change.  To rewrite the file after an intended output change:

    PYTHONPATH=src python tests/test_golden_battery.py --write
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from conftest import run_cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_battery.json")

SCHEMES = (["SpecF1", "Gm"] + [f"Gm^{r}" for r in range(1, 15)]
           + [f"SL({r})" for r in range(2, 16)] + [f"GL({r})" for r in range(1, 15)])

EXPRESSIONS = [
    "0", "1", "u", "u-1", "0-u", "u^0", "5/3", "u^-3", "(u-1)^2", "u^3 - u",
    "(u+1)^48", "(u-1)^64", "(2*u-3)^40", "(2*u^2-3*u+2)^24*(2*u+3)^24",
    "(u^3-3)^32*(2*u^2+3*u-2)^16", "(u^2+u+1)^9", "(u-u)^3", "0*(u+1)^5",
    "(255*u+1)^5", "(256*u-1)^4", "(257*u+255)^6", "(65535*u-65537)^3",
    "(12345678901234567890*u-1)^5", "(u^(1/2)+3)^40", "(u^(1/3)-3)^36",
    "(u^(1/5)+3)^45", "(u^(1/2)-3)^30*(u^(1/3)+2)^24",
    "(u^(1/4)+3)^24*(u^(1/2)-2)^24", "(2*u^(3/4)-u^(1/6)+5/2)^7",
    "(u^(1/2)+u^(1/3))^12", "(3/2*u^(2/3))^7", "(u^(-1/2)-1)^9",
    "(u^(1/7)-u^(1/11))^5", "(1/2*u-1/3)^10", "(u^(2/3)-7/5)^6*(u^(-3/4)+1/2)^5",
    "u^1000000000*(u+1)", "(u^100+1)*(u+1)", "(u^1000+u+1)^3",
    "(u^1000-1)*(u^3-u+1)^4", "(u^50+u^(1/2)+1)^4", "(u-1)^2*(u+1)^2-(u^2-1)^2",
    "(u^(1/2)+1)*(u^(1/2)-1)", "(u-1)^12*(u^2-2)^3*(u^(1/3)+1)^4",
    "((u+1)^4)^3", "((u^(1/2)-1)^3)^5", "-(u-1)^5 + (u+1)^5",
    "(7*u^2-11*u+13)^15", "(u^5-u^4+u^3-u^2+u-1)^10",
]

SINE_PERIODS = [
    "1", "2", "1,1", "1,2", "1/2,3/2", "1,1,2", "2/3,5/7,11/13", "1,2,3,4,5",
    "1/2,1/3,1/5,1/7", "3,3,3,3,3,3", "1,2,4,8,16,32,64,128",
    "1/2,1/3,1/5,1/7,1/11,1/13,1/17,1/19,1/23",
    "100/7,201/7,302/7,403/7,504/7,605/7,706/7,807/7,908/7,999/7",
    "1,2,3,4,5,6,7,8,9,10,11", "1/2,2/3,3/4,4/5,5/6,6/7,7/8,8/9,9/10,10/11,11/12,12/13",
    "5,5,5,5,5,5,5,5,5,5,5,5",
]

#: ``check fe --expr`` rows whose equation fails, with and without mismatches;
#: the first three are also rows of the main list.
FAILING_FE = [
    ["check", "fe", "--expr", "(u-1)^6", "--center", "7", "--sign", "+1"],
    ["check", "fe", "--expr", "u^(1/2)", "--center", "1", "--sign", "1"],
    ["check", "fe", "--expr", "u^3-u", "--center", "3", "--sign", "-1"],
    ["check", "fe", "--expr", "(u^(1/3)-1)^7", "--center", "7/3", "--sign", "1"],
    ["check", "fe", "--expr", "(u-1)^4*(u^(1/2)+2)", "--center", "4", "--sign", "1"],
    ["check", "fe", "--expr", "(u^2-2)^3", "--center", "1/2", "--sign", "-1"],
    ["check", "fe", "--expr", "(u-1)^5*(u^(1/4)+1)^3", "--center", "23/4", "--sign", "1"],
]

#: Evaluation points of the terminating gamma series of orders -1 to -12.
SERIES_POINTS = ["0.3", "0.5", "0.75", "1", "1.3", "1.5", "2", "2.5", "3", "0.7", "1.1", "2.2"]


def _battery() -> list[list[str]]:
    runs: list[list[str]] = [["catalog"]]
    for name in SCHEMES:
        runs.append(["zeta", "--scheme", name])
    for name in SCHEMES[::2]:
        runs.append(["counting", "--scheme", name])
    for name in SCHEMES[::3]:
        runs.append(["hurwitz", "--scheme", name])
    for name in SCHEMES[1::2]:
        runs.append(["check", "fe", "--scheme", name])
    for text in EXPRESSIONS:
        for command in ("counting", "zeta"):
            runs.append([command, "--expr", text])
    for text in EXPRESSIONS[::3]:
        runs.append(["hurwitz", "--expr", text])
    for r in range(1, 15):
        runs.append(["gamma", f"--order=-{r}"])
        runs.append(["sine", f"--order=-{r}"])
        runs.append(["check", "thm4", "--r", str(r)])
    for periods in SINE_PERIODS:
        order = f"--order=-{len(periods.split(','))}"
        runs.append(["sine", order, "--periods", periods])
        runs.append(["gamma", order, "--periods", periods])
    runs += [
        ["check", "fe", "--expr", "(u-1)^5", "--center", "5", "--sign", "-1"],
        ["check", "fe", "--expr", "(u-1)^6", "--center", "7", "--sign", "+1"],
        ["check", "fe", "--expr", "(u^(1/2)-1)^40", "--center", "20", "--sign", "1"],
        ["check", "fe", "--expr", "(u^(1/3)-1)^30", "--center", "10", "--sign", "1"],
        ["check", "fe", "--expr", "u^(1/2)", "--center", "1", "--sign", "1"],
        ["check", "fe", "--expr", "u^3-u", "--center", "3", "--sign", "-1"],
        ["hurwitz", "--expr", "u^3 - u", "--w", "2", "--s", "5"],
        ["hurwitz", "--expr", "(u-1)^4", "--w", "1.5,0.5", "--s", "7,1"],
        ["hurwitz", "--expr", "u^(1/2)+2", "--w=-3", "--s", "2.5"],
        ["gamma", "--order=-3", "--x", "2.5"],
        ["gamma", "--order=-2", "--periods", "1,1/2", "--x", "0.75"],
        ["gamma", "--order=-1", "--x", "1", "--method", "integral"],
        ["gamma", "--order=-1/2", "--x", "1"],
        ["gamma", "--order=-3/2", "--x", "0.7"],
        ["gamma", "--order=-5/2", "--x", "1.3", "--method", "integral"],
        ["check", "thm2", "--r=-3/2"],
        ["check", "thm2", "--r=-2.5", "--x", "1.5"],
        ["check", "identity-binomial"],
        ["check", "reflection", "--s", "0.3"],
        ["eval", "--expr", "u^3 - u", "--u", "4"],
        ["eval", "--expr", "(u^(1/2)+3)^10", "--u", "2.5"],
        ["eval", "--expr", "(u-1)^20", "--u", "1.5"],
        # errors: stdout stays empty and the exit code is kept
        ["zeta", "--scheme", "GL(38)"],
        ["zeta", "--scheme", "Gm^3000"],
        ["counting", "--expr", "((u+1)^512)^8"],
        ["counting", "--expr", "(" + "9" * 100 + ")^512"],
        ["sine", "--order=-100000"],
        ["zeta", "--expr", "u +"],
        ["sine", "--order=2"],
        ["gamma", "--order=-2", "--periods", "1"],
        ["check", "thm4", "--r", "0"],
        ["eval", "--expr", "u", "--u", "0.5"],
    ]
    battery = runs + [argv + ["--json"] for argv in runs[::3]]
    # later rows are appended, so the indices of the rows above stay put
    later = FAILING_FE[3:] + [
        ["gamma", f"--order=-{k}", "--x", x, "--method", "series"]
        for k, x in enumerate(SERIES_POINTS, start=1)]
    later += [["gamma", f"--order={order}", "--x", x, "--method", "integral"]
              for order, x in (("-3/4", "0.6"), ("-4", "2"), ("-7/2", "0.9"))]
    later += [argv + ["--json"] for argv in runs + later
              if (argv[0] == "hurwitz" or argv in FAILING_FE) and argv + ["--json"] not in battery]
    return battery + later


def _record() -> list[dict]:
    records = []
    for argv in _battery():
        code, out, _err = run_cli(*argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    return records


def _load() -> list[dict]:
    with open(GOLDEN) as f:
        return json.load(f)


RECORDS = _load() if os.path.exists(GOLDEN) else []


def test_battery_matches_recorded_invocations():
    assert [r["argv"] for r in RECORDS] == _battery()
    assert len(RECORDS) >= 400


@pytest.mark.parametrize("record", RECORDS,
                         ids=[f"{i}:{' '.join(r['argv'])[:60]}" for i, r in enumerate(RECORDS)])
def test_golden_battery(record):
    code, out, _err = run_cli(*record["argv"])
    assert (code, out) == (record["exit"], record["stdout"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_battery.py --write")
    with open(GOLDEN, "w") as f:
        json.dump(_record(), f, indent=0, ensure_ascii=True)
        f.write("\n")
