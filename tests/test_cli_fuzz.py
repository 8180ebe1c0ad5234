"""Fuzz gate over the command line: subcommand x flag x value.

Claims covered: every argv drawn from the subcommands, their flags and
literal families (huge, tiny, negative, fractional, 1e400, nan, inf, the
Unicode minus, the empty string, and integer orders far beyond what floats
resolve) ends in a documented exit code 0-4, with no traceback on stderr,
within 10 s.  The examples run in-process through ``cli.run``, where any
exception that escapes it fails the test; a small sample also runs as real
processes.  The argv the gate has found are pinned as examples, and each
ends in its own exit code.  A failing draw prints its ``@reproduce_failure``
line, since the draws are not seeded.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import abszeta
from conftest import run_cli

#: Literal families every flag draws from.
LITERALS = (
    "1e300", "9" * 60, "1e-300", "5e-324", "-3", "-0.5", "-1/2", "1/2", "2.5",
    "-7/3", "1e400", "-1e400", "nan", "inf", "-inf", "−1", "−1/2", "",
    "-60", "-100", "-200", "1234.5", "-1234.5", "1.7e308", "-1.7e308",
)
#: Values a flag also draws, so that well-formed calls reach the deeper layers.
VALID = {
    "--expr": ("(u-1)^3", "u^2-1", "(u-1)^40", "u^(1/2)-1"),
    "--scheme": ("Gm", "Gm^3", "SL(3)", "GL(2)", "SpecF1"),
    "--w": ("2", "1.5,2", "-3"), "--s": ("3", "0.5,1", "5"),
    "--order": ("-1", "-3", "-20", "-3/2"), "--x": ("1", "0.5", "3", "1e5"),
    "--method": ("product", "series", "integral"), "--periods": ("1,2", "1/2,1", "3"),
    "--center": ("2", "-1/2"), "--sign": ("1", "-1", "+1"),
    "--r": ("-1/2", "-5/2", "-25/2", "3"), "--u": ("2", "1.5"),
    "--tol": ("1e-6", "1e-12"), "--max-terms": ("1000", "200"),
}
#: Each subcommand's argv prefix, its required flags and its other flags;
#: --tol, --max-terms and --json are common to all of them.
COMMANDS = (
    (("counting",), (), ("--expr", "--scheme")),
    (("zeta",), (), ("--expr", "--scheme")),
    (("hurwitz",), (), ("--expr", "--scheme", "--w", "--s")),
    (("gamma",), ("--order",), ("--x", "--method", "--periods")),
    (("sine",), ("--order",), ("--periods",)),
    (("check", "fe"), (), ("--expr", "--scheme", "--center", "--sign")),
    (("check", "thm2"), ("--r",), ("--x",)),
    (("check", "identity-binomial"), (), ()),
    (("check", "reflection"), ("--s",), ()),
    (("check", "thm4"), ("--r",), ()),
    (("eval",), ("--expr", "--u"), ()),
    (("catalog",), (), ()),
)
COMMON = ("--tol", "--max-terms")


def _value(flag: str):
    """A literal or, as often, a well-formed value of the flag."""
    return st.one_of(st.sampled_from(LITERALS), st.sampled_from(VALID[flag]))


@st.composite
def argvs(draw) -> list[str]:
    prefix, required, optional = draw(st.sampled_from(COMMANDS))
    argv = list(prefix)
    for flag in required + optional + COMMON:
        if flag in required or draw(st.booleans()):
            argv.append(f"{flag}={draw(_value(flag))}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _check(code: int, err: str, seconds: float) -> None:
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    assert seconds < 10.0


#: Argv the gate or a probe found, each of which once ended in a traceback or a
#: wrong value.
FOUND = (
    ["gamma", "--order=-1", "--x=1e-300", "--method=integral", "--tol=1e-300"],  # ZeroDivisionError
    ["gamma", "--order=-1", "--x=5e-324", "--method=integral"],                  # ZeroDivisionError
    ["gamma", "--order=-1", "--x=1e300", "--method=integral", "--tol=1e300"],    # ValueError
    ["gamma", "--order=-3/2", "--x=5e-324"],                                      # OverflowError
    ["check", "reflection", "--s=1234.5"],                                        # RecursionError
    ["check", "reflection", "--s=65537.5"],                                       # RecursionError
    ["hurwitz", "--expr=u-1", "--w=1.7e308", "--s=0"],                             # ValueError
    ["hurwitz", "--expr=u^2", "--w=1e17", "--s=1"],                              # phase noise
    ["eval", "--expr=(u^(1/2)-1)^40", "--u=1.5"],                                # cancellation
    ["eval", "--expr=(u-4)^6*(u^(1/2)-3)^3", "--u=2.340685"],                    # cancellation
    ["eval", "--expr=(u-4)^4*(u^(1/2)+3)^4", "--u=4.703625"],                    # cancellation
    ["hurwitz", "--scheme=Gm^40", "--w=1", "--s=41.5"],                          # cancellation
)


#: u^1 + ... + u^17772, 131 069 characters: the longest such sum that one argument of
#: a Linux process holds (131 072 bytes, its terminating NUL included).
LONG_SUM = ["counting", "--expr", "+".join(f"u^{k}" for k in range(1, 17773))]


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          print_blob=True)
@given(argvs())
@example(["gamma", "--order=-100", "--x=1", "--method=series"])  # OverflowError before
@example(["check", "reflection", "--s=5e-324", "--json"])         # OverflowError before
@example(FOUND[0])
@example(FOUND[1])
@example(FOUND[2])
@example(FOUND[3])
@example(FOUND[4])
@example(FOUND[5])
@example(FOUND[6])
@example(FOUND[7])
@example(FOUND[8])
@example(FOUND[9])
@example(FOUND[10])
@example(FOUND[11])
@example(LONG_SUM)  # over 39 s when each term was merged into the sum in turn
def test_cli_fuzz_in_process(argv):
    start = time.perf_counter()
    code, _, err = run_cli(*argv)
    _check(code, err, time.perf_counter() - start)


@pytest.mark.parametrize("argv,code,out", [
    (FOUND[0], 4, ""),        # the node table ends before the budget is met
    (FOUND[1], 4, ""),
    (FOUND[2], 0, "1.0\n"),   # (x + 1)/x rounds to 1, well within the tolerance
    (FOUND[3], 3, ""),        # e^744 is beyond the float range
    (FOUND[4], 0, "reflection product at s=1234.5 against -1/(2 sin(pi s)): PASS "
                  "(value=-0.5000000000035518, expected=-0.5, tol=1e-08)\n"),
    (FOUND[5], 3, ""),        # |s| above 2^14
    (FOUND[6], 3, ""),        # the term at a = 0 is a pole
    (FOUND[7], 0, "1.0\n"),   # (-1)^(-1e17) = 1, its sign taken from the parity of w
    # sums that cancel far below float rounding, each against its exact value
    (FOUND[8], 0, "1.1684001447545793e-26\n"),   # (1.5^(1/2) - 1)^40; floats gave -1.9e-3
    (FOUND[9], 0, "-66.31126501858606\n"),
    (FOUND[10], 0, "174.95189698512172\n"),
    (FOUND[11], 0, "0.003345252865163681\n"),    # sum of C(40,k)(-1)^k/(41.5-k); floats 3.3461e-3
])
def test_found_argv_end_in_their_exit_code(argv, code, out):
    got, printed, err = run_cli(*argv)
    assert (got, printed) == (code, out)
    assert err.count("abszeta: error:") == (1 if code else 0)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gamma", "--order=-100", "--x=1", "--method=series"],
    ["gamma", "--order=−1", "--x=nan"],
    ["check", "thm2", "--r=-1e400", "--json"],
    ["hurwitz", "--expr=(u-1)^3", "--w=inf", "--s=1e300"],
    ["sine", "--order=-200", "--periods="],
])
def test_cli_fuzz_subprocess_sample(argv):
    src = os.path.dirname(os.path.dirname(abszeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "abszeta.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=30)
    _check(proc.returncode, proc.stderr, time.perf_counter() - start)
