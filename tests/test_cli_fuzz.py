"""Property test over the command-line grammar: every invocation ends with
exit 0, 2, 3 or 4, and on stderr either nothing or one line with no
traceback.

Hypothesis draws a command and its options: weight specs, matrix text
(sparse and dense, with huge and negative indexes and bytes that are not
UTF-8) and numeric options from the values that break naive code (0, -1,
nan, inf, 1e400 and 20-digit ints) next to small valid ones.  The
invocations run in one child process under an address-space cap, each
under an alarm, so an input that escapes the work budget fails the test
instead of exhausting the machine.  The child runs trials serially, so the
alarm can stop a run of trials.

Run as a script, this file is that child: it reads one JSON line
[args, stdin] per invocation and writes one JSON line [exit code, stderr].
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

ADDRESS_SPACE = 2 << 30  # bytes the child may map
ALARM_S = 5               # seconds one invocation may run
EXAMPLES = 200

SMALL = ("1", "2", "3", "5", "8")
ODD = ("0", "-1", "nan", "inf", "1e400", "99999999999999999999", "100000000000000000000")
FRACTION = ("0.05", "0.5", "0.95")
RHO = ("r=3", "r=2", "r=1", "r=24", "0.9:3,0.1:24", "0.5:2,0.5:3")
ODD_RHO = ("r=0", "r=-1", "r=30000000", "r=99999999999999999999", "0.5:3,0.5:99999999999999999999",
           "0.5:1,0.5:30000000", "nan:3", "inf:3,0.5:2", "1e400:3", "0.5:3,0.6:4", "bogus", "r=", "")
MODEL = ("exact", "binomial")
ODD_MODEL = ("other",)
SPARSE = ("0", "1", "2", "3", "7")
ODD_SPARSE = ("-1", "3000000000", "100000000000000000000", "x")

# command -> {flag: (valid values, odd values, always given)}.  --table1 and
# the verify suites read no number and take seconds each, so the fuzz
# leaves them to test_cli and gives verify a bad suite name.
COMMANDS = {
    "thresholds": {"--rho": (RHO, ODD_RHO, True), "--alpha": (FRACTION, ODD, False),
                   "--format": (("json", "text"), (), False)},
    "curves": {"--rho": (RHO, ODD_RHO, True), "--grid": (SMALL, ODD, True),
               "--lo": (FRACTION, ODD, False), "--hi": (("0.99", "1.02"), ODD, False),
               "--what": (("h,psi", "gstar,psi_of_gstar"), ("psi,gstar", "x"), False)},
    "sample": {"--rho": (RHO, ODD_RHO, True), "-n": (SMALL, ODD, True), "-m": (SMALL, ODD, True),
               "--seed": (SMALL, ODD, False), "--model": (MODEL, ODD_MODEL, False),
               "--format": (("sparse", "dense"), ("x",), False)},
    "rank": {"-n": (("8", "16"), ODD, False), "--enumerate": ((None,), (), False)},
    "core": {"--rho": (RHO, ODD_RHO, False), "-n": (SMALL, ODD, False), "-m": (SMALL, ODD, False),
             "--seed": (SMALL, ODD, False), "--model": (MODEL, ODD_MODEL, False),
             "--eps": (FRACTION, ODD, False)},
    "tn": {"--rho": (RHO, ODD_RHO, True), "-n": (SMALL, ODD, True), "--trials": (SMALL, ODD, True),
           "--seed": (SMALL, ODD, False), "--model": (MODEL, ODD_MODEL, False)},
    "exact": {"--what": (("pi", "pa", "en", "poisson", "parity", "gfq"), ("x",), True),
              "--rho": (RHO, ODD_RHO, True), "-n": (SMALL, ODD, True), "-m": (SMALL, ODD, True),
              "--model": (MODEL, ODD_MODEL, False), "--precision": (("53", "256"), ODD, False),
              "--mu": (FRACTION, ODD, False), "--q": (("2", "3", "4"), ODD, False),
              "--r": (("1", "2"), ODD, True), "--modulus": (("2", "3"), ODD, False),
              "--targets": (("0", "1", "0,1"), ("-1", "99999999999999999999", "x"), False),
              "--cell-probs": (("0.5,0.5", "1,0", "0.25,0.25,0.25,0.25"),
                               ("nan,1", "1e400,0", "-1,2", "x"), True)},
    "simulate": {"--exp": (("tn", "core", "null-growth", "classical", "profile", "dense"), ("x",),
                           True),
                 "--rho": (RHO, ODD_RHO, True), "-n": (SMALL, ODD, True),
                 "--trials": (SMALL, ODD, True), "--alpha": (FRACTION, ODD, False),
                 "--seed": (SMALL, ODD, False), "--model": (MODEL, ODD_MODEL, False),
                 "--eps": (FRACTION, ODD, False), "--window-eps": (FRACTION, ODD, False),
                 "--z": (FRACTION, ODD, False), "--r-values": (("1,2", "1"), ODD, False),
                 "--threads": (SMALL, ODD, False)},
    "verify": {},
}


@st.composite
def matrix_text(draw):
    """Sparse or dense rows, a few of them odd, or bytes that are not UTF-8."""
    kind = draw(st.sampled_from(("sparse", "dense", "bytes")))
    if kind == "bytes":
        return draw(st.sampled_from((b"\xff\xfe0 1\n", b"0 1\n\x80\n", b"\x00\n")))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if kind == "dense":
            rows.append(draw(st.text("01", min_size=1, max_size=6)))
        else:
            index = st.one_of(st.sampled_from(SPARSE), st.sampled_from(ODD_SPARSE))
            rows.append(" ".join(draw(st.lists(index, max_size=4))))
    return "\n".join(rows).encode()


@st.composite
def invocations(draw):
    """(args, stdin bytes) of one invocation: valid values for every flag
    given but up to two, which take odd ones."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    args = [command]
    if command == "verify":
        args.append(draw(st.sampled_from(("x", "", "tables"))))
    flags = [f for f, (_, _, given) in COMMANDS[command].items() if given or draw(st.booleans())]
    odd = draw(st.sets(st.sampled_from(flags), max_size=2)) if flags else set()
    for flag in flags:
        valid, odd_values, _ = COMMANDS[command][flag]
        value = draw(st.sampled_from(odd_values if flag in odd and odd_values else valid))
        args += [flag] if value is None else [flag, value]
    stdin = draw(matrix_text()) if command in ("rank", "core") else b""
    return args, stdin


@pytest.fixture(scope="module")
def child():
    """The child process that runs the invocations, capped as the module
    docstring says; the cap is set in the child alone."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, preexec_fn=cap, text=True)
    yield proc
    proc.stdin.close()
    proc.wait(timeout=30)


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(invocation=invocations())
def test_every_invocation_ends_in_a_documented_exit(child, invocation):
    args, stdin = invocation
    child.stdin.write(json.dumps([args, stdin.decode("latin-1")]) + "\n")
    child.stdin.flush()
    line = child.stdout.readline()
    assert line, f"the child died on {args}"
    code, stderr = json.loads(line)
    assert code in (0, 2, 3, 4), (args, stdin, code, stderr)
    assert "Traceback" not in stderr, (args, stderr)
    assert len(stderr.splitlines()) <= 1, (args, stderr)


class _Alarm(BaseException):
    """Raised in the child when an invocation outlives ALARM_S; a
    BaseException, so neither click nor the package catches it."""


def _serve():
    import signal

    from click.testing import CliRunner

    from gf2rank import cli

    cli._threads = lambda threads=None: 1

    def ring(signum, frame):
        raise _Alarm

    signal.signal(signal.SIGALRM, ring)
    for line in sys.stdin:
        args, stdin = json.loads(line)
        signal.alarm(ALARM_S)
        try:
            result = CliRunner().invoke(cli.main, args, input=stdin.encode("latin-1"))
            code, stderr = result.exit_code, result.stderr
            if result.exception is not None and code not in (0, 2, 3, 4):
                stderr += f"Traceback: {result.exception!r}"
        except _Alarm:
            code, stderr = "alarm", f"still running after {ALARM_S} s"
        finally:
            signal.alarm(0)
        print(json.dumps([code, stderr]), flush=True)


if __name__ == "__main__":
    _serve()
