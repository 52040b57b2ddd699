"""Property tests of the command line: argv drawn from ``cli._COMMANDS``.

Every drawn argv runs through ``cli.main`` in this process, twice, with
stdout and stderr captured. ``main`` must return an int and never raise,
and the second run must give the first one's code and bytes. The code is 0
or 2: every check the commands run holds on a valid input, and the report
goes to stdout, so nothing can exit 1. Exit 0 must leave stderr empty, and
exit 2 must leave stdout empty and end stderr with an ``error:`` line.

Values stay small: n, the exponents and the form parameters in -3..60,
``--cap`` in 0..64, ``--trials`` in -1..5, and a few tokens that are not
integers. Most draws are meant to pass: exponents and form parameters lean
to small values, a required option is mostly given and ``--dzeta`` mostly
has phi(n) entries, so the commands' own work is searched as well as their
refusals. The batch commands ``sweep`` and ``tables`` always take a
``--cap`` of at most 24, since ``tables 59`` at the default cap runs for
about 11 s.

A second test holds ``cli._parse``, which parses a well-formed argv without
argparse, to argparse itself: wherever ``_parse`` accepts an argv, it gives
what ``build_parser().parse_args`` gives. Its argv are only parsed, never
run, so their values may be large (``10^k +- c``, 5,000 digits), and they
hold what ``_parse`` must leave to argparse: abbreviated, unknown and
repeated flags, ``=`` forms, values that start with '-', ``--``, ``-h``,
and missing or extra positionals, among positionals and flags in any order.

A third test draws ``sweep --form`` argv with large values: ``10^k +- c``,
primes and semiprimes near ``10^9``, ``10^18``, ``2^63`` and the
Miller-Rabin limit, a 5,000-digit ``--p``, exponents up to ``10^6`` and a
``--cap`` from 0 to ``10^30``. Each runs through ``main`` twice, each time
under a ``signal.setitimer`` budget of 2 s, so a refusal that hangs fails
the test; it keeps the stream rules above and gives the same bytes twice. A
form the cap admits runs its sweep, so no draw may admit one above degree
24: its sweep would run for minutes, or allocate a series of that many
coefficients.

A fourth test draws the bare-n commands (``phi-poly``, ``matrix``,
``classify``, ``verify-theorem``, ``tables``) with n from the same large
values plus a 5,000-digit n and ``--cap`` from the same range, under the
same budget and rules. Their rings are sized by ``check_degree``, so the
draws that matter are those whose cap reaches n's factoring; a draw whose
exact phi(n), judged by sympy and never by ``check_degree``, the cap admits
above degree 24 is left out, and the test needs sympy.

Runs only where ``hypothesis`` is installed; examples are derandomized.
"""

import functools
import io
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cycloderiv import cli  # noqa: E402
from cycloderiv.arith import totient  # noqa: E402

try:
    import sympy
except ImportError:  # the bare-n test judges phi(n) with it
    sympy = None

# int() refuses the first five; it takes Arabic-Indic digits, which are 12 here
NOT_INTEGERS = ("1.5", "x", "", "0x1f", "--", "١٢")
BATCH = ("sweep", "tables")
BATCH_CAP = 24
FORM_PARAMETERS = {"2rp": ("--r", "--p"), "pk": ("--p", "--k")}


def _mostly(valid, invalid):
    """``valid`` in about nine draws of ten, ``invalid`` in the rest."""
    return st.sampled_from([valid] * 9 + [invalid]).flatmap(lambda chosen: chosen)


def _integer(low, high, likely=None):
    """A decimal in low..high, mostly drawn from ``likely`` when given, or a non-integer."""
    value = st.integers(low, high)
    if likely is not None:
        value = _mostly(st.sampled_from(likely), value)
    return _mostly(value.map(str), st.sampled_from(NOT_INTEGERS))


def _value(draw, name, flag, kwargs, n):
    if flag == "--output":
        return "-"  # stdout; a drawn path would write a file
    if "choices" in kwargs:
        return draw(_mostly(st.sampled_from(kwargs["choices"]), st.just("x")))
    if flag == "--dzeta":
        count = draw(_mostly(st.just(totient(n) if n > 0 else 0), st.integers(0, 20)))
        coordinates = st.lists(st.integers(-5, 5).map(str), min_size=count, max_size=count)
        return draw(_mostly(coordinates.map(",".join), st.sampled_from(NOT_INTEGERS)))
    if flag == "--cap":
        return draw(_integer(0, BATCH_CAP if name in BATCH else 64))
    if flag == "--trials":
        return draw(_integer(-1, 5))
    if flag == "--p":
        return draw(_integer(-3, 60, likely=(2, 3, 5, 7, 11, 13)))
    return draw(_integer(-3, 60, likely=range(1, 5)))  # --r, --k, --seed


def _given(draw, name, flag, kwargs, form):
    """Whether the option is in argv: a required one or a parameter of the drawn
    form mostly, a parameter of the other form rarely, any other one half the time."""
    if kwargs.get("required") or flag in FORM_PARAMETERS.get(form, ()):
        return draw(_mostly(st.just(True), st.just(False)))
    if flag in ("--r", "--p", "--k"):
        return draw(_mostly(st.just(False), st.just(True)))
    return (flag == "--cap" and name in BATCH) or draw(st.booleans())


@st.composite
def argvs(draw):
    """One argv: a subcommand, its positionals and a subset of its options."""
    if draw(st.integers(0, 19)) == 0:
        return [draw(st.sampled_from(["--version", "--help"]))]
    name, _, positionals, options, _ = draw(st.sampled_from(cli._COMMANDS))
    argv = [name]
    for dest in positionals.split():
        argv.append(draw(_integer(-3, 60, likely=range(1, 31 if dest == "n" else 13))))
    n = int(argv[1]) if positionals and argv[1] not in NOT_INTEGERS else 0
    for flag, kwargs in {**options, **cli._OUTPUT}.items():
        if _given(draw, name, flag, kwargs, dict(zip(argv, argv[1:])).get("--form")):
            argv += [flag, _value(draw, name, flag, kwargs, n)]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argvs())
def test_main_returns_a_code_and_keeps_each_stream_to_its_outcome(argv):
    code, out, err = _run(argv)
    assert type(code) is int and code in (0, 2), (argv, code)
    if code == 0:
        assert err == "", argv
    if code == 2:
        assert out == "", argv
        assert "error: " in err.splitlines()[-1], argv
    assert _run(argv) == (code, out, err), argv


# integer values, parsed only: 10^k + c for |c| <= 3, a 5,000-digit numeral
# (more digits than int() converts), and tokens int() takes or refuses
LARGE = st.one_of(
    st.tuples(st.integers(1, 30), st.integers(-3, 3)).map(lambda kc: str(10 ** kc[0] + kc[1])),
    st.just("7" * 5000),
    st.sampled_from(["0", "1", "2", "13", "49", "+5", " 7", "1_000", "١٢", "-3"]),
    st.sampled_from(["1" + "0" * 4300, "1.5", "x", "", "0x1f", "-", "--1"]),
)
# tokens beside the drawn flags: none is a flag of any command, except that
# "--form" is sweep's own and a prefix of --format in every other command
NOT_FLAGS = ("--", "-h", "--help", "--version", "--bogus", "-x", "--form", "-")


def _spellings(flag, abbreviate):
    """The exact flag, or when ``abbreviate`` it or a prefix of it, which argparse
    may expand or refuse as ambiguous (sweep's ``--fo`` may be ``--form`` or ``--format``)."""
    return st.sampled_from([flag] + [flag[:k] for k in range(3, len(flag)) if abbreviate])


def _flag_value(flag, kwargs):
    if "choices" in kwargs:
        return _mostly(st.sampled_from(kwargs["choices"]), st.sampled_from(["x", "JSON", ""]))
    if flag == "--dzeta":
        coordinates = st.lists(st.integers(-5, 5).map(str), min_size=1, max_size=6).map(",".join)
        return _mostly(coordinates, st.sampled_from(["", "x,1", "-x"]))
    if flag == "--output":
        return st.sampled_from(["-", "report.json", "", "-x", "--format"])
    return _mostly(st.integers(-3, 60).map(str), LARGE)


@st.composite
def command_lines(draw):
    """A command, its positionals and flags in a drawn order, some malformed."""
    name, _, positionals, options, _ = draw(st.sampled_from(cli._COMMANDS))
    options = {**options, **cli._OUTPUT}
    count = len(positionals.split())
    abbreviate = draw(st.integers(0, 3)) == 0
    pieces = [[draw(_mostly(st.integers(0, 60).map(str), LARGE))]
              for _ in range(draw(_mostly(st.just(count), st.integers(0, count + 1))))]
    for flag, kwargs in options.items():
        least = 1 if kwargs.get("required") else 0
        for _ in range(draw(_mostly(st.integers(least, 1), st.integers(0, 2)))):
            spelled, value = draw(_spellings(flag, abbreviate)), draw(_flag_value(flag, kwargs))
            form = draw(_mostly(st.sampled_from(["next", "equals"]), st.just("bare")))
            pieces.append({"next": [spelled, value], "equals": [f"{spelled}={value}"],
                           "bare": [spelled]}[form])
    if draw(st.integers(0, 9)) == 0:
        pieces.append([draw(st.sampled_from(NOT_FLAGS))])
    head = draw(_mostly(st.just(name), st.sampled_from(["--version", "-h", name[:3], "bogus"])))
    return [head] + [token for piece in draw(st.permutations(pieces)) for token in piece]


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(command_lines())
def test_parse_gives_what_argparse_gives_or_leaves_the_argv_to_it(argv):
    parsed = cli._parse(argv)
    if parsed is not None:
        assert vars(parsed) == vars(cli.build_parser().parse_args(argv)), argv


# primes and semiprimes (two primes near the square root) near 10^9, 10^18,
# 2^63 and the Miller-Rabin limit, where primality goes from exact to
# unproven; the last semiprime is of two 34-bit primes, which rho splits
PRIMES = (
    999999937, 1000000007, 999999999999999989, 1000000000000000003,
    9223372036854775783, 9223372036854775837,
    3317044064679887385961813, 3317044064679887385962123,
)
SEMIPRIMES = (
    31627 * 31643, 1000000007 * 1000000009, 3037000493 * 3037000507,
    1821275395031 * 1821275395081, 3317044064679887385961981, 8589934609 * 8590983187,
)
LARGE_P = st.one_of(
    st.tuples(st.integers(1, 30), st.integers(-3, 3)).map(lambda kc: 10 ** kc[0] + kc[1]),
    st.sampled_from(PRIMES + SEMIPRIMES),
    st.tuples(st.sampled_from(PRIMES + SEMIPRIMES), st.integers(-2, 2)).map(sum),
    st.sampled_from([-3, 0, 1, 2, 3, 5, 7, 11, 13]),
)
EXPONENT = st.one_of(
    st.integers(1, 4), st.integers(-1, 70), st.integers(0, 10**6),
    st.sampled_from([62, 63, 64, 65, 10**6]),
)
CAP = st.one_of(
    st.integers(0, 30).map(lambda k: 10**k), st.integers(0, 10**30), st.integers(0, 64),
    st.sampled_from([0, 24, sys.maxsize - 1, sys.maxsize, sys.maxsize + 1, 10**30]),
)
BUDGET_S = 2


def _may_admit_a_large_ring(form, p, e, cap):
    """Whether the cap may admit the form at a degree above ``BATCH_CAP``: from the
    closed form, which over-counts a composite p, unless p is a known semiprime."""
    if p < 2 or e < (1 if form == "2rp" else 2) or p in SEMIPRIMES or e > 300 or p.bit_length() > 300:
        return False  # refused: a bad p or exponent, or phi(n) >= 2^299
    closed = 2 ** (e - 1) * (p - 1) if form == "2rp" else p ** (e - 1) * (p - 1)
    return BATCH_CAP < closed <= min(cap, sys.maxsize)


@st.composite
def large_sweeps(draw):
    """A sweep argv with large values; a 5,000-digit ``--p`` in about one draw of ten."""
    form, p, e, cap = draw(st.sampled_from(["2rp", "pk"])), draw(LARGE_P), draw(EXPONENT), draw(CAP)
    assume(not _may_admit_a_large_ring(form, p, e, cap))
    p = draw(_mostly(st.just(str(p)), st.just("7" * 5000)))
    exponent = ["--r", str(e)] if form == "2rp" else ["--k", str(e)]
    return ["sweep", "--form", form, "--p", p, *exponent, "--cap", str(cap)]


class _OverBudget(BaseException):
    """Raised by the timer; no handler of ``main`` catches it."""


def _on_alarm(signum, frame):
    raise _OverBudget


def _run_within_budget(argv):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        return _run(argv)
    except _OverBudget:
        pytest.fail(f"over the {BUDGET_S} s budget: {argv}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _check_twice_within_budget(argv):
    """Two runs of argv, each under the budget: exit 0 with an empty stderr, or 2 with an
    empty stdout and a last ``error:`` line, never a traceback; the same bytes both times."""
    code, out, err = _run_within_budget(argv)
    assert type(code) is int and code in (0, 2), (argv, code)
    if code == 0:
        assert err == "", argv
    else:
        assert out == "", argv
        assert "error: " in err.splitlines()[-1], argv
        assert "Traceback" not in err, argv
    assert _run_within_budget(argv) == (code, out, err), argv


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(large_sweeps())
def test_a_sweep_with_large_values_ends_within_its_budget_and_keeps_each_stream_to_its_outcome(argv):
    _check_twice_within_budget(argv)


# the commands whose first positional is n: phi-poly, matrix, classify, verify-theorem, tables
BARE_N = [(name, positionals.split()) for name, _, positionals, _, _ in cli._COMMANDS if positionals]


@functools.cache
def _phi(n):
    """phi(n) for ``n >= 1``, from sympy's factorization, not from ``arith``."""
    return int(sympy.totient(n))


def _bare_n_may_admit_a_large_ring(n, cap):
    """Whether the cap admits ``Phi_n`` at a degree above ``BATCH_CAP``. Since
    ``phi(n) >= n // n.bit_length()``, sympy factors n only when that bound fits the cap."""
    if n < 1 or n // n.bit_length() > min(cap, sys.maxsize):
        return False
    return BATCH_CAP < _phi(n) <= cap


@st.composite
def large_bare_n(draw):
    """A bare-n command with a large n, a 5,000-digit one in about one draw of ten,
    small exponents, a ``--dzeta`` of phi(n) ones where the ring is small, and a large cap."""
    (name, positionals), n, cap = draw(st.sampled_from(BARE_N)), draw(LARGE_P), draw(CAP)
    assume(not _bare_n_may_admit_a_large_ring(n, cap))
    argv = [name, draw(_mostly(st.just(str(n)), st.just("7" * 5000)))]
    argv += [str(draw(st.integers(1, 5))) for _ in positionals[1:]]  # u and v
    if name == "classify":
        small = 1 <= n and n // n.bit_length() <= BATCH_CAP and _phi(n) <= BATCH_CAP
        argv.append("--dzeta=" + ",".join(["1"] * (_phi(n) if small else 1)))
    return [*argv, "--cap", str(cap)]


@pytest.mark.skipif(not hasattr(signal, "setitimer") or sympy is None,
                    reason="needs signal.setitimer and sympy")
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(large_bare_n())
def test_a_bare_n_command_with_large_values_ends_within_its_budget_and_keeps_each_stream_to_its_outcome(argv):
    _check_twice_within_budget(argv)
