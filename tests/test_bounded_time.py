"""Every request ends in bounded time with a definite exit code.

Each request below is one in-process ``cli.main`` call under a wall-clock
alarm (``signal.setitimer``), all in this one process, with no thread or
subprocess per request.  It must end within ``LIMIT_S`` with exit 0, 1, 2
or 3 (argparse's usage errors exit 2 as well) and no traceback.  The limit
is generous, many times the slowest cold time of any family here (about
0.2 s, the size floor of y_n at n = 10^20), because a shared 2-vCPU host
stalls.

The families in the grid are those already bounded:

- refusals held per term budget: a repeated refused walk step or surface
  variable exits 3 again at once;
- the Laurent size floor: a y_n whose denominator vector gives more terms
  than the budget is refused before its walk, at huge |n| too, and at the
  affine pairs under a budget of 10^8 as fast as under the default;
- the binomial-row refusal of sigma2 and sigma3 and the rank refusal of
  the geometry commands, at pairs in the hundreds of thousands;
- ``aut-order`` of words of infinite order and of finite-order words with
  far indices, answered in the group and proven on the fold, at finite,
  affine and wild pairs, under the budgets 1, 2 and 40 too.

Families still open, with the requests that show them (each ran past 20 s
or exited 3 after seconds in a fresh process, and is left out of the grid
until the change that bounds it):

- ``sp(p)`` with a huge p in ``aut-compose``:
  ``aut-compose --a 2 --b 2 'sp(99999999999999999999)'``, killed at 20 s;
- literal words at a != b, composed one letter or power at a time:
  ``aut-order --a 1 --b 2 --paper-literal r``, killed at 20 s, and
  ``aut-compose --a 1 --b 4 --paper-literal 'sp(-2)' s3``, exit 3 after
  63 s;
- ``--map-json`` maps with huge exponents: ``aut-factor --a 2 --b 1
  --map-json`` on y1 -> y1^(10^6), killed at 20 s;
- ``aut-factor`` words whose factorization needs more than ``--max-word``
  letters, which go down the degree descent on the composed map:
  ``aut-factor --a 2 --b 2 'r^-41' s3``, killed at 20 s, and ``'r^-12'
  s3``, exit 1 after 19 s ("descent exceeded 16 steps");
- y_n inside the budget whose walk takes minutes or whose power is refused
  on the work of one product: ``cluster --a 2 --b 2 --n 80``, killed at
  20 s, and ``cluster --a 60 --b 60 --n -2``, exit 3 after 5.6 s.
"""
import contextlib
import io
import signal

import pytest

from clusteraut import cli

#: seconds each request may take
LIMIT_S = 5.0

HUGE = "99999999999999999999"


class Timeout(BaseException):
    """Raised by the alarm.  Not an ``Exception``, so that no handler in the
    engine or the command line can take it for an error of the request."""


@contextlib.contextmanager
def alarm(seconds: float):
    """Raise ``Timeout`` in this thread once ``seconds`` of wall time pass."""

    def ring(signum, frame):
        raise Timeout

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_within(seconds: float, argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, argparse's usage
    errors read as their exit code, or None when the alarm rang first."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with alarm(seconds), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Timeout:
        return None
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def _pairs_argv(command, pairs, words, *flags):
    return [
        [command, "--a", str(a), "--b", str(b), *flags, *word.split()]
        for a, b in pairs for word in words
    ]


#: finite, affine and wild pairs, among them those at which a finite-order
#: word with far indices used to run past 20 s or exit 3
_PAIRS = [(1, 1), (3, 1), (2, 2), (5, 1), (1, 4), (4, 3), (3, 4), (6, 6), (7, 2)]

FAMILIES = {
    "held refusals": [
        ["cluster", "--a", "3", "--b", "2", "--n", "8", "--max-terms", "50"],
        ["cluster", "--a", "3", "--b", "2", "--n", "8", "--max-terms", "50"],
        ["aut-compose", "--a", "3", "--b", "3", "--max-terms", "400", "r^3"],
        ["aut-compose", "--a", "3", "--b", "3", "--max-terms", "400", "r^3"],
    ],
    "size floor": [
        ["cluster", "--a", str(a), "--b", str(b), "--n", n]
        for a, b in ((3, 3), (5, 1), (7, 3))
        for n in ("40", "-30", HUGE, "-" + HUGE)
    ] + [["cluster", "--a", "2", "--b", "2", "--n", n] for n in (HUGE, "-" + HUGE)]
    + [
        ["cluster", "--a", str(a), "--b", str(b), "--n", n, "--max-terms", "100000000"]
        for a, b in ((2, 2), (4, 1), (1, 4))
        for n in (HUGE, "-" + HUGE)
    ],
    "binomial rows and ranks": [
        ["group-structure", "--a", "300000", "--b", "1"],
        ["group-structure", "--a", "1", "--b", "300000"],
        ["group-mul", "--a", "100000", "--b", "1", "s2", "s3"],
        ["aut-order", "--a", "100000", "--b", "1", "s2"],
        ["geom-boundary", "--a", "1000000", "--b", "1", "--model", "barx"],
        ["classify", "--a", "1000000", "--b", "3", "--c", "3", "--d", "1000000"],
    ],
    "infinite orders": _pairs_argv(
        "aut-order", [(2, 2), (3, 3), (5, 1), (4, 3), (7, 2)],
        ["r", f"r^{HUGE}", f"r^-{HUGE} m(1,1)", "s2 s3 m(1,0)", "sp(4) s2"],
    ),
    "far finite orders": _pairs_argv(
        "aut-order", _PAIRS,
        ["r^-41 s3", "r^-2 s3", f"r^{HUGE} s3", f"sp({HUGE})", f"r^-{HUGE} s2 m(1,1)"],
    ),
    "far finite orders under small budgets": [
        argv + ["--max-terms", cap]
        for argv in _pairs_argv("aut-order", [(2, 2), (4, 3)], ["r^-41 s3", f"sp({HUGE}) m(1,0)"])
        for cap in ("1", "2", "40")
    ],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_request_of_a_family_ends_in_bounded_time(family):
    for argv in FAMILIES[family]:
        result = run_within(LIMIT_S, argv)
        assert result is not None, f"{argv} ran past {LIMIT_S} s"
        code, _, err = result
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, argv


def test_bounded_refusals_and_answers_are_pinned():
    """A sample of the grid with its exact replies: the refusals are made
    before any large work, and the far finite orders are the group's."""
    cases = [
        (FAMILIES["held refusals"][1], 3, "", "budget exceeded: product has 95 terms, budget 50\n"),
        (FAMILIES["held refusals"][3], 3, "", "budget exceeded: product work 100*367 exceeds budget\n"),
        (["cluster", "--a", "3", "--b", "3", "--n", "40"], 3, "",
         "budget exceeded: y40 has at least 3010350 terms, budget 1000000\n"),
        (["cluster", "--a", "2", "--b", "2", "--n", HUGE, "--max-terms", "100000000"], 3, "",
         f"budget exceeded: y{HUGE} has at least 100000002 terms, budget 100000000\n"),
        (["cluster", "--a", "1", "--b", "4", "--n", "-" + HUGE, "--max-terms", "100000000"], 3, "",
         f"budget exceeded: y-{HUGE} has at least 100000002 terms, budget 100000000\n"),
        (["group-structure", "--a", "300000", "--b", "1"], 3, "",
         "budget exceeded: binomial row 300000 exceeds budget\n"),
        (["geom-boundary", "--a", "1000000", "--b", "1", "--model", "barx"], 3, "",
         "budget exceeded: classes of rank 1000005 exceed budget\n"),
        (["aut-order", "--a", "2", "--b", "2", f"r^{HUGE}"], 0, "none within cap=16\n", ""),
        (["aut-order", "--a", "4", "--b", "3", f"r^-{HUGE}", "s2", "m(1,1)"], 0, "6\n", ""),
        (["aut-order", "--a", "2", "--b", "2", "--max-terms", "40", "r^-41", "s3"], 0, "2\n", ""),
        (["aut-order", "--a", "2", "--b", "2", "--max-terms", "2", "r^-41", "s3"], 3, "",
         "budget exceeded: normal form budget exhausted\n"),
    ]
    for argv, code, out, err in cases:
        assert run_within(LIMIT_S, argv) == (code, out, err), argv
