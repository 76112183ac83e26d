"""The option table parses every command line as the argparse parser it replaced.

``build_parser`` below is the argparse wiring the CLI used before its
command line was read from ``cli.COMMANDS``, kept as the reference, with the
rewrite that let a value of --start or --map begin with "-" on the lines of
the commands that take that option, and with ``certify --depth`` bounded by
``cli.MAX_DEPTH`` as the table bounds it.  On every line both accept,
``cli.parse`` gives the same namespace (less argparse's ``func``); on every
line argparse rejects, it exits 2 naming the same option or command.  The
two differ by design only where a value taken as the next token begins with
"-" and is not an integer: argparse read such a token as an option, the
table reads it as the value.
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arbordyn import cli
from arbordyn.parsing import ParseError
from test_cli import BAD_COMMAND_LINES, readme_commands

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# The reference: the argparse parser as it was
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ParseError (exit 2, one line) where argparse prints its usage."""

    def error(self, message):
        raise ParseError(message)


def _integer(need: str, ok):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return value
    return parse


_POSITIVE = _integer("an integer >= 1", lambda v: v >= 1)
_NON_NEGATIVE = _integer("an integer >= 0", lambda v: v >= 0)


def _integer_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need comma-separated integers, got {text!r}") from None


BUDGETS = (
    ("--steps", "orbit_max_steps", 64, _POSITIVE),
    ("--height-cap-bits", "height_cap_bits", 4096, _POSITIVE),
    ("--growth-cap-bits", "growth_cap_bits", 2 ** 24, _POSITIVE),
    ("--trial-bound", "trial_bound", 10 ** 6, _POSITIVE),
    ("--rho-budget", "rho_budget", 10 ** 8, _POSITIVE),
    ("--seed", "seed", 0, int),
)
FACTORING = ("--trial-bound", "--rho-budget", "--seed")


def _add_options(sub, *budgets: str) -> None:
    sub.add_argument("--output", choices=("json", "text"), default="json")
    for option, key, default, kind in BUDGETS:
        if option in budgets:
            sub.add_argument(option, dest=key, default=default, type=kind)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="arbordyn",
                 description="Exact arithmetic for bicritical rational maps over Q.")
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("orbit", help="iterate a rational point exactly")
    s.add_argument("--map", required=True)
    s.add_argument("--start", required=True)
    _add_options(s, "--steps", "--height-cap-bits")
    s.set_defaults(func=cli.cmd_orbit)

    s = subs.add_parser("critical", help="critical points and orbit relations")
    s.add_argument("--map", required=True)
    s.add_argument("--bound", type=_NON_NEGATIVE, default=12)
    _add_options(s, "--height-cap-bits", *FACTORING)
    s.set_defaults(func=cli.cmd_critical)

    s = subs.add_parser("normal-form", help="conjugate to a two-term normal form")
    s.add_argument("--map", required=True)
    s.add_argument("--bound", type=_NON_NEGATIVE, default=12)
    _add_options(s, "--height-cap-bits", *FACTORING)
    s.set_defaults(func=cli.cmd_normal_form)

    s = subs.add_parser("sequence", help="origin iterate values and factorizations")
    one = s.add_mutually_exclusive_group(required=True)
    one.add_argument("--a", type=_integer("a nonzero integer", lambda v: v != 0))
    one.add_argument("--map")
    s.add_argument("--n", type=_POSITIVE, required=True)
    s.add_argument("--factor", action="store_true")
    _add_options(s, "--growth-cap-bits", *FACTORING)
    s.set_defaults(func=cli.cmd_sequence)

    s = subs.add_parser("certify", help="arboreal maximality certificates")
    one = s.add_mutually_exclusive_group(required=True)
    one.add_argument("--m", type=_integer("an integer other than -1, 0, 1",
                                          lambda v: abs(v) >= 2))
    one.add_argument("--a", type=int)
    s.add_argument("--depth", type=_integer(f"an integer from 1 to {cli.MAX_DEPTH}",
                                            lambda v: 1 <= v <= cli.MAX_DEPTH), required=True)
    _add_options(s, *FACTORING)
    s.set_defaults(func=cli.cmd_certify)

    s = subs.add_parser("rigid-check", help="rigid divisibility of p_n(0)")
    s.add_argument("--map", required=True)
    s.add_argument("--n", type=_POSITIVE, required=True)
    s.add_argument("--exclude", type=_integer_list, action="extend", default=[])
    s.add_argument("--pool-depth", type=_NON_NEGATIVE, default=6)
    _add_options(s, "--growth-cap-bits", *FACTORING)
    s.set_defaults(func=cli.cmd_rigid_check)
    return ap


# The options whose value may begin with "-", and the commands that take each.
DASH_VALUE_OPTIONS = {
    "--start": ("orbit",),
    "--map": ("orbit", "critical", "normal-form", "sequence", "rigid-check"),
}


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite "--start -2/3" as "--start=-2/3" for the DASH_VALUE_OPTIONS,
    on a line whose command takes the option; on another command's line the
    flag stays apart, and both parsers report it as unrecognized."""
    takes = [tok for tok, commands in DASH_VALUE_OPTIONS.items()
             if argv and argv[0] in commands]
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in takes and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# ---------------------------------------------------------------------------
# Both parsers on one line
# ---------------------------------------------------------------------------


def reference(argv: list[str]):
    """("ok", namespace), ("help", None) or ("error", message) from argparse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ns = build_parser().parse_args(_attach_dash_values(list(argv)))
    except ParseError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        assert exc.code == 0
        return "help", None
    fields = vars(ns)
    assert fields.pop("func") is getattr(cli, cli.COMMANDS[ns.command][0])
    return "ok", fields


def table(argv: list[str]):
    """The same triple from cli.parse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            ns = cli.parse(list(argv))
    except ParseError as exc:
        return "error", str(exc)
    if ns is None:
        assert out.getvalue().startswith("usage: arbordyn")
        return "help", None
    return "ok", vars(ns)


def named(message: str) -> str:
    """The option an error message names first, else the whole message."""
    found = re.search(r"--[\w-]+", message)
    return found.group() if found else message


def assert_same(argv):
    expected, got = reference(argv), table(argv)
    assert got[0] == expected[0], (argv, expected, got)
    if got[0] == "error":
        assert named(got[1]) == named(expected[1]), (argv, expected, got)
    else:
        assert got == expected, argv


def load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_lines() -> list[list[str]]:
    jobs = load_jobs()
    return [job["argv"] for workload in jobs.WORKLOADS for seed in (1, 7, 13)
            for job in jobs.make_jobs(workload, seed)]


# The forms the benchmark and the README type, each spelled out once more.
FORMS = [
    ["orbit", "--map", "(z^2-98)/z^2", "--start", "-2/3", "--steps", "4"],
    ["orbit", "--map", "-z^2/(z^2+1)", "--start", "1", "--steps", "2"],
    ["orbit", "--map=(z^2-98)/z^2", "--start=-2/3", "--steps=4"],
    ["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--exclude", "2,3"],
    ["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--exclude", "2", "--exclude=3,5"],
    ["sequence", "--a", "-98", "--n", "8", "--factor", "--rho-budget", "100000"],
    ["sequence", "--a=-98", "--n=8", "--factor", "--rho-budget=1000"],
    ["certify", "--a", "-98", "--dep", "8"],
    ["certify", "--m", "2", "--de=8", "--rh", "1000"],
    ["critical", "--map", "(z^2+2)/(z^2+2z+2)", "--b", "3", "--hei", "40", "--out", "text"],
    ["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--ex", "-3", "--po", "0"],
]


@pytest.mark.parametrize("argv", readme_commands() + FORMS, ids=" ".join)
def test_readme_and_benchmark_forms_parse_alike(argv):
    assert table(argv)[0] == "ok"
    assert_same(argv)


def test_every_benchmark_job_parses_alike():
    for argv in benchmark_lines():
        assert table(argv)[0] == "ok", argv
        assert_same(argv)


@pytest.mark.parametrize("argv, names", BAD_COMMAND_LINES,
                         ids=[" ".join(argv) for argv, _ in BAD_COMMAND_LINES])
def test_bad_command_lines_fail_alike(argv, names):
    assert table(argv)[0] == "error"
    assert_same(argv)


EDGE_LINES = [
    [],
    ["--help"],
    ["-h"],
    ["orbit", "--s", "1"],
    ["orbit", "--map", "z^2", "--start", "0", "--h"],
    ["orbit", "--steps", "0", "--s", "5"],
    ["orbit", "--map", "z^2", "--start", "0", "--"],
    ["orbit", "--map", "z^2", "--start", "0", "--foo", "1", "-x", "-5", "bar"],
    ["orbit", "--map", "z^2", "--start", "0", "--steps"],
    ["orbit", "--map", "z^2", "--start", "0", "--output", "xml"],
    ["orbit", "--steps", "0", "--help"],
    ["orbit", "--help", "--steps", "0"],
    ["orbit", "--help=1"],
    ["orbit"],
    ["sequence", "--a", "5", "--factor=x", "--n", "3"],
    ["sequence", "--a", "5", "--factor=", "--n", "3"],
    ["sequence", "--n", "3", "--a", "3", "--a", "4"],
    ["sequence", "--n", "3", "--a", "0", "--map", "z^2"],
    ["certify", "--a", "x", "--depth", "2"],
    ["certify", "--depth", "3", "--foo"],
    ["critical", "--map", "z^2", "--seed", "-5", "--s=3"],
    # a dash-led value flag that the command does not take is not glued
    ["critical", "--start", "--map", "z^2"],
    ["certify", "--map", "--a", "-98", "--depth", "2"],
]


@pytest.mark.parametrize("argv", EDGE_LINES, ids=" ".join)
def test_edge_lines_alike(argv):
    assert_same(argv)


FLAGS = sorted({o[0] for _, _, options in cli.COMMANDS.values() for o in options})
VALUES = st.one_of(
    st.integers(-3, 10 ** 6).map(str),
    st.sampled_from(["x", "", "2,3", "2,x", "1/2", "-2/3", "inf", "json", "text",
                     "z^2", "(z^2+1)/(z^2+3)", "-z^2/(z^2+1)", "5,", "+7", " 3"]),
)


@st.composite
def spellings(draw, command):
    """A flag in full or cut to a prefix: mostly one the command takes, now
    and then another command's, --help, or one no command takes."""
    own = [o[0] for o in cli.COMMANDS.get(command, (None, None, ()))[2]]
    flag = draw(st.sampled_from(own * 10 + FLAGS + ["--help", "--foo"]))
    return flag[:draw(st.integers(3, len(flag)))] if draw(st.booleans()) else flag


# A line of each command that both parsers accept, for the items to join.
BASES = {
    "orbit": ["--map", "z^2", "--start", "0"],
    "critical": ["--map", "z^2"],
    "normal-form": ["--map", "z^2"],
    "sequence": ["--a", "-98", "--n", "3"],
    "certify": ["--m", "2", "--depth", "3"],
    "rigid-check": ["--map", "(z^2+1)/(z^2+3)", "--n", "3"],
}


@st.composite
def items(draw, command):
    argv = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["pair"] * 5 + ["joined", "joined", "bare", "stray"]))
        if kind == "stray":
            argv.append(draw(VALUES))
        elif kind == "bare":
            argv.append(draw(spellings(command)))
        elif kind == "joined":
            argv.append(f"{draw(spellings(command))}={draw(VALUES)}")
        else:
            argv += [draw(spellings(command)), draw(VALUES)]
    return argv


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(cli.COMMANDS) * 4 + ["frobnicate", "--help", "-h"]))
    base = BASES.get(command, []) if draw(st.integers(0, 3)) else []
    return [command, *draw(items(command)), *base, *draw(items(command))]


def takes_value(command: str, token: str) -> bool:
    """Whether the table reads the token after ``token`` as its value."""
    options = cli.COMMANDS.get(command, (None, None, ()))[2]
    found = [o for o in options if o[0] == token] or [
        o for o in options if token.startswith("--") and o[0].startswith(token)]
    return len(found) == 1 and found[0][2] is not None


def by_design_apart(argv: list[str]) -> bool:
    """A value token that begins with "-", is not an integer, and follows a
    flag other than a literal --start or --map: argparse read it as an option."""
    return any(takes_value(argv[0], token) and nxt.startswith("-")
               and not re.fullmatch(r"-\d+", nxt) and token not in DASH_VALUE_OPTIONS
               for token, nxt in zip(argv[1:], argv[2:]))


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_generated_lines_alike(argv):
    assume(not by_design_apart(argv))
    assert_same(argv)


# ---------------------------------------------------------------------------
# No option is taken and then ignored
# ---------------------------------------------------------------------------


def _args_read(function_name: str) -> set[str]:
    """Every attribute of ``args`` that the named function of cli reads,
    in its own body or in a function nested in it."""
    tree = ast.parse(Path(cli.__file__).read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function_name)
    return {node.attr for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_option_taken_is_read(command):
    """Each option a command takes, --output aside (``_emit`` reads it), is
    read by the command's function, so no budget is accepted and then
    silently dropped."""
    function_name, _, options = cli.COMMANDS[command]
    read = _args_read(function_name)
    unread = [flag for flag, dest, *_ in options if flag != "--output" and dest not in read]
    assert not unread, f"{command} takes {unread} but never reads them"
