import contextlib
import io
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbordyn import cli
from arbordyn.cli import main
from arbordyn.errors import InvariantViolationError
from arbordyn.parsing import MAX_DEGREE, ParseError, parse_map, parse_point, parse_poly
from arbordyn.ratmap import P1Point, RationalMap


class TestPolynomialGrammar:
    def test_basic_polynomials(self):
        assert parse_poly("z^2-98") == [Fraction(-98), Fraction(0), Fraction(1)]
        assert parse_poly("5z^2") == [0, 0, 5]
        assert parse_poly("z^2+2z+2") == [2, 2, 1]
        assert parse_poly("7") == [7]
        assert parse_poly("-z") == [0, -1]

    def test_whitespace_insensitive(self):
        assert parse_poly(" z^2 - 98 ") == parse_poly("z^2-98")

    def test_rational_coefficients(self):
        assert parse_poly("z^2+1/2") == [Fraction(1, 2), 0, 1]
        assert parse_poly("3/4z^2-1/2z") == [0, Fraction(-1, 2), Fraction(3, 4)]

    def test_repeated_monomials_merge(self):
        assert parse_poly("z+z+1") == [1, 2]

    def test_degree_limit(self):
        assert len(parse_poly(f"z^{MAX_DEGREE}+1")) == MAX_DEGREE + 1
        with pytest.raises(ParseError, match=f"exponent {MAX_DEGREE + 1} exceeds"):
            parse_poly(f"z^{MAX_DEGREE + 1}+1")

    def test_garbage_rejected(self):
        for bad in ("z^2 + w", "", "z**2", "(z^2"):
            with pytest.raises(ParseError):
                parse_poly(bad)


class TestMapGrammar:
    def test_standard_forms(self):
        assert parse_map("(z^2-98)/z^2") == RationalMap.from_coeffs([-98, 0, 1], [0, 0, 1])
        assert parse_map("(z^2+1)/(z^2+3)") == RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
        assert parse_map("z^2") == RationalMap.from_coeffs([0, 0, 1], [1])
        assert parse_map("5z^2") == RationalMap.from_coeffs([0, 0, 5], [1])

    def test_inverse_power(self):
        assert parse_map("7/z^3") == RationalMap.from_coeffs([7], [0, 0, 0, 1])

    def test_rational_coefficient_not_a_map_slash(self):
        phi = parse_map("(z^2+1/2)/(z^2)")
        assert phi == RationalMap.from_coeffs([1, 0, 2], [0, 0, 2])

    def test_degenerate_rejected(self):
        with pytest.raises(ParseError):
            parse_map("(z^2)/z")

    def test_points(self):
        assert parse_point("0") == P1Point.of(0)
        assert parse_point("7/2") == P1Point.of(7, 2)
        assert parse_point("inf") == P1Point.infinity()
        with pytest.raises(ParseError):
            parse_point("x")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOrbitCommand:
    def test_family_orbit(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "arbordyn/5"
        assert doc["orbit"]["points"][:4] == ["0", "inf", "1", "-97"]

    def test_fixed_point(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--map", "z^2", "--start", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["orbit"]["status"] == "preperiodic"
        assert doc["orbit"]["preperiod"] == 0 and doc["orbit"]["period"] == 1

    def test_collision_value_orbit(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--map", "(z^2+2)/(z^2+2z+2)", "--start", "2/3",
            "--steps", "10",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["orbit"]["status"] in ("preperiodic", "budget_exhausted", "escaped")

    def test_parse_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "orbit", "--map", "(z^2", "--start", "0")
        assert code == 2
        assert "error" in err

    def test_negative_fractional_start(self, capsys):
        for start in (["--start", "-2/3"], ["--start=-2/3"]):
            code, out, _ = run_cli(
                capsys, "orbit", "--map", "(z^2-98)/z^2", *start, "--steps", "2"
            )
            assert code == 0
            assert json.loads(out)["orbit"]["points"][0] == "-2/3"

    def test_map_with_leading_minus(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--map", "-z^2/(z^2+1)", "--start", "1", "--steps", "2"
        )
        assert code == 0
        assert json.loads(out)["orbit"]["points"] == ["1", "-1/2", "-1/5"]


class TestCriticalCommands:
    def test_critical_quadratic_field(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--map", "(z^2+2)/(z^2+2z+2)")
        assert code == 0
        doc = json.loads(out)
        assert doc["critical"]["field"] == {"kind": "quadratic", "s": 2}
        assert doc["relation"]["kind"] == "collision"
        assert doc["relation"]["n"] == 2

    def test_normal_form_power(self, capsys):
        code, out, _ = run_cli(capsys, "normal-form", "--map", "5z^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["normal_form"]["kind"] == "power"
        assert doc["normal_form"]["c"] == "5"

    def test_normal_form_family(self, capsys):
        code, out, _ = run_cli(capsys, "normal-form", "--map", "(z^2-98)/z^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["normal_form"]["kind"] == "bicritical"
        assert doc["normal_form"]["a"] == "-98"
        assert doc["normal_form"]["b"] == "0"
        assert doc["relation"]["kind"] == "trailing"
        assert (doc["relation"]["n"], doc["relation"]["m"]) == (1, 0)

    def test_non_bicritical_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--map", "z^3+z")
        assert code == 3
        assert "bicritical" in err


class TestSequenceCommand:
    def test_family_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--a", "-98", "--n", "5")
        assert code == 0
        doc = json.loads(out)
        fcol = [row["f"] for row in doc["rows"]]
        assert fcol == [1, 1, -97, 9311, -8589174817]

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--a", "-98", "--n", "1")
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["pn0"] == -98

    def test_map_recognized_as_family(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--map", "(z^2-98)/z^2", "--n", "3")
        doc = json.loads(out)
        assert doc["a"] == -98
        assert doc["rows"][2]["theta"] == -97

    @pytest.mark.parametrize("argv", [("--a", "-1", "--n", "3"),
                                      ("--map", "(z^2-1)/z^2", "--n", "4")])
    def test_vanishing_f_leaves_theta_off_every_row(self, capsys, argv):
        # a = -1 gives f_3 = 1 + a = 0, so no theta_n is defined
        code, out, _ = run_cli(capsys, "sequence", *argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        pairs = [(-1, 1), (1, 1), (0, 0), (-1, -1)][:len(rows)]
        assert [(row["pn0"], row["f"]) for row in rows] == pairs
        assert not any("theta" in row for row in rows)
        code, out, _ = run_cli(capsys, "sequence", *argv, "--output", "text")
        assert code == 0
        assert out.splitlines()[2] == "n=3  p_n(0)=0  f=0"
        assert "theta" not in out

    def test_factored_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "--map", "(z^2+1)/(z^2+3)", "--n", "6", "--factor"
        )
        assert code == 0
        doc = json.loads(out)
        row6 = doc["rows"][5]["factorization"]
        assert row6["factors"] == [[2, 21], [5, 1], [13, 1], [17, 1], [193, 1],
                                   [11969, 1], [3144217, 1], [82530809, 1]]
        assert row6["cofactor"] == 1


class TestCertifyCommand:
    def test_parametrized_family(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--m", "2", "--depth", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] == "all_maximal"
        assert doc["hypotheses"]["s1_witness"] == 3
        assert doc["hypotheses"]["s2_witness"] == 5
        assert doc["parametrization"]["alpha"] == "7/2"

    def test_unmet_hypotheses_exit_four(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--a", "2", "--depth", "3")
        assert code == 4
        doc = json.loads(out)
        assert doc["overall"] == "hypotheses_unmet"

    def test_direct_parameter_agrees_with_m(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "certify", "--a", "-98", "--depth", "4")
        assert code_a == 0
        doc = json.loads(out_a)
        assert doc["overall"] == "all_maximal"

    def test_unmet_m_exit_four(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--m", "5", "--depth", "3")
        assert code == 4


@pytest.mark.parametrize("argv", [("certify", "--a", "-98", "--depth", "10"),
                                  ("sequence", "--a", "-98", "--n", "10")], ids=" ".join)
def test_family_tower_factors_nothing(monkeypatch, capsys, argv):
    """The f/theta tower of the family and its certificate need no factoring."""
    from arbordyn import factorint

    def refuse(*args, **kwargs):
        raise AssertionError("factor_integer called")

    monkeypatch.setattr(factorint, "factor_integer", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["schema"] == "arbordyn/5"


class TestRigidCheckCommand:
    def test_pass_with_exclusion(self, capsys):
        code, out, _ = run_cli(
            capsys, "rigid-check", "--map", "(z^2+1)/(z^2+3)",
            "--exclude", "2", "--n", "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["status"] == "pass"
        assert doc["bad_reduction_primes"] == [2]

    def test_violation_exit_five(self, capsys):
        code, out, _ = run_cli(
            capsys, "rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "8"
        )
        assert code == 5
        doc = json.loads(out)
        primes = {v["prime"] for v in doc["report"]["violations"]}
        assert primes == {2}

    def test_linear_term_warning(self, capsys):
        code, out, _ = run_cli(
            capsys, "rigid-check", "--map", "(z^2+z+1)/z^2", "--n", "4"
        )
        doc = json.loads(out)
        assert any("p'(0)" in w for w in doc["warnings"])


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        args = ("certify", "--m", "2", "--depth", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_round_trips(self, capsys):
        commands = [
            ("orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "4"),
            ("critical", "--map", "(z^2+2)/(z^2+2z+2)"),
            ("normal-form", "--map", "(z^2-98)/z^2"),
            ("sequence", "--a", "-6", "--n", "4", "--factor"),
            ("certify", "--m", "2", "--depth", "3"),
            ("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2", "--n", "5"),
        ]
        for args in commands:
            _, out, _ = run_cli(capsys, *args)
            doc = json.loads(out)
            assert json.loads(json.dumps(doc)) == doc

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "--a", "-98", "--n", "3", "--output", "text"
        )
        assert code == 0
        assert "f=-97" in out


class TestBudgets:
    def test_growth_cap_yields_partial_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "--a", "-98", "--n", "30",
            "--growth-cap-bits", "2000",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "growth_capped"
        assert 0 < len(doc["rows"]) < 30

    # (a, n, cap, rows printed, theta on them): |f_k| <= |p_k(0)|, so every
    # printed row has its f, and status follows the origin orbit's cap alone.
    # At a = 1, p_n(0) = f_n, and p_8(0) and p_9(0) are 47 and 94 bits wide.
    F_COLUMN_CASES = [
        (1, 8, 47, 8, True),
        (1, 9, 94, 9, True),
        (2, 3, 6, 3, True),
        (2, 4, 6, 3, True),  # p_4(0) = 2816 is 12 bits wide
        (-1, 8, 5, 8, False),  # f_3 = 0, so no theta_n is defined
    ]

    def test_f_columns_kept_while_the_terms_fit(self, capsys):
        for a, n, cap, printed, with_theta in self.F_COLUMN_CASES:
            code, out, _ = run_cli(capsys, "sequence", "--a", str(a), "--n", str(n),
                                   "--growth-cap-bits", str(cap))
            assert code == 0
            doc = json.loads(out)
            assert len(doc["rows"]) == printed, a
            assert doc["status"] == ("complete" if printed == n else "growth_capped")
            assert all(row["pn0"] == a ** 2 ** (row["n"] - 1) * row["f"] for row in doc["rows"])
            assert all(("theta" in row) == with_theta for row in doc["rows"])

    # |a| <= 3 is drawn often: only there is p_n(0) not much wider than f_n
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.integers(-3, 3), st.integers(-300, 300)).filter(bool),
           st.integers(1, 10), st.integers(1, 400))
    def test_columns_follow_the_origin_cap(self, a, n, cap):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["sequence", "--a", str(a), "--n", str(n), "--growth-cap-bits", str(cap)])
        assert code == 0
        doc = json.loads(out.getvalue())
        rows = doc["rows"]
        assert (doc["status"] == "growth_capped") == (len(rows) < n)
        assert all(row["pn0"] == a ** 2 ** (row["n"] - 1) * row["f"] for row in rows)
        has_theta = [("theta" in row) for row in rows]
        assert has_theta == [all(row["f"] != 0 for row in rows)] * len(rows)

    def test_rho_budget_exhaustion_labeled_honestly(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "--a", "-6", "--n", "9", "--factor",
            "--rho-budget", "500",
        )
        assert code == 0
        doc = json.loads(out)
        statuses = {row["factorization"]["cofactor_status"] for row in doc["rows"]}
        assert "composite_unfactored" in statuses
        for row in doc["rows"]:
            fac = row["factorization"]
            value = fac["sign"] * fac["cofactor"]
            for p, e in fac["factors"]:
                value *= p ** e
            assert value == row["pn0"]

    def test_zero_terms_skip_factorization(self, capsys):
        # z^2 has p_n(0) = 0 for every n; the factor column stays absent
        code, out, _ = run_cli(capsys, "sequence", "--map", "z^2", "--n", "3",
                               "--factor")
        assert code == 0
        doc = json.loads(out)
        assert all("factorization" not in row for row in doc["rows"])


class TestBadArgumentsExitTwo:
    """Invalid option values give exit 2 and one stderr line, no traceback."""

    def assert_one_error_line(self, err):
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err

    def test_rigid_check_non_integer_exclude(self, capsys):
        code, out, err = run_cli(
            capsys, "rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6",
            "--exclude", "2,x",
        )
        assert code == 2 and out == ""
        self.assert_one_error_line(err)
        assert "'2,x'" in err

    def test_certify_depth_zero(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--a", "-98", "--depth", "0")
        assert code == 2 and out == ""
        self.assert_one_error_line(err)
        assert "depth" in err

    def test_certify_depth_zero_checked_before_m_search(self, capsys):
        # m = 5 fails the hypotheses; the invalid depth must win regardless
        for m in ("3", "5"):
            code, out, err = run_cli(capsys, "certify", "--m", m, "--depth", "0")
            assert code == 2 and out == ""
            self.assert_one_error_line(err)
            assert "depth" in err

    def test_rigid_check_n_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "0",
        )
        assert code == 2 and out == ""
        self.assert_one_error_line(err)
        assert "--n" in err

    def test_sequence_negative_n(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "--a", "-98", "--n", "-2")
        assert code == 2 and out == ""
        self.assert_one_error_line(err)
        assert "--n" in err

    def test_critical_negative_bound(self, capsys):
        code, out, err = run_cli(
            capsys, "critical", "--map", "(z^2+2)/(z^2+2z+2)", "--bound", "-3",
        )
        assert code == 2 and out == ""
        self.assert_one_error_line(err)
        assert "--bound" in err

    def test_normal_form_negative_bound(self, capsys):
        code, out, err = run_cli(
            capsys, "normal-form", "--map", "(z^2-98)/z^2", "--bound", "-3",
        )
        assert code == 2 and out == ""
        self.assert_one_error_line(err)
        assert "--bound" in err

    def test_rigid_check_negative_pool_depth(self, capsys):
        code, out, err = run_cli(
            capsys, "rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6",
            "--exclude", "2", "--pool-depth", "-1",
        )
        assert code == 2 and out == ""
        self.assert_one_error_line(err)
        assert "--pool-depth" in err


# (command line, text the error line must contain: the option it names)
BAD_COMMAND_LINES = [
    (("sequence", "--a", "-98", "--n", "3", "--growth-cap-bits", "0"), "--growth-cap-bits"),
    # certify is bounded by DIGEST_BITS and --depth, and takes no growth cap
    (("certify", "--a", "-98", "--depth", "12", "--growth-cap-bits", "4503"), "--growth-cap-bits"),
    (("critical", "--map", "z^2", "--trial-bound", "0"), "--trial-bound"),
    (("certify", "--m", "2", "--depth", "3", "--rho-budget", "0"), "--rho-budget"),
    (("orbit", "--map", "z^2", "--start", "0", "--steps", "0"), "--steps"),
    (("orbit", "--map", "z^2", "--start", "0", "--height-cap-bits", "0"), "--height-cap-bits"),
    (("sequence", "--a", "-98", "--n", "0"), "--n"),
    (("sequence", "--a", "-98", "--n", "x"), "--n"),
    (("sequence", "--a", "-98"), "--n"),
    (("certify", "--a", "-98", "--depth", "0"), "--depth"),
    (("certify", "--m", "2", "--depth", str(cli.MAX_DEPTH + 1)), "--depth"),
    (("critical", "--map", "z^2", "--bound", "-1"), "--bound"),
    (("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6", "--pool-depth", "-1"),
     "--pool-depth"),
    (("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6", "--exclude", "2,x"),
     "--exclude"),
    (("certify", "--m", "1", "--depth", "3"), "--m"),
    (("certify", "--m", "2", "--a", "-98", "--depth", "3"), "--m"),
    (("certify", "--depth", "3"), "--m"),
    (("sequence", "--a", "0", "--n", "3"), "--a"),
    (("sequence", "--a", "-98", "--map", "(z^2+1)/(z^2+3)", "--n", "4"), "--map"),
    (("frobnicate", "--n", "3"), "frobnicate"),
]


class TestMalformedCommandLine:
    """Every malformed command line: exit 2, no stdout, one error line naming the option."""

    @pytest.mark.parametrize("argv, names", BAD_COMMAND_LINES,
                             ids=[" ".join(argv) for argv, _ in BAD_COMMAND_LINES])
    def test_one_error_line(self, capsys, argv, names):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert names in lines[0]


FACTORING_COMMANDS = {"critical", "normal-form", "sequence", "certify", "rigid-check"}

# Each budget option, its key in "config", and the commands that spend it.
BUDGET_OPTIONS = {
    "--steps": ("orbit_max_steps", {"orbit"}),
    "--height-cap-bits": ("height_cap_bits", {"orbit", "critical", "normal-form"}),
    "--growth-cap-bits": ("growth_cap_bits", {"sequence", "rigid-check"}),
    "--trial-bound": ("trial_bound", FACTORING_COMMANDS),
    "--rho-budget": ("rho_budget", FACTORING_COMMANDS),
    "--seed": ("seed", FACTORING_COMMANDS),
}

# A small command line of each command that exits 0.
SMALL_COMMANDS = {
    "orbit": ("orbit", "--map", "(z^2-98)/z^2", "--start", "0"),
    "critical": ("critical", "--map", "(z^2+2)/(z^2+2z+2)"),
    "normal-form": ("normal-form", "--map", "(z^2-98)/z^2"),
    "sequence": ("sequence", "--a", "-98", "--n", "3", "--factor"),
    "certify": ("certify", "--m", "2", "--depth", "2"),
    "rigid-check": ("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2", "--n", "4"),
}


def budget_keys(command: str) -> set[str]:
    return {key for key, spenders in BUDGET_OPTIONS.values() if command in spenders}


def readme_commands() -> list[list[str]]:
    """The command lines of the README's CLI block, without the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line)[1:] for line in readme.splitlines()
            if line.startswith("arbordyn ")]


class TestBudgetOptions:
    """A command takes exactly the budget options it spends, and echoes exactly those."""

    @pytest.mark.parametrize("command", SMALL_COMMANDS)
    @pytest.mark.parametrize("option", BUDGET_OPTIONS)
    def test_taken_exactly_when_spent(self, capsys, command, option):
        key, spenders = BUDGET_OPTIONS[option]
        code, out, err = run_cli(capsys, *SMALL_COMMANDS[command], option, "5000")
        if command in spenders:
            assert code == 0, err
            assert json.loads(out)["config"][key] == 5000
        else:
            assert code == 2 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert option in lines[0]

    def test_readme_commands_echo_their_budget_keys(self, capsys):
        commands = readme_commands()
        assert len(commands) == 8
        for argv in commands:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            assert set(json.loads(out)["config"]) == budget_keys(argv[0])


MAP_COMMANDS = (
    ("orbit", "--start", "0"),
    ("critical",),
    ("normal-form",),
    ("sequence", "--n", "3"),
    ("rigid-check", "--n", "3"),
)


class TestBadCoefficientExitTwo:
    """A coefficient that Fraction rejects is a parse error on every map command."""

    def test_parse_poly_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly("z^2+1/0")

    @pytest.mark.parametrize("command", MAP_COMMANDS, ids=lambda c: c[0])
    def test_zero_denominator(self, capsys, command):
        name, *extra = command
        code, out, err = run_cli(capsys, name, "--map", "z^2+1/0", *extra)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "'1/0'" in err


class TestInternalErrorExitSix:
    """Any other exception from a command is one stderr line and exit 6."""

    @pytest.mark.parametrize("error", [
        InvariantViolationError("theta_3 is not integral\nsecond line"),
        MemoryError(),
    ], ids=lambda e: type(e).__name__)
    def test_one_line_no_traceback(self, capsys, monkeypatch, error):
        def broken(args):
            raise error

        monkeypatch.setattr(cli, "cmd_orbit", broken)
        code, out, err = run_cli(capsys, "orbit", "--map", "z^2", "--start", "0")
        assert code == 6 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "Traceback" not in err
        assert lines[0].startswith(f"error: internal: {type(error).__name__}: ")
        assert " ".join(str(error).split("\n")) in lines[0]
