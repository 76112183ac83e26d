"""Commands factor under the budget their config echoes, and find critical points once."""

import json

import pytest

from arbordyn import critical
from arbordyn.cli import main

# 1000000016000000063 = (10^9 + 7)(10^9 + 9); the Wronskian of the map below
# has a quadratic factor with an 82-bit discriminant.  Trial division below 2
# finds no witness prime, so certify must factor m-1, m and m+1.
STARVED = [
    ["critical", "--map", "(z^2+1000000000039)/(z^2+z+1)", "--trial-bound", "2",
     "--rho-budget", "1"],
    ["certify", "--m", "1000000016000000063", "--depth", "2", "--rho-budget", "1",
     "--trial-bound", "2"],
]


@pytest.mark.parametrize("argv", STARVED, ids=lambda argv: argv[0])
def test_starved_budget_exits_1_with_one_error_line(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_default_budget_factors_what_the_starved_one_cannot(capsys):
    assert main(STARVED[0][:3]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical"]["field"]["kind"] == "quadratic"
    assert main(STARVED[1][:5]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hypotheses"]["met"] and doc["config"]["rho_budget"] == 10 ** 8


def test_rigid_check_reports_unfactored_resultant_as_null(capsys):
    argv = ["rigid-check", "--map", "(z^2+1000000000039)/(z^2+1000000000061)",
            "--n", "4", "--trial-bound", "2", "--rho-budget", "1"]
    main(argv)
    assert json.loads(capsys.readouterr().out)["bad_reduction_primes"] is None


@pytest.mark.parametrize("command", ["critical", "normal-form"])
def test_critical_points_computed_once(monkeypatch, capsys, command):
    calls = []
    inner = critical.critical_points

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(critical, "critical_points", counted)
    assert main([command, "--map", "(z^2+2)/(z^2+2z+2)"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
