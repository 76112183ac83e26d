"""Every option of the command table is documented in README.md and in --help."""

import re
from pathlib import Path

import pytest

from arbordyn.cli import COMMANDS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def registered_options() -> set[str]:
    return {option[0] for _, _, options in COMMANDS.values() for option in options}


def test_every_option_is_in_the_readme():
    options = registered_options()
    assert {"--map", "--bound", "--pool-depth", "--seed"} <= options
    missing = sorted(opt for opt in options
                     if not re.search(re.escape(opt) + r"(?![\w-])", README))
    assert missing == []


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_0_and_names_every_option(capsys, command):
    for flag in ("--help", "-h", "--hel"):
        assert main([command, flag]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        named = set(re.findall(r"--[\w-]+", out))
        assert {option[0] for option in COMMANDS[command][2]} <= named


def test_top_level_help_names_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(re.search(rf"^  {re.escape(name)} ", out, re.MULTILINE) for name in COMMANDS)
