"""Every option the command-line parser registers is documented in README.md."""

import argparse
import re
from pathlib import Path

from arbordyn.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def registered_options() -> set[str]:
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt
            for sub in subs.choices.values()
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"}


def test_every_option_is_in_the_readme():
    options = registered_options()
    assert {"--map", "--bound", "--pool-depth", "--seed"} <= options
    missing = sorted(opt for opt in options
                     if not re.search(re.escape(opt) + r"(?![\w-])", README))
    assert missing == []
