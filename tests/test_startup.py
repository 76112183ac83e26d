"""What a process loads: the lazy package, the sieve, the prime-block table, the
CLI's import boundary; and that only the CLI's process entry freezes the collector.

``import arbordyn`` loads no submodule; its module-level ``__getattr__``
imports the defining module of a name on first access.  The CLI imports the
heavy modules inside the commands that use them, which a subprocess checks
against a clean ``sys.modules``.
"""

import ast
import gc
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arbordyn
from arbordyn import cli
from arbordyn.factorint import primes_below
from test_cli import readme_commands

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("arbordyn.galois", "arbordyn.critical", "arbordyn.divisibility",
         "arbordyn.reduction", "arbordyn.ffpoly")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestLazyPackage:
    def test_every_exported_name_is_its_modules_object(self):
        assert arbordyn.__all__
        for name in arbordyn.__all__:
            module = importlib.import_module(f"arbordyn.{arbordyn._MODULE_OF[name]}")
            assert getattr(arbordyn, name) is getattr(module, name)

    def test_submodule_after_bare_import(self):
        code = ("import arbordyn, sys; g = arbordyn.galois; "
                "print(g is sys.modules['arbordyn.galois'], g.__name__)")
        assert run_python(code).stdout.split() == ["True", "arbordyn.galois"]

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            arbordyn.__getattr__("no_such_name")
        assert not hasattr(arbordyn, "no_such_name")


def naive_primes_below(n: int) -> list[int]:
    return [k for k in range(2, n) if all(k % d for d in range(2, math.isqrt(k) + 1))]


class TestSieve:
    def test_matches_naive_reference(self):
        for n in range(300):
            assert primes_below(n) == naive_primes_below(n), n
        assert primes_below(10 ** 5) == naive_primes_below(10 ** 5)

    def test_prime_count_below_a_million(self):
        assert len(primes_below(10 ** 6)) == 78498


BOUNDARY_PROBE = """
import contextlib, io, os, sys
import arbordyn.cli
loaded = lambda: sorted(m for m in sys.modules if m.startswith("arbordyn."))
banned = lambda: sorted(m for m in ("argparse", "gettext", "locale", "json", "multiprocessing",
                                    "concurrent.futures", "pickle") if m in sys.modules)
out = {"import": loaded(), "table_read": [], "banned": [banned()]}
# rigid-check loads reduction, which certify and sequence must not, so it
# runs alone in a fork of this process
read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            arbordyn.cli.main(["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2",
                               "--n", "8"])
        os.write(write_end, " ".join(loaded()).encode())
    finally:
        os._exit(0)  # never unwind into the probe
os.close(write_end)
with os.fdopen(read_end) as pipe:
    out["rigid-check"] = pipe.read().split()
os.waitpid(pid, 0)
for argv in (
    ["orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"],
    ["critical", "--map", "(z^2+2)/(z^2+2z+2)"],
    ["normal-form", "--map", "(z^2-98)/z^2"],
    ["certify", "--a", "-98", "--depth", "8"],
    ["certify", "--a", "-98", "--depth", "16"],
    ["sequence", "--a", "-98", "--n", "8"],
    ["sequence", "--a", "-98", "--n", "8", "--factor", "--rho-budget", "1000"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        arbordyn.cli.main(argv)
    out.setdefault(argv[0], loaded())
    factorint = sys.modules.get("arbordyn.factorint")
    out["table_read"].append(bool(factorint and factorint._blocks))
out["hashlib"] = "hashlib" in sys.modules
for argv in README_COMMANDS + [[command, "--help"] for command in arbordyn.cli.COMMANDS]:
    with contextlib.redirect_stdout(io.StringIO()):
        arbordyn.cli.main(argv)
    out["banned"].append(banned())
print(repr(out))
"""


def test_cli_import_boundary():
    probe = f"README_COMMANDS = {readme_commands()!r}\n{BOUNDARY_PROBE}"
    loaded = ast.literal_eval(run_python(probe).stdout)
    # the CLI parses its command line, writes its JSON and forks its factoring
    # workers without these
    assert loaded["banned"] == [[]] * (1 + 8 + 6)
    assert not set(HEAVY) & set(loaded["import"])
    assert not set(HEAVY) & set(loaded["orbit"])
    assert "arbordyn.critical" in loaded["critical"]
    assert "arbordyn.galois" not in loaded["critical"]
    # the certificate and the sequence step no orbit mod p, and the
    # certificate needs no finite-field polynomials
    assert "arbordyn.reduction" not in loaded["certify"] + loaded["sequence"]
    assert "arbordyn.ffpoly" not in loaded["certify"]
    # rigid-check reads its bad primes from res: no finite-field polynomials
    assert "arbordyn.reduction" in loaded["rigid-check"]
    assert not {"arbordyn.ffpoly", "arbordyn.galois"} & set(loaded["rigid-check"])
    # a certificate past DIGEST_BITS hashes nothing: its deep levels are residues
    assert loaded["hashlib"] is False
    # the prime-block table is read only by trial division past 2048: --factor
    assert loaded["table_read"] == [False] * 6 + [True]


RECORD_PROBE = """
import contextlib, io, json, sys
import arbordyn.cli
banned = lambda: sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
out = {"import": banned()}
for argv in (
    ["orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"],
    ["critical", "--map", "(z^2+2)/(z^2+2z+2)"],
    ["normal-form", "--map", "(z^2-98)/z^2"],
    ["sequence", "--a", "-98", "--n", "6", "--factor", "--rho-budget", "1000"],
    ["certify", "--m", "3", "--depth", "4"],
    ["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6", "--exclude", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = arbordyn.cli.main(argv)
    out[argv[0]] = [code, banned()]
print(json.dumps(out))
"""


def test_no_command_loads_dataclasses_or_inspect():
    loaded = json.loads(run_python(RECORD_PROBE).stdout)
    assert loaded.pop("import") == []
    assert loaded == {cmd: [0, []] for cmd in (
        "orbit", "critical", "normal-form", "sequence", "certify", "rigid-check")}


def test_process_entry_freezes_the_collector():
    code = ("import gc, sys; from arbordyn.cli import main; "
            "sys.argv = ['arbordyn', 'certify', '--a', '-98', '--depth', '3']; "
            "code = main(); print(gc.get_freeze_count(), file=sys.stderr); sys.exit(code)")
    assert int(run_python(code).stderr) > 0


def test_main_with_argv_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["certify", "--a", "-98", "--depth", "3"]) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out


def imported_packages() -> dict[str, set[str]]:
    """Each module of src/arbordyn -> the top-level packages it imports, anywhere in it."""
    out = {}
    for path in sorted((ROOT / "src" / "arbordyn").glob("*.py")):
        names = out[path.name] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses():
    assert {name for name, used in imported_packages().items() if "dataclasses" in used} == set()


def test_no_module_imports_argparse_or_json():
    # the command line is read from cli.COMMANDS and JSON is written by _record.json_text
    assert {name for name, used in imported_packages().items()
            if used & {"argparse", "json"}} == set()
