"""What a process loads: the lazy package, the sieve, the prime-block table, the
CLI's import boundary.

``import arbordyn`` loads no submodule; its module-level ``__getattr__``
imports the defining module of a name on first access.  The CLI imports the
heavy modules inside the commands that use them, which a subprocess checks
against a clean ``sys.modules``.
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arbordyn
from arbordyn.factorint import primes_below

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
import contextlib, io, json, sys
import arbordyn.cli
loaded = lambda: sorted(m for m in sys.modules if m.startswith("arbordyn."))
out = {"import": loaded(), "table_read": []}
for argv in (
    ["orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"],
    ["critical", "--map", "(z^2+2)/(z^2+2z+2)"],
    ["normal-form", "--map", "(z^2-98)/z^2"],
    ["certify", "--a", "-98", "--depth", "8"],
    ["sequence", "--a", "-98", "--n", "8"],
    ["sequence", "--a", "-98", "--n", "8", "--factor", "--rho-budget", "1000"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        arbordyn.cli.main(argv)
    out.setdefault(argv[0], loaded())
    factorint = sys.modules.get("arbordyn.factorint")
    out["table_read"].append(bool(factorint and factorint._blocks))
print(json.dumps(out))
"""


def test_cli_import_boundary():
    loaded = json.loads(run_python(BOUNDARY_PROBE).stdout)
    assert not set(HEAVY) & set(loaded["import"])
    assert not set(HEAVY) & set(loaded["orbit"])
    assert "arbordyn.critical" in loaded["critical"]
    assert "arbordyn.galois" not in loaded["critical"]
    # the prime-block table is read only by trial division past 2048: --factor
    assert loaded["table_read"] == [False] * 5 + [True]


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


def test_no_module_imports_dataclasses():
    for path in sorted((ROOT / "src" / "arbordyn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "dataclasses" for m in modules), path
