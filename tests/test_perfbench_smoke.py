"""The benchmark's layer tracer still wraps the library it measures.

perfbench/tracing.py wraps public arbordyn functions by module and name, so a
library change that drops a traced name breaks traced runs.  This runs one
small traced command and compares it with the untraced one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["sequence", "--a", "-98", "--n", "6"]
LAYERS = ("parsing", "cli", "ratmap", "intpoly", "critical", "quadext", "fieldpoly",
          "reduction", "factorint", "ffpoly", "divisibility", "galois")


def run(cmd: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120)


def test_traced_sequence_matches_untraced(tmp_path):
    spans_file = tmp_path / "spans.json"
    traced = run([sys.executable, "perfbench/tracing.py", str(spans_file), "j", "--", *ARGS])
    plain = run([sys.executable, "-m", "arbordyn.cli", *ARGS])
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout

    doc = json.loads(spans_file.read_text())
    names = doc["names"]
    assert {name.split(".", 1)[0] for name in names} >= set(LAYERS)
    called = {names[span[0]] for span in doc["spans"]}
    assert "ratmap.RationalMap.origin_values" in called
