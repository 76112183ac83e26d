"""Command lines that once ran past every budget, each with its exit code.

Each row runs as its own process, with the interpreter's default digit limit,
and must end within TIMEOUT_S.  A row with a byte count reads only that much
of stdout and then closes it, as ``| head -c N`` does.  A command found to
hang is added here as one more row.
"""

import inspect
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from arbordyn.cli import MAX_DEPTH

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = "import sys; from arbordyn.cli import main; sys.exit(main())"
TIMEOUT_S = 20
BIG_M = 348449143727040986595202461212921556893729

# (argv, bytes of stdout read before closing it or None for all, exit code)
ROWS = [
    (["critical", "--map", "(z^2+1000000000039)/(z^2+z+1)"], None, 0),
    (["critical", "--map", "(z^3+1000000000000000000000007)/(z+1)"], None, 3),
    (["critical", "--map", "(z^1000+z+1)/(z^999+2)"], None, 3),
    (["critical", "--map", "(z^3+32589158477190044730)/(z+1)"], None, 3),
    (["certify", "--m", "1000000016000000063", "--depth", "2"], None, 0),
    (["sequence", "--a", "-98", "--n", "18"], 100, 1),
    (["orbit", "--map", "z^1000000+1", "--start", "0"], None, 2),
    (["critical", "--map", "(z^1000+5)/(z^1000+3)"], None, 0),
    (["normal-form", "--map", "(z^1000+5)/(z^1000+3)"], None, 0),
    (["orbit", "--map", "(z^1000+5)/(z^1000+3)", "--start", "1", "--steps", "3"], None, 0),
    (["sequence", "--a", "-1", "--n", "3"], None, 0),
    (["sequence", "--map", "(z^2-1)/z^2", "--n", "4"], None, 0),
    # past the old growth stop: levels whose f_(n+1) is wide are decided mod q
    (["certify", "--a", "-98", "--depth", "22"], None, 0),
    (["certify", "--a", "-98", "--depth", str(MAX_DEPTH)], None, 0),
    (["certify", "--m", "2", "--depth", str(MAX_DEPTH)], None, 0),
    (["certify", "--a", "-98", "--depth", str(MAX_DEPTH + 1)], None, 2),
    # m is the product of the least primes above 2^67 and 2^71; trial division
    # finds both witnesses (3 | m+1, 29 | 2m-1), so nothing is factored further
    (["certify", "--m", str(BIG_M), "--depth", "2"], None, 0),
]


def run_row(argv, head):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        if head is not None:
            proc.stdout.read(head)
            proc.stdout.close()
            err = proc.stderr.read()
        else:
            _, err = proc.communicate()
        return proc.wait(), err.decode(), timer.is_alive()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()


IDS = [" ".join(argv) + (f" | head -c {head}" if head else "") for argv, head, _ in ROWS]


@pytest.mark.parametrize("argv, head, code", ROWS, ids=IDS)
def test_command_ends_with_its_exit_code(argv, head, code):
    rc, err, in_time = run_row(argv, head)
    assert in_time, f"still running after {TIMEOUT_S} s"
    assert rc == code, err
    assert "Traceback" not in err
    if head is not None:
        assert err == ""


def test_shape_test_factors_nothing(monkeypatch):
    """Bicriticality is decided from the Wronskian's shape, with no factoring."""
    from arbordyn import critical, factorint
    from arbordyn.errors import NotBicriticalError
    from arbordyn.parsing import parse_map

    def refuse(*args, **kwargs):
        raise AssertionError("factor_integer called")

    monkeypatch.setattr(factorint, "factor_integer", refuse)
    for text in ("(z^1000+z+1)/(z^999+2)", "(z^3+32589158477190044730)/(z+1)"):
        with pytest.raises(NotBicriticalError):
            critical.critical_points(parse_map(text))
    data = critical.critical_points(parse_map("(z^1000+5)/(z^1000+3)"))
    assert [pt.index for pt in data.points] == [1000, 1000]


@pytest.mark.parametrize("a", [-6, -10, -98, -3998])
def test_certificate_does_no_exact_tower_arithmetic(monkeypatch, a):
    """A certificate reads f and theta only mod 4 and mod small primes."""
    from arbordyn import divisibility, galois

    def residues_only(fn):
        def guarded(*args, **kwargs):
            if inspect.signature(fn).bind(*args, **kwargs).arguments.get("modulus") is None:
                raise AssertionError(f"{fn.__name__} called without a modulus")
            return fn(*args, **kwargs)
        return guarded

    monkeypatch.setattr(galois, "f_sequence", residues_only(divisibility.f_sequence))
    monkeypatch.setattr(galois, "theta", residues_only(divisibility.theta))
    for depth in [*range(1, 41), MAX_DEPTH]:
        cert = galois.maximality_certificate(a, depth)
        assert len(cert.levels) == depth
