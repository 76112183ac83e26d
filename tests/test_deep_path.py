"""The deep path of the CLI as a user runs it: one process per command.

Each command runs in a fresh interpreter with PYTHONINTMAXSTRDIGITS removed,
so CPython's default 4300-digit int-to-str limit is in force; integers wider
than DECIMAL_SAFE_BITS must reach stdout as hex without a traceback.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arbordyn.divisibility import f_sequence, theta
from arbordyn.factorint import DECIMAL_SAFE_BITS, int_text, is_probable_prime

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "arbordyn.cli", *args],
        env=env, capture_output=True, timeout=120,
    )
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    return proc


def as_int(v) -> int:
    """A payload integer: a JSON number, or a "0x"/"-0x" string when wide."""
    if isinstance(v, str):
        assert v.lstrip("-").startswith("0x")
        value = int(v, 16)
        assert value.bit_length() > DECIMAL_SAFE_BITS
        return value
    assert v.bit_length() <= DECIMAL_SAFE_BITS
    return v


def test_no_digit_limit_override_in_src():
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert "set_int_max_str_digits" not in text, path
        assert "PYTHONINTMAXSTRDIGITS" not in text, path


class TestDeepCommands:
    def test_certify_depth_13(self):
        proc = run("certify", "--a", "-98", "--depth", "13")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["overall"] == "all_maximal"
        assert doc["certificate"]["maximal_levels"] == list(range(1, 14))

    def test_certify_wide_witnesses(self):
        proc = run("certify", "--a", "-98", "--depth", "16")
        assert proc.returncode == 0
        levels = json.loads(proc.stdout)["certificate"]["levels"]
        fs = f_sequence(-98, 17)
        thetas = theta(fs)
        assert levels[0]["irreducibility"]["witness"] == {"modulus": 4, "residue": 2}
        # f_17 is over 140 000 bits wide; every witness is a residue
        assert fs[16].bit_length() > 140_000
        for lvl in levels[1:]:
            n = lvl["n"]
            irr, wit = lvl["irreducibility"]["witness"], lvl["theta"]
            assert lvl["verdict"] == "maximal"
            # recomputed from the exact f and theta, which the command never builds
            assert irr == {"modulus": 4, "residue": 3} and fs[n] % 4 == 3
            q, r = wit["q"], wit["r"]
            assert wit == {"route": "residue", "index": n + 1, "q": q, "r": r}
            assert q % 4 == 1 and -98 % q and is_probable_prime(q)
            assert thetas[n] % q == r and pow(r, (q - 1) // 2, q) == q - 1

    def test_sequence_json_hex_values(self):
        proc = run("sequence", "--a", "-98", "--n", "16")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["status"] == "complete"
        fs = f_sequence(-98, 16)
        thetas = theta(fs)
        assert any(isinstance(row["pn0"], str) for row in doc["rows"])
        for row in doc["rows"]:
            n = row["n"]
            assert as_int(row["f"]) == fs[n - 1]
            assert as_int(row["theta"]) == thetas[n - 1]
            assert as_int(row["pn0"]) == (-98) ** (2 ** (n - 1)) * fs[n - 1]

    def test_sequence_text_hex_values(self):
        proc = run("sequence", "--a", "-98", "--n", "16", "--output", "text")
        assert proc.returncode == 0
        fs = f_sequence(-98, 16)
        thetas = theta(fs)
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == 16
        for n, line in enumerate(lines, start=1):
            cells = dict(cell.split("=", 1) for cell in line.split("  "))
            assert int(cells["n"]) == n
            for key, want in (("f", fs[n - 1]), ("theta", thetas[n - 1])):
                text = cells[key]
                got = int(text, 16) if "0x" in text else int(text)
                assert got == want
                assert ("0x" in text) == (want.bit_length() > DECIMAL_SAFE_BITS)

    def test_rigid_check_depth_12(self):
        proc = run("rigid-check", "--map", "(z^2-98)/z^2", "--n", "12")
        # 2 and 7 divide the map's resultant and violate rigidity
        assert proc.returncode == 5
        doc = json.loads(proc.stdout)
        assert doc["report"]["status"] == "fail"
        assert {v["prime"] for v in doc["report"]["violations"]} <= {2, 7}

    def test_rigid_check_text_with_wide_terms(self):
        proc = run("rigid-check", "--map", "(z^2-98)/z^2", "--n", "12",
                   "--exclude", "2,7", "--output", "text")
        assert proc.returncode == 0
        first = proc.stdout.decode().splitlines()[0]
        assert first.startswith("terms: [-98, 9604, ") and "0x" in first

    def test_orbit_escaping_past_the_bound(self):
        # the escaped point of 3 under z^7 + 1 is wider than the bound
        proc = run("orbit", "--map", "z^7+1", "--start", "3")
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)["orbit"]
        assert rec["status"] == "escaped"
        x = 3
        for point in rec["points"][1:]:
            x = x ** 7 + 1
            assert as_int(point if point.startswith("0x") else int(point)) == x
        assert rec["points"][-1].startswith("0x")

    def test_normal_form_with_a_wide_rational(self):
        # a = 1/c^3 has a 38040-bit denominator; c itself has 3817 digits, which
        # the parser accepts
        c = 3 ** 8000
        args = ("normal-form", "--map", f"({int_text(c)}z^2+1)/z^2")
        proc = run(*args)
        assert proc.returncode == 0
        a = json.loads(proc.stdout)["normal_form"]["a"]
        num, den = a.split("/")
        assert num == "1" and den.startswith("0x")
        assert Fraction(int(num, 0), int(den, 0)) == Fraction(1, c ** 3)
        proc = run(*args, "--output", "text")
        assert proc.returncode == 0
        assert proc.stdout.decode().startswith("normal form: bicritical(a = 1/0x")

    def test_stdout_is_stable_across_runs(self):
        args = ("certify", "--a", "-98", "--depth", "15")
        assert run(*args).stdout == run(*args).stdout


# sha256 of stdout under schema arbordyn/6, so that any change to the bytes of
# these payloads shows.
PINNED_STDOUT = [
    (("orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"),
     "3aabd68c2e930fc4c72a83331355eefffbafb2d11ffb20c7bffdd1cb7a3d37bd"),
    (("critical", "--map", "(z^2+2)/(z^2+2z+2)"),
     "e874ab881582be4367ab4748775356405416b54169d9c67174ed2ed2e0aa0c6c"),
    (("normal-form", "--map", "(z^2-98)/z^2"),
     "f01b171162adcb5c3c7045b008af94d066f4bbd544e2624ca0cdf915999ea055"),
    (("sequence", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--factor"),
     "6534120f7a8f453fa6f302e9098d2376381a5fdb1e6a06b5cf1d55bdc9a82ed2"),
    (("sequence", "--a", "-98", "--n", "5"),
     "0296fb4b1f4c0eb5d6adc928eddb82512207235bd66a26112cfcc41e361e23a4"),
    (("certify", "--m", "2", "--depth", "8"),
     "5134d89c117ec0ed097a9f6af7c923870ba1a3d72d803ed50f0b028c023c1db8"),
    (("certify", "--a", "-98", "--depth", "8"),
     "e21d4e7c03f72193e857f7f07365a3c92e8887db79968b5ab415cd7ba3855b2b"),
    (("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2", "--n", "8"),
     "acb6fe09399a11a2bf071e1e2fe9a1964420da6410d3bd8518eca5e41b53ee68"),
    # widest values just below the bound: p_11(0) (13599 bits), and f_13
    # (13598 bits), which the certificate reads only mod 4 and mod q
    (("certify", "--a", "-998", "--depth", "12"),
     "03ad76d6485fbccc238637910088bcab6d98090c30f9d14f325d6cea4d823028"),
    (("sequence", "--a", "-998", "--n", "11"),
     "b2dfeacee38808095b03ec1a9ffec283367fc1b9bc4ad89a21b02e3de585fd43"),
    # quadratic conjugator entries, and a collision value in Q(sqrt 2) with y = 0
    (("normal-form", "--map", "(z^2+2)/(z^2+2z+2)"),
     "a46bb996e87a55610232a923c1ed6f1fb15d864c6dd401a07663c11049176ba9"),
    (("critical", "--map", "(z^2+1)/(2z)"),
     "ac6c9450dd608c52c28e0d298d9082b7f5b6ecd0bd6adc445f3e9799ebe1689c"),
    # Q(sqrt 5), no relation found
    (("normal-form", "--map", "(z^2-2z)/(z^2+1)"),
     "68ac3bbbedfb482f8f6e6cf92553eac12317285bdfc4ca71de2396ebf9a97c42"),
    (("certify", "--m", "5", "--depth", "3"),
     "e9727c638e253ab320834e8e28a168a38592aebfaad0bbdf4c94a32231d5920a"),
    # --output text of the README commands; "conjugator mu: {...}" is a dict repr
    (("orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6", "--output", "text"),
     "fdc9e58402bfb3403fd881d6f41396a494b2022061387794a32796646b1e4c4b"),
    (("critical", "--map", "(z^2+2)/(z^2+2z+2)", "--output", "text"),
     "41b9bf2f12c5bdea51a16e904b58447c9357b85e4225ec1e9d7a9e12c385c83a"),
    (("normal-form", "--map", "(z^2-98)/z^2", "--output", "text"),
     "d84ed389ff84a53a4d400000843e6c20014a1f2625c09879160b8d4abbb78fc4"),
    (("sequence", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--factor", "--output", "text"),
     "ad84edc469a59b751071469262fe04ec2cb3efa3af88037bca5d8df320508610"),
    (("sequence", "--a", "-98", "--n", "5", "--output", "text"),
     "8e4bf8e89998ca3f6117fbfdb12bffa9ccc7b107856051e5965eaab27c8c7817"),
    (("certify", "--m", "2", "--depth", "8", "--output", "text"),
     "46f6dfc2423d8ec25e1375318afaef13fdacb7c32804a17572ca2566f89f9fc4"),
    (("certify", "--a", "-98", "--depth", "8", "--output", "text"),
     "e1564e63fc94e527b01ac2bc4e7d1675326d13d6e7ff6a08cfe9285ac0445a1a"),
    (("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2", "--n", "8",
      "--output", "text"),
     "ef6200d663175c50f1bce1e39912b445b3f0fde1a6a975d0af20a0f871a61b1c"),
    # deep levels, whose f_(n+1) is hundreds of thousands of bits wide
    (("certify", "--a", "-998", "--depth", "18"),
     "ee29b6f25b6ea7b181527d9641cae8ca61618b08f7ad2bb80bf7b861aa150d05"),
    (("certify", "--m", "-3", "--depth", "18"),
     "93abd6c7e7a8f3c7a4b3c2753f0c3c9a88e67b05e5a1708c898c5a7e24c52e53"),
    (("sequence", "--a", "-502", "--n", "16"),
     "38ff2c69bbe5d026f9ab7bcf3e79099ded276f63266a92825d219dc1ae6e4b24"),
    (("certify", "--a", "-98", "--depth", "14", "--output", "text"),
     "21e2a5b98acdc9558411b3ed2020ae722998b3c11d31f040a06a32a5669ce54a"),
]

# Exit codes of the pinned commands that do not exit 0.
PINNED_EXIT = {("certify", "--m", "5", "--depth", "3"): 4}


@pytest.mark.parametrize("args,digest", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_pinned_stdout(args, digest):
    proc = run(*args)
    assert proc.returncode == PINNED_EXIT.get(args, 0)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestBudgets:
    def test_rigid_check_applies_growth_cap(self):
        proc = run("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "12",
                   "--growth-cap-bits", "100")
        assert proc.returncode == 1
        assert proc.stdout == b""
        err = proc.stderr.decode().splitlines()
        assert len(err) == 1 and "growth cap" in err[0]



@pytest.mark.parametrize("term", ["7" * 4400 + "z", "z^" + "7" * 4400],
                         ids=["coefficient", "exponent"])
def test_coefficient_past_digit_limit_exits_two(term):
    proc = run("orbit", "--map", f"z^2+{term}", "--start", "0")
    assert proc.returncode == 2 and proc.stdout == b""
    lines = proc.stderr.decode().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "4300-digit limit" in lines[0]
