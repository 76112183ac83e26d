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
from arbordyn.factorint import DECIMAL_SAFE_BITS, int_text
from arbordyn.galois import DIGEST_BITS

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
        wide = 0
        for lvl in levels[1:]:
            n = lvl["n"]
            for wit, value in ((lvl["irreducibility"]["witness"], fs[n]),
                               (lvl["theta"], theta(-98, n + 1, fs))):
                assert wit["bits"] == value.bit_length()
                if value.bit_length() <= DIGEST_BITS:
                    assert "sha256_be" not in wit
                    continue
                wide += 1
                mag = abs(value)
                raw = mag.to_bytes((mag.bit_length() + 7) // 8, "big")
                assert wit["sha256_be"] == hashlib.sha256(raw).hexdigest()
                assert wit["leading_hex"] == format(mag, "x")[:24]
                assert not {"sha256", "digits", "leading_digits", "isqrt_digits",
                            "isqrt_leading"} & set(wit)
        assert wide > 0

    def test_sequence_json_hex_values(self):
        proc = run("sequence", "--a", "-98", "--n", "16")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["status"] == "complete"
        fs = f_sequence(-98, 16)
        assert any(isinstance(row["pn0"], str) for row in doc["rows"])
        for row in doc["rows"]:
            n = row["n"]
            assert as_int(row["f"]) == fs[n - 1]
            assert as_int(row["theta"]) == theta(-98, n, fs)
            assert as_int(row["pn0"]) == (-98) ** (2 ** (n - 1)) * fs[n - 1]

    def test_sequence_text_hex_values(self):
        proc = run("sequence", "--a", "-98", "--n", "16", "--output", "text")
        assert proc.returncode == 0
        fs = f_sequence(-98, 16)
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == 16
        for n, line in enumerate(lines, start=1):
            cells = dict(cell.split("=", 1) for cell in line.split("  "))
            assert int(cells["n"]) == n
            for key, want in (("f", fs[n - 1]), ("theta", theta(-98, n, fs))):
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


# sha256 of stdout under schema arbordyn/2, so that any change to the bytes of
# these payloads shows.
PINNED_STDOUT = [
    (("orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"),
     "c5ba27e81d6cc5fd324b3614e6929f1b15278e0b84732842679e3304022b8703"),
    (("critical", "--map", "(z^2+2)/(z^2+2z+2)"),
     "d8ee8db753355dbd5946e1daba8b180238170c9d5602cda5fbfe995a117bb37b"),
    (("normal-form", "--map", "(z^2-98)/z^2"),
     "f219d9e9c24aabbc4847c6e2a465cf82c677edd380ac1e4658160080bf905ada"),
    (("sequence", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--factor"),
     "4c8801bf10e7038a88d028f3cba010c3a7f35208c5ac705970c19f9f4675dc86"),
    (("sequence", "--a", "-98", "--n", "5"),
     "99915ec73b3884b2cc5ba1efb7312f41cea9c08522a1db248b4decaa0de4e4ba"),
    (("certify", "--m", "2", "--depth", "8"),
     "f326c86ad114a47471508ae81420f32e9df841dd9fe34690d867244f270d76ee"),
    (("certify", "--a", "-98", "--depth", "8"),
     "d492da02e2f19e18d0f10e2b20c0cf9afd0ea8547dd64a71315a4b188f90a259"),
    (("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2", "--n", "8"),
     "a32efe815dec078d3f1a43b45d043dd9b441fe3da74f94846cd4f93d619985b2"),
    # widest values just below the bound: f_13 (13598 bits), p_11(0) (13599 bits)
    (("certify", "--a", "-998", "--depth", "12"),
     "2e4fbe6f3c505dfaa49d76576ce40acc3f41ae8f92d9df38f65a55dae28ee0ab"),
    (("sequence", "--a", "-998", "--n", "11"),
     "79f82fc6315b13afc1abce99d6c3db158b8ab40a06a20dcc36f50cc5e0850875"),
    # quadratic conjugator entries, and a collision value in Q(sqrt 2) with y = 0
    (("normal-form", "--map", "(z^2+2)/(z^2+2z+2)"),
     "33f24879b5ba82357d77c4c644a56c2b4167db4c8586b32b4445bef52e5ee9f1"),
    (("critical", "--map", "(z^2+1)/(2z)"),
     "ecf3fc12145430e616271b5a7592f6b4458c219f7b7b910e3a6c16ce5e749305"),
    # Q(sqrt 5), no relation found
    (("normal-form", "--map", "(z^2-2z)/(z^2+1)"),
     "82bd895e52ee43f9a7b5c1174e3c6d821f529edc6da27d4727a0b468dfb9c3a7"),
    (("certify", "--m", "5", "--depth", "3"),
     "ef7a425ed1ecf8d8c9670c842cbe10d0dd3b399c319e435fe68ab4352b9c7d42"),
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
]

# Exit codes of the pinned commands that do not exit 0.
PINNED_EXIT = {("certify", "--m", "5", "--depth", "3"): 4}


@pytest.mark.parametrize("args,digest", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_pinned_stdout(args, digest):
    proc = run(*args)
    assert proc.returncode == PINNED_EXIT.get(args, 0)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestBudgets:
    def test_certify_applies_growth_cap(self):
        proc = run("certify", "--a", "-98", "--depth", "12", "--growth-cap-bits", "100")
        assert proc.returncode == 1
        assert proc.stdout == b""
        err = proc.stderr.decode().splitlines()
        assert len(err) == 1 and "growth cap" in err[0]

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
