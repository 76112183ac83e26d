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
        thetas = theta(fs)
        wide = 0
        for lvl in levels[1:]:
            n = lvl["n"]
            irr, wit = lvl["irreducibility"]["witness"], lvl["theta"]
            assert lvl["verdict"] == "maximal"
            if fs[n].bit_length() <= DIGEST_BITS:
                assert irr["value"] == fs[n] and wit["value"] == thetas[n]
                assert wit["strict_bracket"] and "route" not in wit
                continue
            # recomputed from the exact f and theta, which the command never builds
            wide += 1
            assert irr == {"modulus": 4, "residue": 3} and fs[n] % 4 == 3
            q, r = wit["q"], wit["r"]
            assert wit == {"route": "residue", "index": n + 1, "q": q, "r": r}
            assert q % 4 == 1 and -98 % q and is_probable_prime(q)
            assert thetas[n] % q == r and pow(r, (q - 1) // 2, q) == q - 1
        assert wide == 6

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


# sha256 of stdout under schema arbordyn/5, so that any change to the bytes of
# these payloads shows.
PINNED_STDOUT = [
    (("orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"),
     "a531a0b07d2ab8b2986508397d6540d5c5d13e0125d18ad8f775c25a8b380cec"),
    (("critical", "--map", "(z^2+2)/(z^2+2z+2)"),
     "bcab4eb3c7d89b338210ef163f1d4d324d550c601dff157ded2bdb858f7400fb"),
    (("normal-form", "--map", "(z^2-98)/z^2"),
     "7397971193c6fe027b87951bcb2430ae0d4dd384a199cf423a7213852fe2c902"),
    (("sequence", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--factor"),
     "c2f90645720dd274db091e556c4605ef49476e4c194d1e861c6abfc795b3e769"),
    (("sequence", "--a", "-98", "--n", "5"),
     "1977a6c4c435fc8615d07a7a386715d31a5dc5876c02523971cdfc52be8acd13"),
    (("certify", "--m", "2", "--depth", "8"),
     "8a690652749189b3d952ef541be3769cfefff371e73597e9a4930553c10aeb18"),
    (("certify", "--a", "-98", "--depth", "8"),
     "70e7bd5e3ef92d86961a3d4b5c03a1069081d0805135542601afdb0256db4ce4"),
    (("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2", "--n", "8"),
     "a3fbc97a86f04218aceecee48d66ee18860a04b31863591ae4bc3631f17e64b3"),
    # widest values just below the bound: p_11(0) (13599 bits); f_12 and f_13
    # are past DIGEST_BITS, so levels 11 and 12 are in the residue band
    (("certify", "--a", "-998", "--depth", "12"),
     "c0e77f68b50c234b6b7fc752f2da8111da0f30197d22a872363aaece35321eed"),
    (("sequence", "--a", "-998", "--n", "11"),
     "d9caed328cff46a38898c8b64fecfe3d1192c1900c954e969e59b3c104d2dda6"),
    # quadratic conjugator entries, and a collision value in Q(sqrt 2) with y = 0
    (("normal-form", "--map", "(z^2+2)/(z^2+2z+2)"),
     "f210c6ccd36ea4260cdc4272b63735e0294b0e80b98c82a904444e629533ffe8"),
    (("critical", "--map", "(z^2+1)/(2z)"),
     "2c5cd9c3cf411935a0b612d1e7d5825c5b7bbcd651a9a560b5db591ce0b50954"),
    # Q(sqrt 5), no relation found
    (("normal-form", "--map", "(z^2-2z)/(z^2+1)"),
     "d083109da65dbc6241ec68850b3174b59582202b8a60eae7859ad7feb5bb02b7"),
    (("certify", "--m", "5", "--depth", "3"),
     "a81bfc028216b043dc623f8e23d907d1f17cca352d1f693826c619b6f6de140e"),
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
    # the residue band: deep levels, whose f_(n+1) is past DIGEST_BITS
    (("certify", "--a", "-998", "--depth", "18"),
     "688d761f53e77817481d371a6e5ef85e7e1132171a12c7215fb32c50a125ca6b"),
    (("certify", "--m", "-3", "--depth", "18"),
     "69255f3a0b10070c3670af7f21b1f4ac7fa9dfbc5fc9cd15bfab51626f409d27"),
    (("sequence", "--a", "-502", "--n", "16"),
     "c725217dc632bf3eb8f8abb3035cab016aa957af203a12794e0b6f3e1448b509"),
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
