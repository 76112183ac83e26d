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
        thetas = theta(fs)
        wide = 0
        for lvl in levels[1:]:
            n = lvl["n"]
            for wit, value in ((lvl["irreducibility"]["witness"], fs[n]),
                               (lvl["theta"], thetas[n])):
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


# sha256 of stdout under schema arbordyn/3, so that any change to the bytes of
# these payloads shows.
PINNED_STDOUT = [
    (("orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"),
     "5177196208722ddc408672989b3c9f7fc98670aecd364f05315b7d38e9f41e61"),
    (("critical", "--map", "(z^2+2)/(z^2+2z+2)"),
     "cc44fe1021c6d509459c07263259ed6febe1e1c2ccb2b1bcbd7de69247910902"),
    (("normal-form", "--map", "(z^2-98)/z^2"),
     "6bcaf4c325759d82f71b8d98e8c1e3d30731cb19767ab9283159a26df7d88fda"),
    (("sequence", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--factor"),
     "c90363c0c7b33fbdc1139a1e9cd1a6973bebe82d3a568754d223908533bc498f"),
    (("sequence", "--a", "-98", "--n", "5"),
     "079b7edddc38b5c367685ba71e0218069fc5d087a645d21f3ca33a5d433cdd6f"),
    (("certify", "--m", "2", "--depth", "8"),
     "08d3af010953843d6fdd7c0160563df5c696009e2c98b4ea66d7913da75ddaa2"),
    (("certify", "--a", "-98", "--depth", "8"),
     "93cf82033592a3d7fa21a0e3a0218d661d19259f0ca65fe80d2e35af2477fdce"),
    (("rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2", "--n", "8"),
     "87820ffccbbc92afa8f4ab4e1a0e1b800a8ab2f3814544e5dff742fb618f6f2e"),
    # widest values just below the bound: f_13 (13598 bits), p_11(0) (13599 bits)
    (("certify", "--a", "-998", "--depth", "12"),
     "7be90af7880b3035bef9145e94a8a69806d7475cae60d3f72a1dcc0db0728733"),
    (("sequence", "--a", "-998", "--n", "11"),
     "932a5c421cf40451a540568c7541076f93a62495f676b9a08a4243f21d6d1fa0"),
    # quadratic conjugator entries, and a collision value in Q(sqrt 2) with y = 0
    (("normal-form", "--map", "(z^2+2)/(z^2+2z+2)"),
     "edcd938e4f722f4f430e221f4b71e2c954a00d1e7a0b294dcc58fa18a8c7f8eb"),
    (("critical", "--map", "(z^2+1)/(2z)"),
     "bd3505d5ba46d52fe2812392e88c962aa19a252c72aec92055d75b3610712e48"),
    # Q(sqrt 5), no relation found
    (("normal-form", "--map", "(z^2-2z)/(z^2+1)"),
     "bc982e79e9bd7a153ca23a98492f6e1aecf65a26661220eae84eea63d5ff7869"),
    (("certify", "--m", "5", "--depth", "3"),
     "4568a1d7af8571404fa741e9ea6289a38fb014d36ff6ba5d8534cc1f9a675798"),
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
    # the digest band: witnesses and theta values past DIGEST_BITS, deep levels
    (("certify", "--a", "-998", "--depth", "18"),
     "f19b71b21ad66521d1ac0ed2826236e4aa80b77bcced58e6e022e202c3eeaaf9"),
    (("certify", "--m", "-3", "--depth", "18"),
     "97ce95a185452aa41066530a4d6e2595184eda7a1d0c3f25d5eb755868edde57"),
    (("sequence", "--a", "-502", "--n", "16"),
     "d732f763cc2b0d4a42a40d50b2e05bea568b65e8e36f7efac844346d59912b9c"),
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
