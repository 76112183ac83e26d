"""Golden outputs of orbit, critical, normal-form and rigid-check on a fixed table.

Each row is a command line, the sha256 of its stdout and its exit code, as
the evaluator that used Fraction Horner steps printed them; the normal forms
of dense conjugates and of degree 500 were printed by the pipeline that
expanded the conjugate in full, and the rigid-check rows by the one that
decided good reduction by a degree and gcd test over F_p.  Any evaluator of
points of P^1 must reproduce every row byte for byte, and every JSON payload
of the table is written as ``json.dumps(doc, sort_keys=True, indent=2)``
writes it.
"""

import hashlib
import json
import math

import pytest

from arbordyn import cli
from arbordyn.cli import main


def _poly_text(cs: list[int]) -> str:
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        if cs[k]:
            var = "" if k == 0 else "z" if k == 1 else f"z^{k}"
            terms.append(f"{'-' if cs[k] < 0 else '+'}{abs(cs[k])}{var}")
    return "".join(terms).lstrip("+")


def dense_conjugate_text(d: int) -> str:
    """mu . phi . mu^-1 for phi = (z^d+5)/(z^d+3) and mu = (2z-1)/(z+3), in
    integer arithmetic: mu^-1 = (3z+1)/(2-z), so the pair is M.(P, Q) at
    (3z+1, 2-z) with M = (2, -1; 1, 3)."""
    zd = [math.comb(d, k) * 3 ** k for k in range(d + 1)]                # (3z+1)^d
    wd = [math.comb(d, k) * (-1) ** k * 2 ** (d - k) for k in range(d + 1)]  # (2-z)^d
    p = [x + 5 * y for x, y in zip(zd, wd)]
    q = [x + 3 * y for x, y in zip(zd, wd)]
    num = [2 * x - y for x, y in zip(p, q)]
    den = [x + 3 * y for x, y in zip(p, q)]
    return f"({_poly_text(num)})/({_poly_text(den)})"

ROWS = [
    # degree 2, rational critical points: the family, collisions at -1/2 and
    # 5/14, an orbit through infinity
    (["critical", "--map", "(z^2-98)/z^2"],
     "55ec33503321e26ffb912443d5b458f2c2ef2d7b335dd042682dbbb10c2b812a", 0),
    (["normal-form", "--map", "(z^2-98)/z^2"],
     "6bcaf4c325759d82f71b8d98e8c1e3d30731cb19767ab9283159a26df7d88fda", 0),
    (["critical", "--map", "(z^2-3)/(z^2+3)"],
     "29230d0bde3c460b0cc54e6629cae85d27714b3de9afc5bd1d631ffc67133c24", 0),
    (["normal-form", "--map", "(z^2-3)/(z^2+3)"],
     "d81a8037b757b08d9d27e08495638bb809ec770d16209fcdd892a285a9e25b5a", 0),
    (["critical", "--map", "(z^2-z-2)/(-2z^2+2z-2)"],
     "48ea7d37d381db55c41ad3b1f635e2c0bff60efc324f7ae9789d3e48b0010ac9", 0),
    (["normal-form", "--map", "(z^2-z-2)/(-2z^2+2z-2)"],
     "bbfaa1e8b29261b72bc63cd5e0dff26c58712c39b7814b75c8b7bfa01c239b9e", 0),
    (["critical", "--map", "(z^2-3z-3)/(z^2)"],
     "705c2df8febaf6e6bd4766efa2ca015a3e7b817c882fa634234c64bbeaa1c9d6", 0),
    (["normal-form", "--map", "(z^2-3z-3)/(z^2)"],
     "855c6a6b51ac2f4c1b5a828904150bfecf2990e9ffbe443ae94483dbe1c80372", 0),
    # quadratic critical fields: a collision, an orbit into the fixed point
    # infinity, a fixed critical point, the power and inverse-power forms, a cubic
    (["critical", "--map", "(z^2+2)/(z^2+2z+2)"],
     "cc44fe1021c6d509459c07263259ed6febe1e1c2ccb2b1bcbd7de69247910902", 0),
    (["normal-form", "--map", "(z^2+2)/(z^2+2z+2)"],
     "edcd938e4f722f4f430e221f4b71e2c954a00d1e7a0b294dcc58fa18a8c7f8eb", 0),
    (["critical", "--map", "(z^2+1)/(-2z-2)"],
     "112167f61a415fd3488d49e3885d148986771efc8eed8832c2bf7d9f51e63cb3", 0),
    (["normal-form", "--map", "(z^2+1)/(-2z-2)"],
     "83d64e05db30511d207df595af0574631ce6b13018cd04ca1b0b0d4225caf7ac", 0),
    (["critical", "--map", "(z^2-3)/(2z-3)"],
     "eccbd2dac81a6980d41391dac9e7f4d0bbc8cfd334ffa77b37229525f33c9de5", 0),
    (["normal-form", "--map", "(z^2-3)/(2z-3)"],
     "016759c0a62d8e5f707634d9c71d0e407587c1aa6583a0e36684c2b1d9309c9f", 0),
    (["critical", "--map", "(z^2+2)/(2z)"],
     "e30da4b5c851f3e9da24fadca5f0b944b72e90e2b367e6bccb4f255ea43a69a4", 0),
    (["normal-form", "--map", "(z^2+2)/(2z)"],
     "cbae4978459e3125e2adc1efe5fa0624c3e923c40bb9b17e60974df76a170657", 0),
    (["critical", "--map", "(z^2-4z+2)/(z^2-2z+2)"],
     "58526d1410b8705f7af57e726938a5b90f888bf9955f896392dfda08230c60fb", 0),
    (["normal-form", "--map", "(z^2-4z+2)/(z^2-2z+2)"],
     "d31d88e3afc862e3cc7705ff6cd94e877a1253ee6fe6606922076e193f27a75e", 0),
    (["critical", "--map", "(z^3+6z)/(3z^2+2)"],
     "e0179c8deec085284b990b508aa291161b55fd05b04f3af4f45bc45c04e0c881", 0),
    (["normal-form", "--map", "(z^3+6z)/(3z^2+2)"],
     "f938009b1d9e36e6998524e588ae206b65f943257fbb58e0aa54ffd58e98b569", 0),
    # a quadratic critical orbit through a pole, on to a finite point
    (["critical", "--map", "(z^2-2z+3)/(z^2+2z-1)"],
     "2caee0a425ed6d5c71a7fe9b6926b4c11145192de4cea160bee5497c7f367c41", 0),
    (["normal-form", "--map", "(z^2-2z+3)/(z^2+2z-1)"],
     "b2ddbc14d6fe2a09f0a4848328db0afefda7f57e9b9d93680b343f2d3f25024f", 0),
    # two-term maps (z^d+a)/(z^d+b) of degree 3, 7, 20 and 50
    (["critical", "--map", "(z^3+5)/(z^3+3)"],
     "70e7fd683927ab1d0d70d67ee22e74f7cd34a417eaf6850877aad1d39bcbf5af", 0),
    (["normal-form", "--map", "(z^3+5)/(z^3+3)"],
     "8a06b1b8254035e7f241f7cf33c20c94508004dc6f1fe4b8f2eb0e7188d62d40", 0),
    (["critical", "--map", "(z^7+2)/(z^7-1)"],
     "f8a32bef9d0907dcb77f003988305163f8a69254ec99382201accb1903075f47", 0),
    (["normal-form", "--map", "(z^7+2)/(z^7-1)"],
     "c3c949b5b0f6150939d56541cd368fdba795961408547563cadc2aae8a7d1682", 0),
    (["critical", "--map", "(z^20+5)/(z^20+3)"],
     "fecaffb0a801c95d07e86be87e72efa043dcf7d35ab24f8490ef9e8d435ad298", 0),
    (["normal-form", "--map", "(z^20+5)/(z^20+3)"],
     "a02b82895da3eeffd95a467643319414cb70b52e5c9b43a4390d73fdd9a31820", 0),
    (["critical", "--map", "(z^50-2)/(z^50+7)"],
     "6ae548fa2c0e8ce3fb41fdeac455ff992881679cf558b45c8910454d3eeba391", 0),
    (["normal-form", "--map", "(z^50-2)/(z^50+7)"],
     "58fc0360e92bff37e83065de940fcf473615ed12e82ba8012338ee194465ceae", 0),
    # orbits of the two-term maps from 1
    (["orbit", "--map", "(z^3+5)/(z^3+3)", "--start", "1", "--steps", "3"],
     "80d575eb25fa4eec28e97ab1039623487964d32b34e4af5938ccca4018eac94a", 0),
    (["orbit", "--map", "(z^7+2)/(z^7-1)", "--start", "1", "--steps", "3"],
     "a940b5be14fe8bd841e430b226ef5ea15c18025c57d974ecef8aa9c1567971c9", 0),
    (["orbit", "--map", "(z^20+5)/(z^20+3)", "--start", "1", "--steps", "3"],
     "a0780d0630b394e99f9916cbcf25e6d532b7e1a58b585b73f29f084841a96a42", 0),
    (["orbit", "--map", "(z^50-2)/(z^50+7)", "--start", "1", "--steps", "3"],
     "969b49b988934b93884f134007f9bfc7d070866e313ce23a315fadc4f4c8b8d3", 0),
    # escaping orbits, under the default and a small height cap
    (["orbit", "--map", "(z^3+5)/(z^3+3)", "--start", "2", "--steps", "30"],
     "082d0c3c1e93aef1c1b6292bee466772bfc43fc5c38b307500534dfa02781ecb", 0),
    (["orbit", "--map", "(z^7+2)/(z^7-1)", "--start", "1/2", "--steps", "9", "--height-cap-bits", "100"],
     "bbbbdb801b9ec4216d7a7a0538b37e36a2823f6081e65632eafa062dc030fd52", 0),
    # preperiodic orbits, one through infinity, and an orbit from infinity that
    # runs out of steps
    (["orbit", "--map", "z^2-2", "--start", "0"],
     "26196b4d8e7a12f26a27b0b3a2dc9f8356de835c2ffaac924d4677771b8fc67d", 0),
    (["orbit", "--map", "1/z^2", "--start", "0"],
     "065a85200d2651e1a5eb15a6ae9da03b6cdcebf6b4b6e52db6d9e2e0dcc95dc1", 0),
    (["orbit", "--map", "(z^2-98)/z^2", "--start", "inf", "--steps", "5"],
     "429214f8211f5e6e0bb77b8f76c84f126019d6a5d14be43b8b92315d238e5d78", 0),
    # text output, and a height-capped search
    (["critical", "--map", "(z^2-3)/(z^2+3)", "--output", "text"],
     "566f14c8002d3ce4a0bf60b56dc4025de28e5e8c661092a601ad533c710a770f", 0),
    (["normal-form", "--map", "(z^2+2)/(z^2+2z+2)", "--output", "text"],
     "15ebfaa3d3d161afb021b94475c7079f2859d8654ae0f190321ec52c7d6537a1", 0),
    (["critical", "--map", "(z^2-3z-3)/(z^2)", "--bound", "3", "--height-cap-bits", "40"],
     "2f1bb93e0b7956307d839c20baf9fffcbc94102eff0366e4f68ff6f5eeac0441", 0),
    # normal forms of dense conjugates of (z^d+5)/(z^d+3), and of degree 500
    (["normal-form", "--map", dense_conjugate_text(5)],
     "7aafa928c3e19875aa110f984be37aa090614170640a512a6145e8d24abc3a47", 0),
    (["normal-form", "--map", dense_conjugate_text(12)],
     "34ee302882ba0f22df10ac742e052c52abeb7ebb352d1e78e6c0af227bc47afb", 0),
    (["normal-form", "--map", dense_conjugate_text(25)],
     "1b945268b16e6e6648cbc13e2203a90cd3125f2933814158225bf8c4143a62fb", 0),
    (["normal-form", "--map", dense_conjugate_text(60)],
     "9377638f0c7bc57d8155ef1963583f53d6302fe91213d4114ca5d55eef88ee87", 0),
    (["normal-form", "--map", "(z^500+5)/(z^500+3)"],
     "471beeb3ee1bdba20525e64d98d566fa07c5eea827106c8ae74d2869e8803fee", 0),
    # bad reduction: a degree drop at 2, a numerator that vanishes mod 7, a
    # common root mod 2, a cubic bad at 3, and a map bad at 2, 3 and 11
    (["rigid-check", "--map", "(2z^2+1)/(2z^2+3)", "--n", "6", "--rho-budget", "2000"],
     "a7127a13dbd7fc8928f19bf0465cf8389103e382f5b6bd3ed2b7567036da923f", 0),
    (["rigid-check", "--map", "(7z^2+49)/(z^2+14)", "--n", "6", "--rho-budget", "2000"],
     "6394b450d61d79bb8a12a3bc5b2a6d309dbbe0501ef28dd6bf8edde5e6528a6f", 5),
    (["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6", "--rho-budget", "2000"],
     "df851309b49ceab37f561e1c2ec12205c0769ea4e2d192ea205753a8a46fabf2", 5),
    (["rigid-check", "--map", "(z^3+2)/(z^3+5)", "--n", "6", "--rho-budget", "2000"],
     "df5ba2e35403126437b09ac177da4e2a8b0705df408b3f4ad89861928bd4217a", 5),
    (["rigid-check", "--map", "(z^2+2z+3)/(3z^2-2z-1)", "--n", "6", "--rho-budget", "2000"],
     "a6a97af7b9172df44d0e76fa61254b6520a9c81edf5413f795e2054e7be12e17", 5),
]


def _row_id(argv: list[str]) -> str:
    """The command line, with a long map abbreviated to its head and length."""
    return " ".join(a if len(a) <= 60 else f"{a[:24]}...[{len(a)} chars]" for a in argv)


@pytest.mark.parametrize("argv, digest, code", ROWS, ids=[_row_id(a) for a, _, _ in ROWS])
def test_output_is_byte_identical(argv, digest, code, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest, code", ROWS, ids=[_row_id(a) for a, _, _ in ROWS])
def test_payload_is_written_as_json_dumps_writes_it(argv, digest, code, capsys, monkeypatch):
    written, json_text = [], cli.json_text

    def checked(doc):
        text = json_text(doc)
        written.append(text == json.dumps(doc, sort_keys=True, indent=2))
        return text

    monkeypatch.setattr(cli, "json_text", checked)
    assert main(argv) == code
    capsys.readouterr()
    assert written == ([] if "text" in argv else [True])
