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
     "f9033e0d63d2106281b0a621f2d20f7375bc6e3a29aa87f0a9261e1d59317b18", 0),
    (["normal-form", "--map", "(z^2-98)/z^2"],
     "f01b171162adcb5c3c7045b008af94d066f4bbd544e2624ca0cdf915999ea055", 0),
    (["critical", "--map", "(z^2-3)/(z^2+3)"],
     "694cef83d3a15a8dd24265ae5e53a47a3f92d77b12d44709159f0c914dd9363b", 0),
    (["normal-form", "--map", "(z^2-3)/(z^2+3)"],
     "b1e8168925f0dd27583f05c41cfeb27c18d9547bc3b98c899fba8cf6ca4a1dd6", 0),
    (["critical", "--map", "(z^2-z-2)/(-2z^2+2z-2)"],
     "54a983c7fcfb75613ab3f898be5ecc302b3c78f62f254d5fb25c40ba83784cbc", 0),
    (["normal-form", "--map", "(z^2-z-2)/(-2z^2+2z-2)"],
     "22bd2c1c2d9dde8c8a639a88337de17aa3dbf2d48691948fa541b983839a7ff5", 0),
    (["critical", "--map", "(z^2-3z-3)/(z^2)"],
     "324c4fb5df028dffddca9ca2aca20a7711249291892bc32a00d527540da771bb", 0),
    (["normal-form", "--map", "(z^2-3z-3)/(z^2)"],
     "508ca039c9f5edb2a60de8816cfc480af2b75491d778768cabff06e7d8b2dbd0", 0),
    # quadratic critical fields: a collision, an orbit into the fixed point
    # infinity, a fixed critical point, the power and inverse-power forms, a cubic
    (["critical", "--map", "(z^2+2)/(z^2+2z+2)"],
     "e874ab881582be4367ab4748775356405416b54169d9c67174ed2ed2e0aa0c6c", 0),
    (["normal-form", "--map", "(z^2+2)/(z^2+2z+2)"],
     "a46bb996e87a55610232a923c1ed6f1fb15d864c6dd401a07663c11049176ba9", 0),
    (["critical", "--map", "(z^2+1)/(-2z-2)"],
     "eba6f116e55f817970cca3697dfd1052c4ba702308e9dbdf83eb173626ab6379", 0),
    (["normal-form", "--map", "(z^2+1)/(-2z-2)"],
     "3c1afd3f82e3b3d3edd8173442266bf92da884f6d18672fce2fe7886ac7e47d4", 0),
    (["critical", "--map", "(z^2-3)/(2z-3)"],
     "eb10b15cb487a96d1b365dbc558dafb141e5d5554c1e4620e49395b8e05e14b0", 0),
    (["normal-form", "--map", "(z^2-3)/(2z-3)"],
     "bafbabcc1a28ad0b9f72a316dd83ce38bc5b71d396a058efded245cf73a76129", 0),
    (["critical", "--map", "(z^2+2)/(2z)"],
     "a624cb5a384b5062f6ccb5636a9f7df91d9d0a786613b77e5b39aec0d64e487b", 0),
    (["normal-form", "--map", "(z^2+2)/(2z)"],
     "eca6bb1b969b05e2d3c86c446d006e0031ddd317016467a65d479c751d669b8b", 0),
    (["critical", "--map", "(z^2-4z+2)/(z^2-2z+2)"],
     "b3e7260f6919a8446bd4c5a17a49a19b3ae15e8ed6f57f94ac7c1596c19e15c2", 0),
    (["normal-form", "--map", "(z^2-4z+2)/(z^2-2z+2)"],
     "cde0015513e05eb750f9cf17323c511fc3838dfabbd08eecdc71dde69c341fd6", 0),
    (["critical", "--map", "(z^3+6z)/(3z^2+2)"],
     "752944fd5c784fd0637e3eff8da4621e21e605083c89c4c818b2b2dcea92ed84", 0),
    (["normal-form", "--map", "(z^3+6z)/(3z^2+2)"],
     "08f15b65379284d728b155a60591c7f11b88df59689fa6b455c0d1e07002ce52", 0),
    # a quadratic critical orbit through a pole, on to a finite point
    (["critical", "--map", "(z^2-2z+3)/(z^2+2z-1)"],
     "7ccd43b108dadd538f27fc001cdd23f5c50d285d5c19f95a11d29553018b162b", 0),
    (["normal-form", "--map", "(z^2-2z+3)/(z^2+2z-1)"],
     "17192b25e01464025ae32240b9c4cbe3059668c40248ee06a35b006cb2a7377e", 0),
    # two-term maps (z^d+a)/(z^d+b) of degree 3, 7, 20 and 50
    (["critical", "--map", "(z^3+5)/(z^3+3)"],
     "b452ad9978ad5be3097f8b9ab06f11e670cba8a9f12148e1f162e71feec78970", 0),
    (["normal-form", "--map", "(z^3+5)/(z^3+3)"],
     "7e717204db326c9f1fe1a92569c2a0a6eda6aa2d365076d01754c6fbb5e25918", 0),
    (["critical", "--map", "(z^7+2)/(z^7-1)"],
     "9dcc643634aaa73c8bbe9a9dd48f278a4f26d10b7968390205447ef8957c0c6c", 0),
    (["normal-form", "--map", "(z^7+2)/(z^7-1)"],
     "bd6a07b680a828b9323c84cc1a6950e628f478c6ccd32ec49904a76bc69445c7", 0),
    (["critical", "--map", "(z^20+5)/(z^20+3)"],
     "f566fd8a45cb19bcf5d0b069b652004e21f73e83ce835bad94213894dd834f58", 0),
    (["normal-form", "--map", "(z^20+5)/(z^20+3)"],
     "ff1332a251f5d9b1391ac5547019dbf161e7578f01bba3430a9b0ed44a7ce55c", 0),
    (["critical", "--map", "(z^50-2)/(z^50+7)"],
     "9b357c19d8269e87c612ffe8c68107601dc5926a8380ebb2b2ac0f5ea3a6b140", 0),
    (["normal-form", "--map", "(z^50-2)/(z^50+7)"],
     "a46659463880bb94db5c28a3bb56530b3ad555a442993f7a7e0df2b981d89074", 0),
    # orbits of the two-term maps from 1
    (["orbit", "--map", "(z^3+5)/(z^3+3)", "--start", "1", "--steps", "3"],
     "927e85d459945f31b6ef2f9485d4258e3ec42795018f0c65cdd36ea85ddc0590", 0),
    (["orbit", "--map", "(z^7+2)/(z^7-1)", "--start", "1", "--steps", "3"],
     "346627cb8e565d4700b6a992a1841bb49ce1f061a6074fd08d0d6ca9d504e708", 0),
    (["orbit", "--map", "(z^20+5)/(z^20+3)", "--start", "1", "--steps", "3"],
     "8fe5b7dedfd8c8739a8804d582114019a5486808b38360d6a0e700f21a8f9340", 0),
    (["orbit", "--map", "(z^50-2)/(z^50+7)", "--start", "1", "--steps", "3"],
     "6da2ef63c6029a49e2d53fa2eb8c6be799670eb11551b4615dec0bb9d83d9746", 0),
    # escaping orbits, under the default and a small height cap
    (["orbit", "--map", "(z^3+5)/(z^3+3)", "--start", "2", "--steps", "30"],
     "12cd1cc152a039288b94042dae337f9ca4505e4db339f1d022e939d5c7a36e24", 0),
    (["orbit", "--map", "(z^7+2)/(z^7-1)", "--start", "1/2", "--steps", "9", "--height-cap-bits", "100"],
     "05e99e2ba9032a007cd9ce3a8a084545fd3112b34294db5782ec3743b91b44a9", 0),
    # preperiodic orbits, one through infinity, and an orbit from infinity that
    # runs out of steps
    (["orbit", "--map", "z^2-2", "--start", "0"],
     "cf400d43eba5b11d9e8eb2c23422a7fd6c50150a430ac878ee57144f9ded3a5e", 0),
    (["orbit", "--map", "1/z^2", "--start", "0"],
     "31a0a1903226536bafabf032e16e327866a8ca5bf4ecd4bc1e8666d052645873", 0),
    (["orbit", "--map", "(z^2-98)/z^2", "--start", "inf", "--steps", "5"],
     "9b4b2f734818a75e906ee2ae6ae3048ad9b8bfd9d9d665b95d544ef48e70edcf", 0),
    # text output, and a height-capped search
    (["critical", "--map", "(z^2-3)/(z^2+3)", "--output", "text"],
     "566f14c8002d3ce4a0bf60b56dc4025de28e5e8c661092a601ad533c710a770f", 0),
    (["normal-form", "--map", "(z^2+2)/(z^2+2z+2)", "--output", "text"],
     "15ebfaa3d3d161afb021b94475c7079f2859d8654ae0f190321ec52c7d6537a1", 0),
    (["critical", "--map", "(z^2-3z-3)/(z^2)", "--bound", "3", "--height-cap-bits", "40"],
     "1cefa5408a86d61ed02b916b9bfb95a4f7ddc534b8b538b83ed33c66947b6f72", 0),
    # normal forms of dense conjugates of (z^d+5)/(z^d+3), and of degree 500
    (["normal-form", "--map", dense_conjugate_text(5)],
     "e6f5c44b4d9d4dfa33619e19e3482d606227789a328b6cf5ce2542ae9d720470", 0),
    (["normal-form", "--map", dense_conjugate_text(12)],
     "a78244ab13f8ab674451a4dea0149469e43042dd27fdd919c0cc8bee82f3d6ad", 0),
    (["normal-form", "--map", dense_conjugate_text(25)],
     "9b3c2b03c646dd6bdf62c7c224d3a5056e598efa56aaf344d905f869a4024173", 0),
    (["normal-form", "--map", dense_conjugate_text(60)],
     "fa6d1c52505c48248b91bd33b30ffdfd482d65ba1945e55469b028524510e2f2", 0),
    (["normal-form", "--map", "(z^500+5)/(z^500+3)"],
     "916dc561adfd38c0ae29136838d29c3edbff8c6b06cd1ebede12c693f841f3f5", 0),
    # bad reduction: a degree drop at 2, a numerator that vanishes mod 7, a
    # common root mod 2, a cubic bad at 3, and a map bad at 2, 3 and 11
    (["rigid-check", "--map", "(2z^2+1)/(2z^2+3)", "--n", "6", "--rho-budget", "2000"],
     "de94b10a0b74819d0f6f041f37848f46ceade35cafe5407c90573d10804656eb", 0),
    (["rigid-check", "--map", "(7z^2+49)/(z^2+14)", "--n", "6", "--rho-budget", "2000"],
     "0b413d0f896baf95575584aa67adcb1858cf973d620a4ce04e8168b0d3531a55", 5),
    (["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6", "--rho-budget", "2000"],
     "61aeebce83f5cdd08ac9fb7cc973d4bd0b310dd27066aa4229e6145aa02fb9e0", 5),
    (["rigid-check", "--map", "(z^3+2)/(z^3+5)", "--n", "6", "--rho-budget", "2000"],
     "5f362b9623962c7ba78793381ae88cf1b670189b9f7d73847f8bb44c23fe4153", 5),
    (["rigid-check", "--map", "(z^2+2z+3)/(3z^2-2z-1)", "--n", "6", "--rho-budget", "2000"],
     "c4a515ee893bce3599951455cb864e2e9b33105e226b8f3b7986fd08733ff8f5", 5),
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
