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
     "54ca2e0661a9d085641e52ccb5a36e332369bbbcf2f040fec2a499dd79f2dcf7", 0),
    (["normal-form", "--map", "(z^2-98)/z^2"],
     "7397971193c6fe027b87951bcb2430ae0d4dd384a199cf423a7213852fe2c902", 0),
    (["critical", "--map", "(z^2-3)/(z^2+3)"],
     "576ad6af25646e977c33688a67e3cf13512680584a2e08cc8525b93c43f9345c", 0),
    (["normal-form", "--map", "(z^2-3)/(z^2+3)"],
     "6c7895f538e09e02b87ffc638e9658ee4c3e32410accafd67d0a2df4fbf34cb3", 0),
    (["critical", "--map", "(z^2-z-2)/(-2z^2+2z-2)"],
     "383fb26a2602414230d7dd35ccc6ef89939a7042a1510fb355efba0d9d683957", 0),
    (["normal-form", "--map", "(z^2-z-2)/(-2z^2+2z-2)"],
     "8be9f346a9cccddb3011f3466f3b4c26d00b943f4d5154b2389e512e371d65a6", 0),
    (["critical", "--map", "(z^2-3z-3)/(z^2)"],
     "892e8c84b841fa0859e5540aae92f0cbaa9597952d8f0be30870dc249000345c", 0),
    (["normal-form", "--map", "(z^2-3z-3)/(z^2)"],
     "13ea474cf268ea7b851c4c85f57b6ab86f27fb8394882854d42b578b3fedb33f", 0),
    # quadratic critical fields: a collision, an orbit into the fixed point
    # infinity, a fixed critical point, the power and inverse-power forms, a cubic
    (["critical", "--map", "(z^2+2)/(z^2+2z+2)"],
     "bcab4eb3c7d89b338210ef163f1d4d324d550c601dff157ded2bdb858f7400fb", 0),
    (["normal-form", "--map", "(z^2+2)/(z^2+2z+2)"],
     "f210c6ccd36ea4260cdc4272b63735e0294b0e80b98c82a904444e629533ffe8", 0),
    (["critical", "--map", "(z^2+1)/(-2z-2)"],
     "973a65f755aa5bc23d10b489a41537f5899ace5ca44eff5b75fd1180ed2e401f", 0),
    (["normal-form", "--map", "(z^2+1)/(-2z-2)"],
     "de18236e3afbb6c1146381ec6a467b7def4051f5d7203050658860ba42d83025", 0),
    (["critical", "--map", "(z^2-3)/(2z-3)"],
     "5573b15728b804a1ab52181eaeb20ae3ee31ba80bf17cf3cce7ddf02e6e6e629", 0),
    (["normal-form", "--map", "(z^2-3)/(2z-3)"],
     "41a01ebed774e85edbdbbfc97e69474d7ab1264f54cb97eb97e21180e5d17bf9", 0),
    (["critical", "--map", "(z^2+2)/(2z)"],
     "6ba49b74bd872764fd1cba5950103c42e1540c0df39322f0559273a4daeaddd5", 0),
    (["normal-form", "--map", "(z^2+2)/(2z)"],
     "6192181a8e5fed2fa93dfe2bacdbe411fca11c1c5564a9076d7118d4c51065ec", 0),
    (["critical", "--map", "(z^2-4z+2)/(z^2-2z+2)"],
     "8718ed03424afd8f5f25081bd47c6dc3270adc57099aa2033079e9ef7cec540a", 0),
    (["normal-form", "--map", "(z^2-4z+2)/(z^2-2z+2)"],
     "d5ad904ce7bd22b69b431b6d1508a4b3e492c336ad06491a0cf569233c76dd09", 0),
    (["critical", "--map", "(z^3+6z)/(3z^2+2)"],
     "1b1a02391f1aca5ae5e1c97534373ef0d73f58303651a8e7ee8cc1e4ab05e576", 0),
    (["normal-form", "--map", "(z^3+6z)/(3z^2+2)"],
     "e56755d5884e035f16390cb2a35862e4c26affbf21c151fea744949fd2085307", 0),
    # a quadratic critical orbit through a pole, on to a finite point
    (["critical", "--map", "(z^2-2z+3)/(z^2+2z-1)"],
     "2604cfaa4fc554e14a324b4f3c1325a917bfb5f6c407ecf56abdff9de8416574", 0),
    (["normal-form", "--map", "(z^2-2z+3)/(z^2+2z-1)"],
     "51395109a90c06380db08fbf1fbddc80489b1b15c50ce4167698cde0dd7fbab1", 0),
    # two-term maps (z^d+a)/(z^d+b) of degree 3, 7, 20 and 50
    (["critical", "--map", "(z^3+5)/(z^3+3)"],
     "7b7d55ab240cc7b6b46fd628db9b42ffe3039f4de8195cf2514a9308617c7117", 0),
    (["normal-form", "--map", "(z^3+5)/(z^3+3)"],
     "b5e4f322314b50998750f575d865601d8804e691548c48fb7f5e1c55f51fd891", 0),
    (["critical", "--map", "(z^7+2)/(z^7-1)"],
     "f259639b47090a923abeeef4452000d08fdb7e456f4ad1f49d0611cc53ece0be", 0),
    (["normal-form", "--map", "(z^7+2)/(z^7-1)"],
     "d95b1161c9ca1adf1e4bdd5cf0190f40478cd75bd3cd6add85d212e8c723c625", 0),
    (["critical", "--map", "(z^20+5)/(z^20+3)"],
     "f4a0cf7d0052eeb15f5014ac9256efcd3745547848bbb33913ecad20781d59bc", 0),
    (["normal-form", "--map", "(z^20+5)/(z^20+3)"],
     "57b013b3e3e3cffd3739bc08d052238f122c6ac9852356f644c7c1afb5392d81", 0),
    (["critical", "--map", "(z^50-2)/(z^50+7)"],
     "f9d4a1c8a0c933ccbd59d3da274f74b022953da788d1cd516e140415fadc3cd2", 0),
    (["normal-form", "--map", "(z^50-2)/(z^50+7)"],
     "aaa3e882f3c3ff68961a6482df4bb14da383449f1c7b1933d0b76dbbdd8c1bd8", 0),
    # orbits of the two-term maps from 1
    (["orbit", "--map", "(z^3+5)/(z^3+3)", "--start", "1", "--steps", "3"],
     "9654b1c4c35dea67736a13b4c7e763e4cdd70f8c3a17c9f303d4e0c940651544", 0),
    (["orbit", "--map", "(z^7+2)/(z^7-1)", "--start", "1", "--steps", "3"],
     "edcd3a26e18139d05b8fb76595f8c58e5860bc5f58db577f1df8bba8e5db1dfb", 0),
    (["orbit", "--map", "(z^20+5)/(z^20+3)", "--start", "1", "--steps", "3"],
     "cdcab59ac2431718fe6805285449aa36d8fb4c793a5a0928ec3588c0030e30bd", 0),
    (["orbit", "--map", "(z^50-2)/(z^50+7)", "--start", "1", "--steps", "3"],
     "03f1bcdd56bac5eed149d21941d7967756d94e4be4f5c6bc76452ef1da40dae4", 0),
    # escaping orbits, under the default and a small height cap
    (["orbit", "--map", "(z^3+5)/(z^3+3)", "--start", "2", "--steps", "30"],
     "771ee3b9af5cbe94e2807de8404f62d020e4252897fbe84142da0cc7ac234cd2", 0),
    (["orbit", "--map", "(z^7+2)/(z^7-1)", "--start", "1/2", "--steps", "9", "--height-cap-bits", "100"],
     "10d62a50ba97a7c20cfe2a4c8243409b7ba86794ad62ef4e820afd3374b614f3", 0),
    # preperiodic orbits, one through infinity, and an orbit from infinity that
    # runs out of steps
    (["orbit", "--map", "z^2-2", "--start", "0"],
     "bcc607b88f1f36fa44bd0958b2ef82289db182afd15fb56181d7a5fd66d81061", 0),
    (["orbit", "--map", "1/z^2", "--start", "0"],
     "80bab8907cfcb541aed60bac407871031a380757738ddda41532321be04ff5d7", 0),
    (["orbit", "--map", "(z^2-98)/z^2", "--start", "inf", "--steps", "5"],
     "fccf78f9aabf76342dea6ba634c683bddf196ba948dcd41ad2cc246e00e85b88", 0),
    # text output, and a height-capped search
    (["critical", "--map", "(z^2-3)/(z^2+3)", "--output", "text"],
     "566f14c8002d3ce4a0bf60b56dc4025de28e5e8c661092a601ad533c710a770f", 0),
    (["normal-form", "--map", "(z^2+2)/(z^2+2z+2)", "--output", "text"],
     "15ebfaa3d3d161afb021b94475c7079f2859d8654ae0f190321ec52c7d6537a1", 0),
    (["critical", "--map", "(z^2-3z-3)/(z^2)", "--bound", "3", "--height-cap-bits", "40"],
     "9670dd068bab8b1e32b76c6ef47388aa2d4f5b3b0e118b71b7d2195aec89c873", 0),
    # normal forms of dense conjugates of (z^d+5)/(z^d+3), and of degree 500
    (["normal-form", "--map", dense_conjugate_text(5)],
     "62533780ba14b04d4c4185842522f347579755f4eca5f3f820a67607c895626c", 0),
    (["normal-form", "--map", dense_conjugate_text(12)],
     "796b4004e27aa8a17a8233c3f7024e56aacf1998ebae642e0f728099f7552b3e", 0),
    (["normal-form", "--map", dense_conjugate_text(25)],
     "78618751ef0023d9ca7190914be77938946f2210f8a6609acd4f873276643d1d", 0),
    (["normal-form", "--map", dense_conjugate_text(60)],
     "e5cc0efcaddf3a7c1b5f15e866c70a4f797a8667acade1ad627d9d85a6fe5ae2", 0),
    (["normal-form", "--map", "(z^500+5)/(z^500+3)"],
     "de25d12cfdb19a1aab7aeb5df31bc8dfe13dbe1cad963c030437ae20ae42cfb9", 0),
    # bad reduction: a degree drop at 2, a numerator that vanishes mod 7, a
    # common root mod 2, a cubic bad at 3, and a map bad at 2, 3 and 11
    (["rigid-check", "--map", "(2z^2+1)/(2z^2+3)", "--n", "6", "--rho-budget", "2000"],
     "99ce3ea3fa8cc73abd6e2f290eb8b0eb564d3e4575bb374fa22a91f55eda1e01", 0),
    (["rigid-check", "--map", "(7z^2+49)/(z^2+14)", "--n", "6", "--rho-budget", "2000"],
     "df64eb77e3f3d51373830775914bb7b899344054d29650b7385f3f4d1e07de17", 5),
    (["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6", "--rho-budget", "2000"],
     "4b9fc137befa6391f3184bd6cf031fd91e93c1552d347a4ec06b3c738e24f6fe", 5),
    (["rigid-check", "--map", "(z^3+2)/(z^3+5)", "--n", "6", "--rho-budget", "2000"],
     "b21013f6af0028abb80696cb3f38e0dad942d9368f935ea30a60b08e426cdad9", 5),
    (["rigid-check", "--map", "(z^2+2z+3)/(3z^2-2z-1)", "--n", "6", "--rho-budget", "2000"],
     "7c0fbe12e6b1ac6eb5b70069368f3e01ccb436fcbb27498820cfcb88b6aeafb3", 5),
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
