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
     "55e88d5fc4b131f47252307ea39a1eae8838f789240055086ff701250508b56a", 0),
    (["normal-form", "--map", "(z^2-98)/z^2"],
     "3dba26d3fb121f0862cad2d7a394ac35394dc9a3a939cc873bebedb77be4f05f", 0),
    (["critical", "--map", "(z^2-3)/(z^2+3)"],
     "60d4e06a83919a695d51bd1826fdc8ff53b9a7410ad9f9adbcb198df5e13fb0b", 0),
    (["normal-form", "--map", "(z^2-3)/(z^2+3)"],
     "24260d82d60ddd789949577f33717b1f53b402b4dd8eb2f210e46f64b355626b", 0),
    (["critical", "--map", "(z^2-z-2)/(-2z^2+2z-2)"],
     "a204551a2510ec0f1e286649f17e8ee808fbdc72fa0e756f4539b6281fa8fc88", 0),
    (["normal-form", "--map", "(z^2-z-2)/(-2z^2+2z-2)"],
     "3acf0fbbd567c8e64515431ceb41a55e839b94e32180699c6607078430e3c6ce", 0),
    (["critical", "--map", "(z^2-3z-3)/(z^2)"],
     "dda86de4da7f5b530f392d12c57540a60a83b9dc1674699bded8939de5698886", 0),
    (["normal-form", "--map", "(z^2-3z-3)/(z^2)"],
     "baf371ce54e039cf682e20d08681cef58f8ad1767e48426e7f7af52706d19f46", 0),
    # quadratic critical fields: a collision, an orbit into the fixed point
    # infinity, a fixed critical point, the power and inverse-power forms, a cubic
    (["critical", "--map", "(z^2+2)/(z^2+2z+2)"],
     "dacc10d2f7c9add06e6a1a2024ed9ef58792e88e1706de6f88016c939b530b11", 0),
    (["normal-form", "--map", "(z^2+2)/(z^2+2z+2)"],
     "e1ec1f9b4fb382da7c512208b83da30f7f43d4977f152f874948cce2acf1ebee", 0),
    (["critical", "--map", "(z^2+1)/(-2z-2)"],
     "fc7fc547f62d85237fef0f59d6fdd30414b12bd49d1d1d65cab21994949d64c3", 0),
    (["normal-form", "--map", "(z^2+1)/(-2z-2)"],
     "5cc9d2d6be5f135743a4a426c2fe20c263f8acf4ca0a412d80ebd892144bda95", 0),
    (["critical", "--map", "(z^2-3)/(2z-3)"],
     "ac5f3aa6ba0a5acdfc3d3a0629927c1f654878dceb3464fb050382064bef1a96", 0),
    (["normal-form", "--map", "(z^2-3)/(2z-3)"],
     "da6b72bc87876153c02717dd79662e764bc87e6f07975a8433f1409c756a11c1", 0),
    (["critical", "--map", "(z^2+2)/(2z)"],
     "3ed4e5e750f606d62a5eec47cb78b99adca0ea5b31123ef169de547dd0447903", 0),
    (["normal-form", "--map", "(z^2+2)/(2z)"],
     "2a05682cb5f47f78742f711bfbde7ec4758389e68c7f8a8e864de540c2c5706d", 0),
    (["critical", "--map", "(z^2-4z+2)/(z^2-2z+2)"],
     "49fa7e7d05187d212f619ea1f57c10655cd6b451bc7b92cb538e5b16de233df9", 0),
    (["normal-form", "--map", "(z^2-4z+2)/(z^2-2z+2)"],
     "31ee54c9ba81249f92a8ef33b82d328485c74b0d92bda8d72aa3d3da477c48d3", 0),
    (["critical", "--map", "(z^3+6z)/(3z^2+2)"],
     "732364e52cd9e4c14aef7410900e3bb303d3abedcc4665e3199fb8eec9a207ab", 0),
    (["normal-form", "--map", "(z^3+6z)/(3z^2+2)"],
     "3afd404b64dd761b02b5772ed774c33328f6d22d2d682be2738642b39a9b3a18", 0),
    # a quadratic critical orbit through a pole, on to a finite point
    (["critical", "--map", "(z^2-2z+3)/(z^2+2z-1)"],
     "338a69176fccd439190fa5d32247e06b5d656102cb6393477985db7faf71b027", 0),
    (["normal-form", "--map", "(z^2-2z+3)/(z^2+2z-1)"],
     "5b55146d390c954fd49f4a08bce872c4796b26e863ae198292a06aa917590502", 0),
    # two-term maps (z^d+a)/(z^d+b) of degree 3, 7, 20 and 50
    (["critical", "--map", "(z^3+5)/(z^3+3)"],
     "3dbeb854b7c4b82a1cf63f13ad1ae29db7bb661bd989b6e1fed7baf0154cce05", 0),
    (["normal-form", "--map", "(z^3+5)/(z^3+3)"],
     "3d2201efa934e32cccbd7404efe9b6e0578bb6f95b1d68b5d8feb844c2d28f93", 0),
    (["critical", "--map", "(z^7+2)/(z^7-1)"],
     "4b7d29fd7c41c96232ac5368a52f7fa2a9114bbf93db870a8faa83abb23f149f", 0),
    (["normal-form", "--map", "(z^7+2)/(z^7-1)"],
     "cbf1fc9695d75c04a8a9f460b07df18c3b3c76f5f93316fd25e41702b1c7fe74", 0),
    (["critical", "--map", "(z^20+5)/(z^20+3)"],
     "f657dcfaea38a9e3aafcedd25d05892e74bf6dda912c1ab102bc4f514ccd4058", 0),
    (["normal-form", "--map", "(z^20+5)/(z^20+3)"],
     "ed9b9367c5c30c038df40080a5cb04ee74be2f96802b7f44d22629478b32748e", 0),
    (["critical", "--map", "(z^50-2)/(z^50+7)"],
     "ac996cc991f125f147eae00282e8553e0f5f893381ea29e98800db61b0f45fef", 0),
    (["normal-form", "--map", "(z^50-2)/(z^50+7)"],
     "7560a36fc358586bcac7f432c27b55121da304d99789eb89ee150b6eacc08a08", 0),
    # orbits of the two-term maps from 1
    (["orbit", "--map", "(z^3+5)/(z^3+3)", "--start", "1", "--steps", "3"],
     "da632157980c6fbbec8a5b1f29fc9ef5439c06a32994110281a8cabe426e0d7b", 0),
    (["orbit", "--map", "(z^7+2)/(z^7-1)", "--start", "1", "--steps", "3"],
     "7cd03d327b56f6f3e839dee2a9117923011998baf9bfa3961e5cba1d36de88fa", 0),
    (["orbit", "--map", "(z^20+5)/(z^20+3)", "--start", "1", "--steps", "3"],
     "cf374330def782ccaa2ca052491c176c4ece8e12d45fd2ad35d5d6ff4b1f0097", 0),
    (["orbit", "--map", "(z^50-2)/(z^50+7)", "--start", "1", "--steps", "3"],
     "2b95a9a389d9e3c5c6c75629687124a3d34fe50eae51893c0f5943d4849a0065", 0),
    # escaping orbits, under the default and a small height cap
    (["orbit", "--map", "(z^3+5)/(z^3+3)", "--start", "2", "--steps", "30"],
     "be057c5afef4adc232f3298eac542f208ebe7b8e9ed40b4111aaab474bcdfb0a", 0),
    (["orbit", "--map", "(z^7+2)/(z^7-1)", "--start", "1/2", "--steps", "9", "--height-cap-bits", "100"],
     "0cb140079e3852579aee0db6f09ee710e21a31030fd512a5104ca04674f5c78e", 0),
    # preperiodic orbits, one through infinity, and an orbit from infinity that
    # runs out of steps
    (["orbit", "--map", "z^2-2", "--start", "0"],
     "523050b80cd940a3fca508086b84e0936a95ba1c919405e5cd38e11cfe70bd29", 0),
    (["orbit", "--map", "1/z^2", "--start", "0"],
     "3c1f48c73f863579f1ece55e7ece50d90c4e04a6755ec5878c08fb67a151d7c3", 0),
    (["orbit", "--map", "(z^2-98)/z^2", "--start", "inf", "--steps", "5"],
     "119d0957167486a13d3445647dc25bfe3736dd3b97931be021302c8ad007db3b", 0),
    # text output, and a height-capped search
    (["critical", "--map", "(z^2-3)/(z^2+3)", "--output", "text"],
     "566f14c8002d3ce4a0bf60b56dc4025de28e5e8c661092a601ad533c710a770f", 0),
    (["normal-form", "--map", "(z^2+2)/(z^2+2z+2)", "--output", "text"],
     "15ebfaa3d3d161afb021b94475c7079f2859d8654ae0f190321ec52c7d6537a1", 0),
    (["critical", "--map", "(z^2-3z-3)/(z^2)", "--bound", "3", "--height-cap-bits", "40"],
     "c971a312ccdaf3d270218b5199ae888561af470dcb78ed6f61505577703ceb02", 0),
    # normal forms of dense conjugates of (z^d+5)/(z^d+3), and of degree 500
    (["normal-form", "--map", dense_conjugate_text(5)],
     "f431b038840254a5d84bb8f4939427fdedcd8b7d89b4c6358d60f1eb07280a20", 0),
    (["normal-form", "--map", dense_conjugate_text(12)],
     "94cf4e3076c1baccc5b9a828284ac101e6b05ab3a2c64c0295b6cf288fc93a32", 0),
    (["normal-form", "--map", dense_conjugate_text(25)],
     "6009e94facc60b9b177c7d879ae8ddd88827dd2e1effb26387ff14c4f54ab17b", 0),
    (["normal-form", "--map", dense_conjugate_text(60)],
     "b7267783c70abcf152752773d575e780066568fcfa7e1c1216d47f822b85abe7", 0),
    (["normal-form", "--map", "(z^500+5)/(z^500+3)"],
     "635fd5504807f05d8caca0a951ea5728a684751cb4414edb91cebb04799a1a39", 0),
    # bad reduction: a degree drop at 2, a numerator that vanishes mod 7, a
    # common root mod 2, a cubic bad at 3, and a map bad at 2, 3 and 11
    (["rigid-check", "--map", "(2z^2+1)/(2z^2+3)", "--n", "6", "--rho-budget", "2000"],
     "63a9040440475b14e977c17d06e372d245afe9fd8b36f9418a7220c3d75ff713", 0),
    (["rigid-check", "--map", "(7z^2+49)/(z^2+14)", "--n", "6", "--rho-budget", "2000"],
     "665735fb3ba5b9c2bde8a4978bcd59cac8502c4a9f58269176258e2ab1e32e16", 5),
    (["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--n", "6", "--rho-budget", "2000"],
     "5aae9dcc34979a202e4a27ccdd168ce44cf53b17d1ef1b5ed5aebe46f5bd290d", 5),
    (["rigid-check", "--map", "(z^3+2)/(z^3+5)", "--n", "6", "--rho-budget", "2000"],
     "43c03ea6b52cbafda3e0fb1d965dd842c5a0e5c85d917a4f4bca792ca09b03bb", 5),
    (["rigid-check", "--map", "(z^2+2z+3)/(3z^2-2z-1)", "--n", "6", "--rho-budget", "2000"],
     "b5596a30a72773768324cf9cf67c8687ab436ec4acef8d3b88a381c534529d62", 5),
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
