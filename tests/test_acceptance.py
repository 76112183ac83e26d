"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All equalities are exact; no floating point is involved anywhere.
"""

import json
import math
import random
import time
from fractions import Fraction

from arbordyn.cli import main as cli_main
from arbordyn.critical import critical_points, to_normal_form, verify_normal_form
from arbordyn.divisibility import f_sequence, main_family, theta, verify_rigid_divisibility
from arbordyn.factorint import is_perfect_square
from arbordyn.galois import maximality_certificate, mod_p_irreducible_witness
from arbordyn.ratmap import RationalMap
from paper_checks import (
    beta,
    discriminant,
    discriminant_recursion,
    irreducibility_cascade,
    mobius,
    nonsquarefree_theta_evidence,
    normal_forms_conjugate,
    quadratic_conjugate_form,
    squarefree_theta_evidence,
)

EX13 = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_factor_table_reproduction(capsys):
    start = time.monotonic()
    code = cli_main(["sequence", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--factor"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["rows"]

    expected_exact = {
        1: [],
        2: [[2, 1], [5, 1]],
        3: [[2, 2], [13, 1], [17, 1]],
        4: [[2, 5], [5, 1], [42461, 1]],
        5: [[2, 10], [109, 1], [13337, 1], [268897, 1]],
        6: [[2, 21], [5, 1], [13, 1], [17, 1], [193, 1], [11969, 1],
            [3144217, 1], [82530809, 1]],
    }
    for n, factors in expected_exact.items():
        fac = rows[n - 1]["factorization"]
        assert fac["factors"] == factors, f"row {n} factor mismatch"
        assert fac["cofactor"] == 1

    row7 = rows[6]["factorization"]
    assert row7["factors"] == [[2, 42], [157, 1], [15170009, 1]]
    assert row7["cofactor_status"] == "probable_prime"
    assert len(str(row7["cofactor"])) in (39, 40)

    row8 = rows[7]["factorization"]
    assert row8["factors"] == [[2, 85], [5, 1], [521, 1], [7297, 1], [7841, 1],
                               [42461, 1], [697121, 1], [207272581, 1]]
    assert row8["cofactor_status"] == "probable_prime"
    assert len(str(row8["cofactor"])) in (68, 69)

    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s, budget is 5 minutes"
    with capsys.disabled():
        report(1, f"factor table n<=8 in {elapsed:.2f}s")


def test_criterion_2_rigid_divisibility(capsys):
    terms = [u for u, _ in EX13.origin_values(8)]
    rep_excluded = verify_rigid_divisibility(terms, exclude=[2])
    assert rep_excluded.status == "pass"
    assert rep_excluded.violations == []

    rep_full = verify_rigid_divisibility(terms)
    assert rep_full.status == "fail"
    assert rep_full.violating_primes() == [2]
    assert any(v.condition == 1 for v in rep_full.violations)
    with capsys.disabled():
        report(2, "rigid divisibility outside {2}, violation at 2 otherwise")


def test_criterion_3_sequence_identity_suite(capsys):
    depth = 10
    for a in (-2, -6, -14, -98):
        phi = main_family(a)
        fs = f_sequence(a, depth + 2)
        values = phi.origin_values(depth)
        ladder = phi.ladder(depth)
        for n in range(1, depth + 1):
            pn, _ = ladder[n - 1]
            pn0 = values[n - 1][0]
            assert pn0 == a ** (2 ** (n - 1)) * fs[n - 1]
            assert fs[n - 1] % abs(a) == 1 % abs(a)
            assert pn.lc == fs[n]
            assert pn(1) == fs[n + 1]
            if n >= 2:
                assert math.gcd(fs[n - 1], fs[n - 2]) == 1
            if n >= 3:
                assert a % 4 == 2 and fs[n - 1] % 8 == (1 + a) % 8
        if a <= -3:
            for n in range(1, depth + 1):
                pn0 = values[n - 1][0]
                assert pn0 != 0 and (pn0 > 0) == (n % 2 == 0)
            for n in range(3, depth + 1):
                bt = beta(phi, 0, n)
                assert bt > 0
                th = Fraction(abs(theta(fs)[n - 1]))
                prod = th * (-a) * bt if mobius(n) != 0 else th * bt
                assert prod > 0
                assert is_perfect_square(prod.numerator)[0]
                assert is_perfect_square(prod.denominator)[0]
    with capsys.disabled():
        report(3, "iterate identities for a in {-2,-6,-14,-98}, n<=10, exact")


def test_criterion_4_discriminant_recursion(capsys):
    start = time.monotonic()
    for a in (-6, -98):
        phi = main_family(a)
        for n in (2, 3):
            direct = discriminant(phi.iterate_polys(n)[0])
            assert direct.denominator == 1
            assert abs(direct.numerator) == discriminant_recursion(a, n)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    with capsys.disabled():
        report(4, f"discriminant recursion exact for n in {{2,3}} in {elapsed:.2f}s")


def test_criterion_5_maximality_certificates(capsys):
    code = cli_main(["certify", "--m", "2", "--depth", "8"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "all_maximal"
    assert doc["hypotheses"]["s1_witness"] == 3
    assert doc["hypotheses"]["s2_witness"] == 5
    assert doc["certificate"]["a"] == -98
    assert doc["certificate"]["maximal_levels"] == list(range(1, 9))

    def recheck_theta_witnesses(cert_doc):
        a = cert_doc["a"]
        thetas = theta(f_sequence(a, cert_doc["depth"] + 2))
        for level in cert_doc["levels"]:
            if level["theta"] is None:
                assert level["n"] == 1
                continue
            idx = level["theta"]["index"]
            th = abs(thetas[idx - 1])
            k = math.isqrt(th)
            assert level["theta"]["strict_bracket"]
            assert k * k < th < (k + 1) * (k + 1)
            if "value" in level["theta"]:
                assert abs(level["theta"]["value"]) == th

    recheck_theta_witnesses(doc["certificate"])

    for m in (3, 4, 6):
        cert = maximality_certificate(
            -2 * (2 * m * m - 1) ** 2, 6
        )
        assert cert.overall == "all_maximal", f"m={m}"
        recheck_theta_witnesses(cert.to_dict())
    with capsys.disabled():
        report(5, "all_maximal certificates for m in {2,3,4,6}, witnesses (3,5)")


def test_criterion_6_congruence_vs_direct(capsys):
    cases = {2: ("even_pm1", 3), 3: ("odd", 5), 5: ("odd", 5),
             6: ("even_pm1", 3), 7: ("odd", 5)}
    thetas = theta(f_sequence(-98, 8))
    for n, (case, p) in cases.items():
        pattern_ok, _, certified = squarefree_theta_evidence(2, n, p, case)
        direct_nonsquare = not is_perfect_square(abs(thetas[n - 1]))[0]
        assert pattern_ok
        assert certified == direct_nonsquare, f"n={n}: congruence and direct routes disagree"
        assert certified == (n >= 3)
    for n in (4, 8):
        _, certified, _ = nonsquarefree_theta_evidence(-98, n)
        assert certified, f"n={n} evidence failed"
        assert not is_perfect_square(abs(thetas[n - 1]))[0]
    with capsys.disabled():
        report(6, "congruence route matches direct square tests, m=2")


def test_criterion_7_normal_form_round_trips(capsys):
    rng = random.Random(2024)
    built = 0
    quadratic_seen = 0
    while built < 200:
        pc = [rng.randint(-20, 20) for _ in range(3)]
        qc = [rng.randint(-20, 20) for _ in range(3)]
        if pc[2] == 0 and qc[2] == 0:
            continue
        try:
            phi = RationalMap.from_coeffs(pc, qc)
        except ValueError:
            continue
        built += 1
        data = critical_points(phi)  # never raises for degree 2: field deg <= 2
        assert data.field.kind in ("rational", "quadratic")
        nf = to_normal_form(phi)
        assert verify_normal_form(phi, nf)
        if data.field.kind == "quadratic":
            quadratic_seen += 1
            psi, mu = quadratic_conjugate_form(phi)
            assert psi.conjugate(mu.inverse()) == phi
    assert quadratic_seen > 0

    checked = 0
    while checked < 50:
        d = rng.randint(2, 4)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if a == b or a == 0 or b == 0:
            continue
        partner = (a ** d / b ** (d + 1), a ** (d - 1) / b ** d)
        assert normal_forms_conjugate(d, a, b, *partner)
        if partner != (a, b):
            off = (partner[0] + 1, partner[1])
            if off[0] != off[1] and off != (a, b):
                assert not normal_forms_conjugate(d, a, b, *off)
        checked += 1
    with capsys.disabled():
        report(7, f"200 round trips ({quadratic_seen} quadratic fields), 50 partners")


def test_criterion_8_cascade_oracle_agreement(capsys):
    # parameters whose towers the suite certifies maximal; a full Galois
    # image guarantees Frobenius octic cycles, so the scan must succeed
    for a in (-6, -14, -98, -578):
        cascade = irreducibility_cascade(a, 3)
        phi = main_family(a)
        for level in cascade:
            assert level["status"] == "certified"
            pn, _ = phi.iterate_polys(level["n"])
            witness = mod_p_irreducible_witness(pn, 10 ** 4)
            assert witness is not None, f"no oracle prime for a={a}, n={level['n']}"
            assert witness < 10 ** 4
    with capsys.disabled():
        report(8, "finite-field oracle confirms every cascade-certified level n<=3")


def test_oracle_is_vacuous_for_post_critically_finite_parameter():
    # a = -2: the origin orbit is 0 -> inf -> 1 -> -1 (fixed), the tower
    # degenerates, and the third iterate numerator - although irreducible
    # over Q by the cascade - is reducible modulo every prime, like z^4 + 1.
    # The one-sided oracle therefore finds nothing, which is not a failure.
    cascade = irreducibility_cascade(-2, 3)
    assert all(l["status"] == "certified" for l in cascade)
    p3, _ = main_family(-2).iterate_polys(3)
    assert mod_p_irreducible_witness(p3, 10 ** 4) is None
