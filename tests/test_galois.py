import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbordyn.divisibility import f_sequence, main_family, theta
from arbordyn.errors import InvariantViolationError
from arbordyn.factorint import is_perfect_square
from arbordyn import galois
from arbordyn.galois import (
    DIGEST_BITS,
    alpha_parametrization,
    family_parameter,
    hypothesis_witnesses,
    maximality_certificate,
    mod_p_irreducible_witness,
    verify_certificate,
)
from arbordyn.ratmap import P1Point, RationalMap
from paper_checks import (
    discriminant,
    discriminant_recursion,
    eventual_stability_check,
    irreducibility_cascade,
    mobius,
    nonsquarefree_theta_evidence,
    rad_divisibility_conditions,
    squarefree_theta_evidence,
)


class TestIrreducibilityCascade:
    def test_congruence_route_all_levels(self):
        rep = irreducibility_cascade(-98, 8)
        assert all(l["status"] == "certified" for l in rep)
        assert all(l["route"] == "congruence_3_mod_4" for l in rep[1:])
        fs = f_sequence(-98, 10)
        assert all(fs[n] % 4 == 3 for n in range(2, 10))

    def test_base_cases(self):
        assert irreducibility_cascade(4, 1)[0]["status"] == "certified"
        rep = irreducibility_cascade(-4, 3)
        assert rep[0]["status"] == "reducible"
        assert [l["route"] for l in rep[1:]] == ["blocked", "blocked"]
        assert all(l["status"] == "unknown" for l in rep[1:])

    def test_certified_through(self):
        # every level is certified, from the base quadratic up
        assert [l["n"] for l in irreducibility_cascade(-98, 6)
                if l["status"] == "certified"] == [1, 2, 3, 4, 5, 6]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-500, -2).map(lambda k: 4 * k + 2), st.integers(1, 8))
    def test_certificate_routes_are_the_general_cascade(self, a, depth):
        # a = 2 (mod 4), -1998 <= a <= -6: the certificate's two routes are
        # what the five-route cascade finds
        cert = maximality_certificate(a, depth)
        assert [lvl.irreducibility for lvl in cert.levels] == irreducibility_cascade(a, depth)

    def test_mod_p_oracle_confirms(self):
        phi = main_family(-98)
        for n in (1, 2, 3):
            pn, _ = phi.iterate_polys(n)
            p = mod_p_irreducible_witness(pn, 10 ** 4)
            assert p is not None and p < 10 ** 4


class TestDiscriminantRecursion:
    def test_base_value(self):
        assert discriminant_recursion(-98, 1) == 392
        assert discriminant(main_family(-98).iterate_polys(1)[0]) == 392  # Disc(z^2 - 98) > 0

    @pytest.mark.parametrize("a", [-6, -98])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_direct_discriminant(self, a, n):
        pn, _ = main_family(a).iterate_polys(n)
        direct = discriminant(pn)
        assert direct.denominator == 1
        assert abs(direct.numerator) == discriminant_recursion(a, n)


class TestMaximalityCertificate:
    def test_reference_certificate(self):
        cert = maximality_certificate(-98, 8)
        assert cert.overall == "all_maximal"
        assert cert.maximal_levels == list(range(1, 9))
        for lvl in cert.levels[1:]:
            assert lvl.theta is not None
            assert lvl.theta["strict_bracket"]

    def test_hypotheses_unmet(self):
        assert maximality_certificate(2, 3).overall == "hypotheses_unmet"
        assert maximality_certificate(-97, 3).overall == "hypotheses_unmet"

    def test_level_by_level_for_other_parameter(self):
        cert = maximality_certificate(-6, 6)
        assert cert.overall in ("all_maximal", "partial")
        for lvl in cert.levels:
            assert lvl.verdict in ("maximal", "unknown")

    def test_term_off_the_congruence_is_an_invariant_violation(self):
        fs = f_sequence(-98, 4)
        fs[3] += 2  # f_4 = 1 (mod 4): no route may certify level 3
        with mock.patch("arbordyn.galois.f_sequence", return_value=fs):
            with pytest.raises(InvariantViolationError, match="f_4"):
                maximality_certificate(-98, 3)

    def test_verification_is_bit_for_bit(self):
        cert = maximality_certificate(-98, 6)
        assert verify_certificate(cert)
        cert.levels[3].theta["strict_bracket"] = False
        assert not verify_certificate(cert)

    def test_json_round_trip(self):
        cert = maximality_certificate(-98, 5)
        doc = cert.to_dict()
        assert json.loads(json.dumps(doc)) == doc

    def test_consume_and_verify_emitted_certificate(self):
        from arbordyn.galois import certificate_from_dict

        cert = maximality_certificate(-98, 5)
        rebuilt = certificate_from_dict(json.loads(json.dumps(cert.to_dict())))
        assert rebuilt.to_dict() == cert.to_dict()
        assert verify_certificate(rebuilt)
        rebuilt.levels[2].theta["strict_bracket"] = False
        assert not verify_certificate(rebuilt)


class TestHypothesisWitnesses:
    def test_m_two(self):
        rep = hypothesis_witnesses(2)
        assert (rep.s1_witness, rep.s1_target) == (3, "m+1")
        assert (rep.s2_witness, rep.s2_target) == (5, "2m+1")
        assert rep.shortcut and rep.met

    def test_m_three_smallest_first(self):
        rep = hypothesis_witnesses(3)
        assert (rep.s1_witness, rep.s1_target) == (3, "m")
        # 2m - 1 = 5 is itself a fitting prime, below the 7 | 2m+1 witness
        assert (rep.s2_witness, rep.s2_target) == (5, "2m-1")

    def test_m_five_unmet(self):
        rep = hypothesis_witnesses(5)
        assert rep.s1_witness == 3
        assert rep.s2_witness is None
        assert not rep.met and not rep.shortcut

    def test_shortcut_parameters_all_succeed(self):
        for m in range(2, 101):
            if m % 4 == 1:
                continue
            assert hypothesis_witnesses(m).met

    def test_negative_m(self):
        rep = hypothesis_witnesses(-2)
        assert rep.s1_witness == 3 and rep.s1_target == "m-1"
        assert rep.s2_witness == 5 and rep.s2_target == "2m-1"
        assert rep.met and not rep.shortcut

    def test_degenerate_m_rejected(self):
        for m in (-1, 0, 1):
            with pytest.raises(ValueError):
                hypothesis_witnesses(m)


class TestAlphaParametrization:
    def test_m_two(self):
        rep = alpha_parametrization(2)
        assert rep.a == -98
        assert rep.alpha == Fraction(7, 2)
        assert rep.ok
        phi = main_family(-98)
        assert phi(P1Point.from_fraction(rep.alpha)) == P1Point.of(-7)
        assert phi(P1Point.of(-7)) == P1Point.of(-1)
        assert phi(P1Point.of(-1)) == P1Point.of(-97)

    def test_m_three(self):
        rep = alpha_parametrization(3)
        assert rep.a == -578
        assert rep.alpha == Fraction(17, 3)

    def test_negative_m_even_symmetry(self):
        rep = alpha_parametrization(-2)
        assert rep.a == -98
        assert rep.alpha == Fraction(-7, 2)
        phi = main_family(-98)
        assert phi(P1Point.from_fraction(rep.alpha)) == phi(P1Point.of(7, 2))


class TestSquarefreeThetaEvidence:
    def test_odd_case_m2(self):
        # the class -1/2 = 2 is a non-residue mod 5, and |theta_3| = 97
        assert squarefree_theta_evidence(2, 3, 5, "odd") == (True, 2, True)
        assert abs(theta(f_sequence(-98, 3))[2]) == 97

    def test_even_case_below_bridge(self):
        # n = 2: the congruences verify but theta_2 = 1 is a square, and the
        # bridge to theta needs n >= 3, so nothing is certified
        assert squarefree_theta_evidence(2, 2, 3, "even_pm1") == (True, 3 - 1, False)
        assert theta(f_sequence(-98, 2))[1] == 1

    def test_even_case_m_divisible(self):
        # alpha is infinity mod 3 | m, and the product collapses to -1 mod 3
        assert squarefree_theta_evidence(3, 2, 3, "even_m") == (True, 3 - 1, False)

    def test_wrong_case_rejected(self):
        # 5 fits the odd case of m = 2 only: the even case's pattern fails, so
        # nothing is certified, though the class 3 is a non-residue mod 5
        assert squarefree_theta_evidence(2, 3, 5, "even_pm1") == (False, 3, False)

    def test_congruence_agrees_with_direct(self):
        cases = {2: ("even_pm1", 3), 3: ("odd", 5), 5: ("odd", 5),
                 6: ("even_pm1", 3), 7: ("odd", 5)}
        thetas = theta(f_sequence(-98, 7))
        for n, (case, p) in cases.items():
            certified = squarefree_theta_evidence(2, n, p, case)[2]
            assert certified == (not is_perfect_square(abs(thetas[n - 1]))[0]), n

    def test_growth_cap_leaves_direct_test_open(self):
        # theta_31 is too wide to build, and the route reads 31 steps mod 5 instead
        assert squarefree_theta_evidence(2, 31, 5, "odd") == (True, 2, True)


class TestNonsquarefreeThetaEvidence:
    def test_modulus_four_route(self):
        assert nonsquarefree_theta_evidence(-98, 4) == (4, True, True)

    def test_a_k_route(self):
        # 139 is the least prime 3 (mod 4) of A_4 = f_4^3 + f_5 f_3^2
        assert nonsquarefree_theta_evidence(-98, 8) == (139, True, True)

    def test_negative_a_k_leaves_theta_9_open(self):
        # A_3 = -903362 = 6 (mod 8), yet 903362 = 2 * 451681 with 451681 = 1
        # (mod 4): the complete factorization has no prime 3 (mod 4), so the
        # route leaves theta_9 to the certificate's bracket
        fs = f_sequence(-98, 4)
        assert fs[2] ** 3 + fs[3] * fs[1] ** 2 == -903362
        assert nonsquarefree_theta_evidence(-98, 9) == (None, False, True)
        assert maximality_certificate(-98, 8).levels[7].verdict == "maximal"

    def test_wrong_parameter_rejected(self):
        # at n = 4, k = 2, the negation congruence mod 4 reads 1 + (1 + a) = 0,
        # so the modulus-4 route holds exactly for a = 2 (mod 4)
        for a in range(-30, -2):
            conditions = rad_divisibility_conditions(main_family(a), 0, 4, 4)
            assert conditions["negation_congruence"] == (a % 4 == 2), a


# theta_n that the route leaves open at 3 <= n <= 15: A_k has no prime 3 (mod 4)
ROUTE_OPEN = {2: 9, 3: 8, 4: 9, 6: 9}


@pytest.mark.parametrize("m", sorted(ROUTE_OPEN))
def test_congruence_route_certifies_only_maximal_levels(m):
    """Each theta_n the route certifies, with the witness primes of
    hypothesis_witnesses(m), decides a level n - 1 the certificate finds
    maximal.  Square-free n run to 31, into the certificate's residue band;
    the rest stop at 15, since their route factors A_k."""
    a, hyp = family_parameter(m), hypothesis_witnesses(m)
    even_case = "even_m" if hyp.s1_target == "m" else "even_pm1"
    levels = maximality_certificate(a, 30).levels
    tried = [n for n in range(3, 32) if n <= 15 or mobius(n) != 0]
    certified = []
    for n in tried:
        if mobius(n) == 0:
            ok = nonsquarefree_theta_evidence(a, n)[1]
        elif n % 2:
            ok = squarefree_theta_evidence(m, n, hyp.s2_witness, "odd")[2]
        else:
            ok = squarefree_theta_evidence(m, n, hyp.s1_witness, even_case)[2]
        if ok:
            certified.append(n)
            assert levels[n - 2].verdict == "maximal", n
    assert certified == [n for n in tried if n != ROUTE_OPEN[m]]
    assert sum(mobius(n) != 0 for n in certified) == 18


class TestEventualStability:
    def test_examples(self):
        assert eventual_stability_check(-98, 0, 0, 2, 2)[0] == "inconclusive"
        assert eventual_stability_check(2, 1, 0, 2, 2)[0] == "case2"
        assert eventual_stability_check(1, 2, 0, 2, 4)[0] == "case1"

    def test_reports_orbit_probe(self):
        assert eventual_stability_check(2, 1, 0, 2, 2)[1] in (True, False)

    def test_degree_below_two_has_no_orbit_probe(self):
        assert eventual_stability_check(2, 1, 0, 2, 1) == ("case2", None)

    def test_orbit_probe_errors_propagate(self):
        with mock.patch.object(RationalMap, "orbit",
                               side_effect=InvariantViolationError("orbit")):
            with pytest.raises(InvariantViolationError):
                eventual_stability_check(2, 1, 0, 2, 2)


class TestCertificateBands:
    def test_large_theta_uses_residue(self):
        cert = maximality_certificate(-98, 11)
        fs = f_sequence(-98, 12)
        thetas = theta(fs)
        exact, deep = cert.levels[-2].theta, cert.levels[-1].theta
        assert fs[10].bit_length() <= DIGEST_BITS < fs[11].bit_length()
        assert exact["index"] == 11 and exact["value"] == thetas[10] and exact["strict_bracket"]
        q, r = deep["q"], deep["r"]
        assert deep == {"route": "residue", "index": 12, "q": q, "r": r}
        assert thetas[11] % q == r and pow(r, (q - 1) // 2, q) == q - 1
        assert cert.levels[-1].irreducibility["witness"] == {"modulus": 4, "residue": 3}
        assert verify_certificate(cert)

    def test_prime_bound_leaves_wide_levels_unknown(self, monkeypatch):
        """Without a deciding prime a wide level is unknown, never maximal."""
        fs = f_sequence(-98, 17)
        thetas = theta(fs)
        for bound, want_unknown in ((2, list(range(11, 17))), (6, None)):
            monkeypatch.setattr(galois, "RESIDUE_PRIME_BOUND", bound)
            cert = maximality_certificate(-98, 16)
            unknown = [lvl.n for lvl in cert.levels if lvl.verdict != "maximal"]
            assert unknown and cert.overall == "partial"
            assert cert.maximal_levels == [n for n in range(1, 17) if n not in unknown]
            for lvl in cert.levels[10:]:
                wit = lvl.theta
                if lvl.n in unknown:
                    assert wit["q"] is None and wit["r"] is None
                    # 5, the one prime below 6, leaves theta_(n+1) a residue
                    assert bound == 2 or pow(thetas[lvl.n] % 5, 2, 5) in (0, 1)
                else:
                    assert wit["q"] == 5 and pow(thetas[lvl.n] % 5, 2, 5) == 4
            if want_unknown is not None:
                assert unknown == want_unknown

    @pytest.mark.parametrize("a", [-6, -10, -98, -626, -734])
    def test_verdicts_are_the_exact_brackets(self, a):
        thetas = theta(f_sequence(a, 17))
        cert = maximality_certificate(a, 16)
        assert any(lvl.theta and lvl.theta.get("route") == "residue" for lvl in cert.levels)
        for lvl in cert.levels[1:]:
            nonsquare = not is_perfect_square(abs(thetas[lvl.n]))[0]
            assert lvl.verdict == ("maximal" if nonsquare else "unknown"), (a, lvl.n)

    def test_family_parameter(self):
        assert family_parameter(2) == -98
        assert family_parameter(3) == -578
