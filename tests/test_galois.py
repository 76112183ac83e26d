import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbordyn.divisibility import f_sequence, main_family, theta
from arbordyn.errors import GrowthCapError, HypothesisError, InvariantViolationError
from arbordyn.galois import (
    alpha_parametrization,
    family_parameter,
    hypothesis_witnesses,
    maximality_certificate,
    mod_p_irreducible_witness,
    nonsquarefree_theta_evidence,
    squarefree_theta_evidence,
    verify_certificate,
)
from arbordyn.ratmap import P1Point, RationalMap
from paper_checks import (
    discriminant,
    discriminant_recursion,
    eventual_stability_check,
    irreducibility_cascade,
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
        ev = squarefree_theta_evidence(2, 3, 5, "odd")
        assert ev.pattern_ok
        assert ev.product_class == 1
        assert ev.final_class == ev.expected_class == (-pow(2, -1, 5)) % 5
        assert ev.nonresidue and ev.certified
        assert ev.direct_nonsquare and ev.agree
        assert abs(theta(f_sequence(-98, 3))[2]) == 97

    def test_even_case_below_bridge(self):
        # n = 2: the congruences verify but theta_2 = 1 is a square, and the
        # bridge to theta needs n >= 3, so nothing is certified
        ev = squarefree_theta_evidence(2, 2, 3, "even_pm1")
        assert ev.pattern_ok and ev.nonresidue
        assert not ev.bridge_applicable and not ev.certified
        assert ev.direct_nonsquare is False
        assert ev.agree

    def test_even_case_m_divisible(self):
        ev = squarefree_theta_evidence(3, 2, 3, "even_m")
        assert ev.pattern_ok
        assert ev.product_class == 3 - 1  # the product collapses to -1 mod 3
        assert ev.nonresidue

    def test_wrong_case_rejected(self):
        with pytest.raises(HypothesisError):
            squarefree_theta_evidence(2, 3, 5, "even_pm1")
        with pytest.raises(HypothesisError):
            squarefree_theta_evidence(2, 4, 5, "odd")  # n not square-free

    def test_congruence_agrees_with_direct(self):
        cases = {2: ("even_pm1", 3), 3: ("odd", 5), 5: ("odd", 5),
                 6: ("even_pm1", 3), 7: ("odd", 5)}
        for n, (case, p) in cases.items():
            ev = squarefree_theta_evidence(2, n, p, case)
            assert ev.agree

    def test_growth_cap_leaves_direct_test_open(self):
        with mock.patch("arbordyn.galois.theta", side_effect=GrowthCapError("cap")):
            ev = squarefree_theta_evidence(2, 3, 5, "odd")
        assert ev.certified
        assert ev.direct_nonsquare is None and ev.agree is None

    def test_invariant_violation_propagates(self):
        with mock.patch("arbordyn.galois.theta",
                        side_effect=InvariantViolationError("theta_3 is not integral")):
            with pytest.raises(InvariantViolationError):
                squarefree_theta_evidence(2, 3, 5, "odd")


class TestNonsquarefreeThetaEvidence:
    def test_modulus_four_route(self):
        ev = nonsquarefree_theta_evidence(-98, 4)
        assert ev.route == "m4" and ev.witness_modulus == 4
        assert ev.certified

    def test_a_k_route(self):
        ev = nonsquarefree_theta_evidence(-98, 8)
        assert ev.route == "A_k_prime"
        assert ev.witness_modulus is not None
        assert ev.witness_modulus % 4 == 3
        assert ev.gcd_ok and ev.congruence_ok and ev.certified

    def test_squarefree_n_rejected(self):
        with pytest.raises(HypothesisError):
            nonsquarefree_theta_evidence(-98, 6)

    def test_wrong_parameter_rejected(self):
        with pytest.raises(HypothesisError):
            nonsquarefree_theta_evidence(-97, 4)


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


class TestCertificateDigests:
    def test_large_theta_uses_digest(self):
        cert = maximality_certificate(-98, 11)
        deep = cert.levels[-1].theta
        assert deep["index"] == 12 and deep["bits"] == 4423
        assert "sha256_be" in deep
        assert "value" not in deep
        assert verify_certificate(cert)

    def test_family_parameter(self):
        assert family_parameter(2) == -98
        assert family_parameter(3) == -578
