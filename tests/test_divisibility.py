import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbordyn.divisibility import f_sequence, main_family, theta, verify_rigid_divisibility
from arbordyn.factorint import FactorBudget, is_perfect_square
from arbordyn.ratmap import P1Point, RationalMap
from paper_checks import (
    beta,
    iterate_polys,
    ladder_values,
    mobius,
    primitive_part_valuations,
    rad_divisibility_conditions,
    sign_check,
    verify_origin_split,
)

EX13 = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])


def is_rational_square(x: Fraction) -> bool:
    if x <= 0:
        return x == 0
    return is_perfect_square(x.numerator)[0] and is_perfect_square(x.denominator)[0]


class TestFSequence:
    def test_seeds(self):
        for a in (-2, 7, -98):
            assert f_sequence(a, 2) == [1, 1]

    def test_known_values(self):
        fs = f_sequence(-98, 5)
        assert fs[2] == -97
        assert fs[3] == 9311
        assert fs[4] == -8589174817

    @given(st.integers(-2000, 2000).filter(bool), st.integers(1, 14))
    def test_matches_plain_recursion(self, a, n):
        assert f_sequence(a, n) == plain_f_sequence(a, n)

    @given(st.integers(-2000, 2000).filter(bool), st.integers(1, 14),
           st.sampled_from([2, 3, 4, 5, 8, 13, 97, 4093]))
    def test_residues_are_the_terms_mod_q(self, a, n, q):
        assert f_sequence(a, n, modulus=q) == [f % q for f in f_sequence(a, n)]


def plain_f_sequence(a, n):
    """f_1..f_n by f_k = f_(k-1)^2 + a*f_(k-2)^4 as written."""
    out = [1, 1]
    for _ in range(n - 2):
        out.append(out[-1] ** 2 + a * out[-2] ** 4)
    return out[:n]


class TestOriginSplit:
    def test_first_level_trivial(self):
        assert verify_origin_split(-98, 1)  # p_1(0) = a = a^(2^0) * f_1

    @pytest.mark.parametrize("a,n", [(-98, 8), (-2, 10), (-6, 10), (10, 8)])
    def test_split_and_congruence(self, a, n):
        assert verify_origin_split(a, n)


class TestTheta:
    def test_small_indices(self):
        assert theta(f_sequence(-98, 4)) == [1, 1, -97, 9311]

    def test_nonsquare_brackets(self):
        assert not is_perfect_square(abs(theta(f_sequence(-98, 3))[2]))[0]
        k = math.isqrt(9311)
        assert k == 96 and k * k < 9311 < (k + 1) ** 2

    def test_vanishing_term_rejected(self):
        # a = -1 gives f_3 = 0: theta_n is None exactly at the multiples of 3,
        # where the mod-q sieve has no residue either
        got = theta(f_sequence(-1, 30))
        assert [m for m in range(1, 31) if got[m - 1] is None] == list(range(3, 31, 3))
        residues = theta(f_sequence(-1, 30, modulus=7), 7)
        assert [th is None for th in got] == [r is None for r in residues]
        assert all(r == th % 7 for th, r in zip(got, residues) if th is not None)
        assert got[:5] == [1, 1, None, -1, 1]

    def test_integrality_asserted_over_range(self):
        for a in (-2, -6, -14, -98, 10):
            theta(f_sequence(a, 12))  # raises on nonunit denominator

    @given(st.integers(-300, 300).filter(bool), st.integers(1, 16),
           st.sampled_from([3, 5, 7, 13, 17, 29, 97]))
    def test_residues_are_theta_mod_q(self, a, n, q):
        """theta_n mod q, or None exactly when some f_d with d | n is 0 mod q."""
        fs = f_sequence(a, n)
        got = theta(f_sequence(a, n, modulus=q), q)
        assert theta(fs, q) == got
        exact = theta(fs)
        for m in range(1, n + 1):
            if any(fs[d - 1] % q == 0 for d in range(1, m + 1) if m % d == 0):
                assert got[m - 1] is None
            else:
                assert got[m - 1] is not None and got[m - 1] % q
                assert got[m - 1] == exact[m - 1] % q

    def test_residues_through_a_vanishing_term(self):
        # a = -1: f_3 = 0, so theta_3, theta_6, ... have no residue; the rest do
        got = theta(f_sequence(-1, 12, modulus=7), 7)
        assert [m for m in range(1, 13) if got[m - 1] is None] == [3, 6, 9, 12]


class TestBeta:
    def test_single_divisor(self):
        phi = main_family(-98)
        assert beta(phi, Fraction(1, 3), 1) == Fraction(1, 9) - 98

    def test_origin_moebius_quotient(self):
        phi = main_family(-98)
        vals = phi.origin_values(4)
        assert beta(phi, 0, 4) == Fraction(vals[3][0], vals[1][0])
        assert beta(phi, 0, 4) > 0

    def test_parametrized_basepoint(self):
        phi = main_family(-98)
        alpha = Fraction(7, 2)
        assert phi(P1Point.from_fraction(alpha)) == P1Point.of(-7)
        assert phi(P1Point.of(-7)) == P1Point.of(-1)
        vals = ladder_values(phi, alpha, 2)
        expected = Fraction(vals[1][0]) / Fraction(vals[0][0])
        assert beta(phi, alpha, 2) == expected


class TestSignCheck:
    def test_reference_values(self):
        assert sign_check(-98, 10)
        phi = main_family(-98)
        vals = phi.origin_values(3)
        assert Fraction(vals[1][0], vals[1][1]) == 1          # phi^2(0)
        assert Fraction(vals[2][0], vals[2][1]) == -97        # phi^3(0) = 1 - b

    def test_boundary_parameter(self):
        assert sign_check(-3, 8)

    def test_first_term_sign(self):
        assert sign_check(-5, 1)  # sgn(p_1(0)) = sgn(a) = -1


class TestRigidDivisibility:
    def test_example_map_passes_outside_two(self):
        terms = [u for u, _ in EX13.origin_values(8)]
        rep = verify_rigid_divisibility(terms, exclude=[2])
        assert rep.status == "pass"
        # the valuation of 5 propagates unchanged along indices 2,4,6,8
        assert all(terms[i] % 5 == 0 and terms[i] % 25 != 0 for i in (1, 3, 5, 7))

    def test_two_violates_without_exclusion(self):
        terms = [u for u, _ in EX13.origin_values(8)]
        rep = verify_rigid_divisibility(terms)
        assert rep.status == "fail"
        assert sorted({v.prime for v in rep.violations}) == [2]
        assert any(v.condition == 1 for v in rep.violations)

    def test_f_sequence_is_rigid(self):
        rep = verify_rigid_divisibility(f_sequence(-98, 10))
        assert rep.status == "pass"

    def test_zero_term_rejected(self):
        with pytest.raises(ValueError):
            verify_rigid_divisibility([1, 0, 3])

    def test_pool_trial_division_uses_the_budget_bound(self):
        # term 2 is 2 * 101 * 103: only primes below the bound reach the pool
        terms = [1, 2 * 101 * 103]
        rep = verify_rigid_divisibility(terms, pool_depth=0,
                                        budget=FactorBudget(trial_bound=100))
        assert (rep.trial_bound, rep.checked_primes) == (100, [2])
        rep = verify_rigid_divisibility(terms, pool_depth=0)
        assert (rep.trial_bound, rep.checked_primes) == (10 ** 6, [2, 101, 103])


class TestIterateIdentities:
    @pytest.mark.parametrize("a", [-2, -6, -98, 10])
    def test_leading_coefficient_and_value_at_one(self, a):
        phi = main_family(a)
        fs = f_sequence(a, 10)
        for n in range(1, 9):
            pn, _ = iterate_polys(phi, n)
            assert pn.lc == fs[n]            # f_(n+1)
            assert pn(1) == fs[n + 1]        # f_(n+2)

    @pytest.mark.parametrize("a", [-2, -6, -14, -98])
    def test_congruence_mod_8(self, a):
        assert a % 4 == 2
        fs = f_sequence(a, 12)
        for n in range(3, 13):
            assert fs[n - 1] % 8 == (1 + a) % 8

    def test_consecutive_terms_coprime(self):
        for a in (-2, -6, -98, 10):
            fs = f_sequence(a, 12)
            for n in range(2, 13):
                assert math.gcd(fs[n - 1], fs[n - 2]) == 1

    @pytest.mark.parametrize("a", [-6, -98])
    def test_theta_beta_square_classes(self, a):
        phi = main_family(a)
        thetas = theta(f_sequence(a, 10))
        for n in range(3, 11):
            th = Fraction(abs(thetas[n - 1]))
            bt = beta(phi, 0, n)
            if mobius(n) != 0:  # square-free
                assert is_rational_square(th * (-a) * bt)
            else:
                assert is_rational_square(th * bt)

    @pytest.mark.parametrize("a", [-2, -6, -98])
    def test_a_k_identities(self, a):
        fs = f_sequence(a, 10)
        for k in range(3, 9):
            fk, fk1, fkm1 = fs[k - 1], fs[k], fs[k - 2]
            a_k = fk ** 3 + fk1 * fkm1 ** 2
            b_k = fk ** 2 * fkm1 ** 2
            assert math.gcd(a_k, b_k) == 1
            assert a_k % 8 == 6


class TestSequenceBundle:
    def test_bundle_consistency(self):
        # the f, p_n(0), theta and beta columns to depth 6, each checked as it is built
        phi, fs = main_family(-98), f_sequence(-98, 6)
        assert verify_origin_split(-98, 6)
        assert phi.origin_values(6)[2][0] == -8946971152
        assert theta(fs)[2] == -97
        assert all(beta(phi, 0, k) for k in range(1, 7))


class TestPrimitivePartValuations:
    def test_prime_97(self):
        assert primitive_part_valuations(-98, 3) == [(97, 1)]
        fs = f_sequence(-98, 3)
        assert fs[0] % 97 != 0 and fs[1] % 97 != 0

    def test_index_four(self):
        assert primitive_part_valuations(-98, 4) == [(9311, 1)]

    def test_trivial_index(self):
        assert primitive_part_valuations(-98, 1) == []


class TestRadDivisibilityConditions:
    def test_modulus_four_family(self):
        # k = 4 / rad(4) = 2: phi^2(0) = 1 and phi^3(0) = 1 + a = -97
        assert rad_divisibility_conditions(main_family(-98), 0, 4, 4) == {
            "unit_at_k": True, "negation_congruence": True, "minus_one_nonresidue": True}

    def test_modulus_four_any_two_mod_four(self):
        for a in (-2, -6, -14):
            assert all(rad_divisibility_conditions(main_family(a), 0, 4, 4).values())

    def test_minus_one_square_mod_five(self):
        conditions = rad_divisibility_conditions(main_family(-98), 0, 4, 5)
        assert not conditions["minus_one_nonresidue"]


def minus_one_is_square_mod_scan(m: int) -> bool:
    """Oracle: scan every residue class mod m for a square root of -1."""
    return any(x * x % m == m - 1 for x in range(m))


class TestMinusOneResidue:
    """Condition 3 of rad_divisibility_conditions, by the closed form."""

    def test_agrees_with_residue_scan(self):
        phi = main_family(-98)
        for m in range(2, 5000):
            conditions = rad_divisibility_conditions(phi, 0, 4, m)
            assert conditions["minus_one_nonresidue"] == (
                not minus_one_is_square_mod_scan(m)), m

    def test_modulus_above_a_million(self):
        phi = main_family(-98)
        p = 10 ** 6 + 3  # prime, 3 mod 4: Euler's criterion says -1 is no square
        assert pow(p - 1, (p - 1) // 2, p) == p - 1
        assert rad_divisibility_conditions(phi, 0, 4, p)["minus_one_nonresidue"]
        m = 2 * 5 ** 9  # -1 = 2^2 + 1 lifts to a square root mod 5^9
        assert not rad_divisibility_conditions(phi, 0, 4, m)["minus_one_nonresidue"]
