import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arbordyn.errors import BadReductionError, CompositeModulusError
from arbordyn.factorint import primes_below
from arbordyn.ffpoly import PrimeFieldPoly
from arbordyn.ratmap import RationalMap
from arbordyn.reduction import (
    bad_reduction_primes,
    has_good_reduction,
    orbit_mod_p,
    point_mod_p,
    reduce_mod_p,
)
from paper_checks import good_reduction_origin_valuations

EX13 = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
FAM98 = RationalMap.from_coeffs([-98, 0, 1], [0, 0, 1])
PRIMES = primes_below(60)


def good_over_fp(phi, prime):
    """The criterion over F_p, independent of ``res``: the reduced pair keeps
    degree d, neither member reduces to zero, and the members have no common
    root (their gcd over F_p is a constant)."""
    p_red = PrimeFieldPoly.from_intpoly(phi.p, prime)
    q_red = PrimeFieldPoly.from_intpoly(phi.q, prime)
    if max(p_red.degree, q_red.degree) != phi.d:
        return False
    if p_red.is_zero or q_red.is_zero:
        return False
    return p_red.gcd(q_red).degree == 0


@st.composite
def maps_with_primes(draw):
    """A map of degree 2-5 and a prime below 60; the prime may be made to
    divide both leading coefficients or a whole member."""
    d = draw(st.integers(2, 5))
    prime = draw(st.sampled_from(PRIMES))
    coeffs = st.lists(st.integers(-30, 30), min_size=d + 1, max_size=d + 1)
    p, q = draw(coeffs), draw(coeffs)
    twist = draw(st.sampled_from(["none", "leading", "numerator", "denominator"]))
    if twist == "leading":
        p[-1], q[-1] = prime * p[-1], prime * q[-1]
    elif twist == "numerator":
        p = [prime * c for c in p]
    elif twist == "denominator":
        q = [prime * c for c in q]
    try:
        return RationalMap.from_coeffs(p, q), prime
    except ValueError:
        assume(False)


class TestGoodReduction:
    def test_example_map_bad_only_at_two(self):
        assert not has_good_reduction(EX13, 2)
        assert has_good_reduction(EX13, 5)
        assert has_good_reduction(EX13, 13)

    def test_family_bad_primes(self):
        assert not has_good_reduction(FAM98, 7)
        assert not has_good_reduction(FAM98, 2)
        assert has_good_reduction(FAM98, 3)

    def test_composite_rejected(self):
        with pytest.raises(CompositeModulusError):
            has_good_reduction(EX13, 6)

    def test_bad_primes_are_resultant_divisors(self):
        # the pairs are normalized and of full degree, so Res(p, q) carries
        # exactly the bad primes
        for phi in (EX13, FAM98):
            res = phi.res
            bad = set(bad_reduction_primes(phi))
            assert all(res % p == 0 for p in bad)
            for p in primes_below(120):
                assert has_good_reduction(phi, p) == (res % p != 0)

    def test_known_bad_sets(self):
        assert bad_reduction_primes(EX13) == (2,)
        assert bad_reduction_primes(FAM98) == (2, 7)

    def test_monic_polynomial_map_good_everywhere(self):
        poly = RationalMap.from_coeffs([-98, 0, 1], [1])
        assert bad_reduction_primes(poly) == ()


class TestAgainstTheFpCriterion:
    @pytest.mark.parametrize("p, q, prime", [
        ([1, 0, 2], [3, 0, 2], 2),      # (2z^2+1)/(2z^2+3): the degree drops
        ([49, 0, 7], [14, 0, 1], 7),    # (7z^2+49)/(z^2+14): the numerator vanishes
        ([1, 0, 1], [3, 0, 1], 2),      # (z^2+1)/(z^2+3): a common root
        ([1, 0, 1], [3, 0, 1], 5),
    ])
    def test_each_way_to_fail(self, p, q, prime):
        phi = RationalMap.from_coeffs(p, q)
        assert has_good_reduction(phi, prime) == good_over_fp(phi, prime)
        assert has_good_reduction(phi, prime) == (prime == 5)

    @settings(max_examples=300, deadline=None)
    @given(maps_with_primes())
    def test_res_criterion_equals_fp_criterion(self, case):
        phi, prime = case
        assert has_good_reduction(phi, prime) == good_over_fp(phi, prime)
        assert reduce_mod_p(phi, prime).good == good_over_fp(phi, prime)


class TestReduceModP:
    def test_coefficientwise(self):
        rm = reduce_mod_p(EX13, 5)
        assert rm.p_red.coeffs == (1, 0, 1)
        assert rm.q_red.coeffs == (3, 0, 1)
        assert rm.good

    def test_family_mod_3(self):
        rm = reduce_mod_p(FAM98, 3)
        assert rm.p_red.coeffs == (1, 0, 1)
        assert rm.q_red.coeffs == (0, 0, 1)

    def test_denominator_vanishes(self):
        phi = RationalMap.from_coeffs([4, 0, 1], [4, 0, 2])
        rm = reduce_mod_p(phi, 2)
        assert rm.p_red.coeffs == (0, 0, 1)
        assert rm.q_red.is_zero
        assert not rm.good


class TestOrbitModP:
    def test_zero_cycles_iff_five_divides_a_term(self):
        rm = reduce_mod_p(EX13, 5)
        orb = orbit_mod_p(rm, 0)
        assert orb.visited[orb.tail_length + orb.cycle_length] == orb.visited[orb.tail_length]
        seen = orb.visited[: orb.tail_length + orb.cycle_length]
        assert len(set(seen)) == len(seen)
        # 5 | p_2(0) = 10, so 0 is periodic mod 5 with period 2
        assert orb.tail_length == 0
        assert EX13.origin_values(orb.cycle_length)[-1][0] % 5 == 0

    def test_family_congruence_fixed_point(self):
        # alpha = 7/2 = 2 mod 3 is fixed for the reduced family map
        rm = reduce_mod_p(FAM98, 3)
        start = point_mod_p(7, 2, 3)
        assert start == 2
        orb = orbit_mod_p(rm, start)
        assert orb.tail_length == 0 and orb.cycle_length == 1

    def test_fixed_point_start(self):
        # z^2 fixes 1 mod any good prime
        phi = RationalMap.from_coeffs([0, 0, 1], [1])
        orb = orbit_mod_p(reduce_mod_p(phi, 7), 1)
        assert orb.tail_length == 0 and orb.cycle_length == 1

    def test_bad_reduction_rejected(self):
        with pytest.raises(BadReductionError):
            orbit_mod_p(reduce_mod_p(EX13, 2), 0)

    def test_terminates_within_bound(self):
        p = 101
        rm = reduce_mod_p(EX13, p)
        for start in range(0, p + 1, 17):
            orb = orbit_mod_p(rm, start)
            assert orb.tail_length + orb.cycle_length <= p + 1

    def test_infinity_encoding(self):
        # 0 -> infinity -> 1 for the family map
        rm = reduce_mod_p(FAM98, 3)
        assert rm.eval_point(0) == 3
        assert rm.eval_point(3) == 1


class TestOriginValuations:
    def test_example_rows(self):
        vals = good_reduction_origin_valuations(EX13, 5, 2)
        assert vals[1] == (1, 0)
        vals13 = good_reduction_origin_valuations(EX13, 13, 3)
        assert vals13[2][0] == 1

    def test_unit_first_level(self):
        vals = good_reduction_origin_valuations(EX13, 7, 1)
        assert vals[0] == (0, 0)

    def test_min_valuation_zero_everywhere(self):
        for phi, primes in ((EX13, (5, 7, 13, 17)), (FAM98, (3, 5, 97))):
            for p in primes:
                for vu, vv in good_reduction_origin_valuations(phi, p, 8):
                    assert min(vu, vv) == 0


def _mod_ladder(rm, n):
    """Iterate recursion carried out entirely over F_p."""
    p = rm.modulus
    d = rm.degree
    pc = [rm.p_red.coeff(i) for i in range(d + 1)]
    qc = [rm.q_red.coeff(i) for i in range(d + 1)]
    pn, qn = rm.p_red, rm.q_red
    levels = [(pn, qn)]
    for _ in range(n - 1):
        ppow = [PrimeFieldPoly(p, (1,))]
        qpow = [PrimeFieldPoly(p, (1,))]
        for _ in range(d):
            ppow.append(ppow[-1].mul(pn))
            qpow.append(qpow[-1].mul(qn))
        new_p = PrimeFieldPoly(p, ())
        new_q = PrimeFieldPoly(p, ())
        for i in range(d + 1):
            basis = ppow[i].mul(qpow[d - i])
            if pc[i]:
                new_p = new_p.add(basis.scale(pc[i]))
            if qc[i]:
                new_q = new_q.add(basis.scale(qc[i]))
        pn, qn = new_p, new_q
        levels.append((pn, qn))
    return levels


class TestReductionCommutesWithIteration:
    @pytest.mark.parametrize("phi,p", [(EX13, 5), (EX13, 13), (FAM98, 3), (FAM98, 5)])
    def test_ladder_levels(self, phi, p):
        rm = reduce_mod_p(phi, p)
        mod_levels = _mod_ladder(rm, 5)
        for n in range(1, 6):
            pn, qn = phi.iterate_polys(n)
            assert PrimeFieldPoly.from_intpoly(pn, p).coeffs == mod_levels[n - 1][0].coeffs
            assert PrimeFieldPoly.from_intpoly(qn, p).coeffs == mod_levels[n - 1][1].coeffs
