import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arbordyn.divisibility import f_sequence, main_family
from arbordyn.errors import BadReductionError
from arbordyn.factorint import primes_below
from arbordyn.ffpoly import PrimeFieldPoly
from arbordyn.ratmap import P1Point, RationalMap
from arbordyn.reduction import bad_reduction_primes, orbit_mod_p
from paper_checks import good_reduction_origin_valuations, iterate_polys

EX13 = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
FAM98 = RationalMap.from_coeffs([-98, 0, 1], [0, 0, 1])
PRIMES = primes_below(60)
PRIMES_BELOW_1000 = primes_below(1000)


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
        assert EX13.res % 2 == 0 and not good_over_fp(EX13, 2)
        assert good_over_fp(EX13, 5) and good_over_fp(EX13, 13)

    def test_family_bad_primes(self):
        assert not good_over_fp(FAM98, 7)
        assert not good_over_fp(FAM98, 2)
        assert good_over_fp(FAM98, 3)

    def test_bad_primes_are_resultant_divisors(self):
        # the pairs are normalized and of full degree, so Res(p, q) carries
        # exactly the bad primes
        for phi in (EX13, FAM98):
            res = phi.res
            bad = set(bad_reduction_primes(phi))
            assert all(res % p == 0 for p in bad)
            for p in primes_below(120):
                assert good_over_fp(phi, p) == (p not in bad)

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
        assert (phi.res % prime != 0) == good_over_fp(phi, prime)
        assert (phi.res % prime != 0) == (prime == 5)

    @settings(max_examples=300, deadline=None)
    @given(maps_with_primes())
    def test_res_criterion_equals_fp_criterion(self, case):
        phi, prime = case
        good = good_over_fp(phi, prime)
        assert (phi.res % prime != 0) == good
        if good:
            orbit_mod_p(phi, P1Point.of(0), prime)
        else:
            with pytest.raises(BadReductionError):
                orbit_mod_p(phi, P1Point.of(0), prime)


def encode(point, prime):
    """A normalized point of P^1(Q) reduced mod ``prime``, 0..p (p = infinity)."""
    if point.den % prime == 0:
        return prime
    return point.num * pow(point.den, -1, prime) % prime


def orbit_term(orb, k):
    """The k-th point of the orbit, read through its tail and cycle."""
    if k > orb.tail_length:
        k = orb.tail_length + (k - orb.tail_length) % orb.cycle_length
    return orb.visited[k]


@st.composite
def maps_with_good_primes(draw):
    """A map of degree 2-4 with coefficients in [-9, 9] and a prime below
    1000 of good reduction for it."""
    d = draw(st.integers(2, 4))
    coeffs = st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1)
    try:
        phi = RationalMap.from_coeffs(draw(coeffs), draw(coeffs))
    except ValueError:
        assume(False)
    prime = draw(st.sampled_from(PRIMES_BELOW_1000))
    assume(phi.res % prime != 0)
    return phi, prime


class TestOrbitModP:
    def test_zero_cycles_iff_five_divides_a_term(self):
        orb = orbit_mod_p(EX13, P1Point.of(0), 5)
        assert orb.visited[orb.tail_length + orb.cycle_length] == orb.visited[orb.tail_length]
        seen = orb.visited[: orb.tail_length + orb.cycle_length]
        assert len(set(seen)) == len(seen)
        # 5 | p_2(0) = 10, so 0 is periodic mod 5 with period 2
        assert orb.tail_length == 0
        assert EX13.origin_values(orb.cycle_length)[-1][0] % 5 == 0

    def test_family_congruence_fixed_point(self):
        # alpha = 7/2 = 2 mod 3 is fixed for the reduced family map
        orb = orbit_mod_p(FAM98, P1Point.of(7, 2), 3)
        assert orb.visited[0] == 2
        assert orb.tail_length == 0 and orb.cycle_length == 1

    def test_fixed_point_start(self):
        # z^2 fixes 1 mod any good prime
        phi = RationalMap.from_coeffs([0, 0, 1], [1])
        orb = orbit_mod_p(phi, P1Point.of(1), 7)
        assert orb.tail_length == 0 and orb.cycle_length == 1

    def test_bad_reduction_rejected(self):
        with pytest.raises(BadReductionError):
            orbit_mod_p(EX13, P1Point.of(0), 2)

    def test_terminates_within_bound(self):
        p = 101
        for start in range(0, p + 1, 17):
            orb = orbit_mod_p(EX13, P1Point.of(start), p)
            assert orb.tail_length + orb.cycle_length <= p + 1

    def test_infinity_encoding(self):
        # 0 -> infinity -> 1 for the family map, and a denominator divisible
        # by p starts at infinity
        assert orbit_mod_p(FAM98, P1Point.of(0), 3).visited[:3] == [0, 3, 1]
        assert orbit_mod_p(FAM98, P1Point.infinity(), 3).visited[:2] == [3, 1]
        assert orbit_mod_p(FAM98, P1Point.of(1, 3), 3).visited[:2] == [3, 1]

    @settings(max_examples=200, deadline=None)
    @given(maps_with_good_primes(), st.integers(1, 8))
    def test_matches_exact_origin_values(self, case, n):
        # good reduction commutes with iteration: the k-th point of the orbit
        # of 0 mod p is (p_k(0) : q_k(0)) reduced mod p
        phi, prime = case
        orb = orbit_mod_p(phi, P1Point.of(0), prime)
        assert orb.modulus == prime and orb.visited[0] == 0
        for k, (u, v) in enumerate(phi.origin_values(n), 1):
            assert orbit_term(orb, k) == encode(P1Point.of(u, v), prime), k

    @pytest.mark.parametrize("a", [-98, -6, 2, 7])
    def test_family_zero_returns_where_q_divides_f(self, a):
        # p_k(0) = a^(2^(k-1)) f_k, so at q not dividing a the orbit of 0
        # returns to 0 at step k exactly when q divides f_k
        phi = main_family(a)
        for q in primes_below(200):
            if a % q == 0:
                continue
            orb = orbit_mod_p(phi, P1Point.of(0), q)
            fs = f_sequence(a, 10, modulus=q)
            assert [orbit_term(orb, k) == 0 for k in range(1, 11)] == [f == 0 for f in fs]


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


def _mod_ladder(phi, p, n):
    """Iterate recursion carried out entirely over F_p."""
    d = phi.d
    pn = PrimeFieldPoly.from_intpoly(phi.p, p)
    qn = PrimeFieldPoly.from_intpoly(phi.q, p)
    pc = [pn.coeff(i) for i in range(d + 1)]
    qc = [qn.coeff(i) for i in range(d + 1)]
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
        mod_levels = _mod_ladder(phi, p, 5)
        for n in range(1, 6):
            pn, qn = iterate_polys(phi, n)
            assert PrimeFieldPoly.from_intpoly(pn, p).coeffs == mod_levels[n - 1][0].coeffs
            assert PrimeFieldPoly.from_intpoly(qn, p).coeffs == mod_levels[n - 1][1].coeffs
