import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arbordyn import ratmap
from arbordyn.errors import (
    DegenerateMapError,
    DegreeTooSmallError,
    GrowthCapError,
    NotDefinedOverQError,
)
from arbordyn.intpoly import IntPoly, resultant
from arbordyn.quadext import QuadExtElem
from arbordyn.ratmap import INF, Infinity, MobiusTransform, P1Point, RationalMap


def family(a):
    return RationalMap.from_coeffs([a, 0, 1], [0, 0, 1])


class TestConstruction:
    def test_valid_maps(self):
        phi = family(-98)
        assert phi.d == 2
        psi = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
        assert psi.d == 2

    def test_common_root_rejected(self):
        with pytest.raises(DegenerateMapError):
            RationalMap.from_coeffs([0, 0, 1], [0, 1])

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmallError):
            RationalMap.from_coeffs([1, 1], [1])

    def test_zero_member_rejected(self):
        with pytest.raises(DegenerateMapError):
            RationalMap.from_coeffs([0], [0, 0, 1])

    def test_canonicalization(self):
        a = RationalMap.from_coeffs([-2, 0, -2], [-6, 0, -2])
        b = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
        assert a == b
        assert a.p.content() == 1 or a.q.content() == 1
        lead = a.p if a.p.degree >= a.q.degree else a.q
        assert lead.lc > 0
        c = RationalMap.from_coeffs([0, 0, 4], [2, 0, 2])  # joint content 2, not 4
        assert (c.p, c.q) == (IntPoly([0, 0, 2]), IntPoly([1, 0, 1]))

    def test_from_fractions(self):
        phi = RationalMap.from_fractions(
            [Fraction(1, 2), 0, 1], [Fraction(3, 2), 0, 1]
        )
        assert phi == RationalMap.from_coeffs([1, 0, 2], [3, 0, 2])


class TestLadder:
    def test_second_level_closed_form(self):
        for a in (-98, 5):
            phi = family(a)
            p2, q2 = phi.iterate_polys(2)
            assert p2 == IntPoly([a * a, 0, 2 * a, 0, 1 + a])
            assert q2 == IntPoly([a, 0, 1]) ** 2

    def test_first_level_is_the_map(self):
        phi = family(-98)
        p1, q1 = phi.iterate_polys(1)
        assert p1 == phi.p and q1 == phi.q

    def test_origin_value_example(self):
        psi = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
        assert psi.origin_values(3)[2][0] == 884

    def test_ladder_is_the_list_of_levels(self):
        phi = family(-6)
        levels = phi.ladder(4)
        assert len(levels) == 4 and levels[0] == (phi.p, phi.q)
        assert levels == [phi.iterate_polys(n) for n in range(1, 5)]
        assert phi.ladder(2) == levels[:2]
        with pytest.raises(ValueError):
            phi.iterate_polys(0)

    def test_degrees_and_coprimality(self):
        maps = [family(-98), RationalMap.from_coeffs([1, 0, 1], [3, 0, 1]),
                RationalMap.from_coeffs([1, 0, 0, 1], [2, 0, 0, 1])]
        for phi in maps:
            for n in range(1, 5):
                pn, qn = phi.iterate_polys(n)
                assert max(pn.degree, qn.degree) == phi.d ** n
                assert resultant(pn, qn) != 0

    def test_growth_cap(self):
        phi = family(-98)
        with pytest.raises(GrowthCapError):
            phi.ladder(30, growth_cap_bits=200)

    @pytest.mark.parametrize("pc, qc", [([3, 0, 0, 5], [7, 0, 0, 1]),
                                        ([1, 1, 0, 3], [2, 0, 0, 1]),
                                        ([-98, 0, 1], [0, 0, 1])],
                             ids=["cubic", "cubic-with-linear-term", "family"])
    def test_growth_cap_bounds_every_level_built(self, pc, qc):
        # a projection of 2*bits + d + 4 built a 360-bit level of the first map
        phi = RationalMap.from_coeffs(pc, qc)
        built, real = [], ratmap._substitute

        def spy(*args):
            level = real(*args)
            built.append(level)
            return level

        with mock.patch.object(ratmap, "_substitute", side_effect=spy) as patched:
            with pytest.raises(GrowthCapError):
                phi.ladder(6, growth_cap_bits=250)
        assert patched.call_count == len(built) >= 1
        widest = max(abs(c).bit_length() for level in built
                     for poly in level for c in poly.coeffs)
        assert widest <= 250

    def test_ladder_values_match_polynomials(self):
        phi = family(-6)
        x = Fraction(2, 3)
        vals = phi.ladder_values(x, 4)
        for n in range(1, 5):
            pn, qn = phi.iterate_polys(n)
            assert vals[n - 1] == (pn(x), qn(x))


class TestEvaluation:
    def test_examples(self):
        phi = family(-98)
        assert phi(P1Point.of(0)) == P1Point.infinity()
        assert phi(P1Point.infinity()) == P1Point.of(1)
        assert phi(P1Point.of(1)) == P1Point.of(-97)

    def test_semigroup_law(self):
        rng = random.Random(5)
        maps = [family(-98), RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])]
        for phi in maps:
            for _ in range(10):
                pt = P1Point.of(rng.randint(-9, 9), rng.randint(1, 9))
                for n in range(1, 5):
                    u, v = phi.ladder_values(pt.to_fraction(), n)[n - 1]
                    via_ladder = (
                        P1Point.infinity() if v == 0
                        else P1Point.from_fraction(Fraction(u) / v)
                    )
                    stepped = pt
                    for _ in range(n):
                        stepped = phi(stepped)
                    assert stepped == via_ladder

    def test_composition_commutes(self):
        def fold(phi, pt, n):
            for _ in range(n):
                pt = phi(pt)
            return pt

        phi = family(-6)
        for start in (P1Point.of(2), P1Point.of(-1, 3), P1Point.infinity(),
                      P1Point.of(0)):
            for n in (2, 3, 4):
                whole = fold(phi, start, n)
                assert whole == phi(fold(phi, start, n - 1))
                assert whole == fold(phi, phi(start), n - 1)

    def test_field_value_infinity_handling(self):
        phi = family(-98)
        assert phi(QuadExtElem(0, 0, 2)) is INF
        assert phi(INF) == 1

    def test_int_is_read_as_a_fraction(self):
        phi = family(-98)
        assert phi(3) == Fraction(-89, 9) and isinstance(phi(3), Fraction)
        assert phi(0) is INF
        assert phi(Fraction(1, 7)) == 1 - 98 * 49

    @pytest.mark.parametrize("x", [3.0, 0.5, "3", None, 1j])
    def test_non_point_raises(self, x):
        with pytest.raises(TypeError):
            family(-98)(x)

    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=5),
           st.lists(st.integers(-9, 9), min_size=1, max_size=5),
           st.one_of(st.integers(-10 ** 6, 10 ** 6),
                     st.fractions(max_denominator=10 ** 6)))
    def test_rational_argument_matches_the_point(self, p, q, x):
        try:
            phi = RationalMap.from_coeffs(p, q)
        except ValueError:
            assume(False)
        image = phi(P1Point.from_fraction(x))
        value = phi(x)
        if image.is_infinity:
            assert value is INF
        else:
            assert type(value) is Fraction and value == image.to_fraction()


class TestP1Point:
    @given(st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 9, 10 ** 9))
    def test_normalization_idempotent(self, num, den):
        if num == 0 and den == 0:
            return
        pt = P1Point.of(num, den)
        again = P1Point.of(pt.num, pt.den)
        assert pt == again
        assert pt.den >= 0
        assert math.gcd(pt.num, pt.den) == 1
        if pt.den == 0:
            assert pt.num == 1
        else:
            assert Fraction(pt.num, pt.den) == Fraction(num, den)

    def test_equality_stable(self):
        assert P1Point.of(2, 4) == P1Point.of(1, 2) == P1Point.of(-1, -2)
        assert P1Point.of(-98, 0) == P1Point.infinity()

    def test_rejects_origin_pair(self):
        with pytest.raises(ValueError):
            P1Point.of(0, 0)


class TestOrbit:
    def test_fixed_point(self):
        phi = RationalMap.from_coeffs([0, 0, 1], [1])
        rec = phi.orbit(P1Point.of(1))
        assert rec.status == "preperiodic"
        assert rec.preperiod == 0 and rec.period == 1

    def test_wandering_orbit_reports_budget(self):
        phi = family(-98)
        rec = phi.orbit(P1Point.of(0), max_steps=8)
        assert rec.status == "budget_exhausted"
        prefix = [str(p) for p in rec.points[:4]]
        assert prefix == ["0", "inf", "1", "-97"]

    def test_height_cap_escape(self):
        phi = family(-98)
        rec = phi.orbit(P1Point.of(0), max_steps=64, height_cap_bits=64)
        assert rec.status == "escaped"

    def test_collision_value_orbit_runs(self):
        phi = RationalMap.from_coeffs([2, 0, 1], [2, 2, 1])
        rec = phi.orbit(P1Point.of(2, 3), max_steps=10)
        assert rec.status in ("preperiodic", "budget_exhausted", "escaped")

    def test_preperiodic_tail(self):
        # z -> z^2 from -1: -1 -> 1 -> 1 (tail 1, cycle 1)
        phi = RationalMap.from_coeffs([0, 0, 1], [1])
        rec = phi.orbit(P1Point.of(-1))
        assert rec.status == "preperiodic"
        assert rec.preperiod == 1 and rec.period == 1


class TestConjugation:
    def test_identity(self):
        phi = family(-98)
        assert phi.conjugate(MobiusTransform.identity()) == phi

    def test_inversion_partner_formula(self):
        a, b = Fraction(1), Fraction(2)
        phi = RationalMap.from_fractions([a, 0, 1], [b, 0, 1])
        mu = MobiusTransform.inversion(a / b)
        partner = phi.conjugate(mu)
        expected = RationalMap.from_fractions(
            [a ** 2 / b ** 3, 0, 1], [a / b ** 2, 0, 1]
        )
        assert partner == expected

    def test_round_trip_random(self):
        rng = random.Random(17)
        phi = RationalMap.from_coeffs([1, 2, 1], [3, 0, 1])
        for _ in range(25):
            while True:
                a, b, c, e = (rng.randint(-5, 5) for _ in range(4))
                if a * e - b * c != 0:
                    break
            mu = MobiusTransform.make(a, b, c, e)
            assert phi.conjugate(mu).conjugate(mu.inverse()) == phi

    def test_irrational_result_rejected(self):
        phi = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
        root2 = QuadExtElem(0, 1, 2)
        mu = MobiusTransform.make(QuadExtElem(1, 0, 2), root2,
                                  QuadExtElem(0, 0, 2), QuadExtElem(1, 0, 2))
        with pytest.raises(NotDefinedOverQError):
            phi.conjugate(mu)

    @given(st.lists(st.fractions(max_denominator=5), min_size=4, max_size=4),
           st.integers(0, 3), st.sampled_from([2, 3, -1, -7]),
           st.fractions(max_denominator=5).filter(bool))
    def test_irrational_entry_raises(self, rats, pos, s, y):
        # any entry with a nonzero sqrt part is refused before any work, even
        # where the conjugate would be rational again
        entries = [QuadExtElem(x, 0, s) for x in rats]
        entries[pos] = QuadExtElem(rats[pos], y, s)
        mu = MobiusTransform(*entries)
        assume(mu.det() != 0)
        phi = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
        with mock.patch("arbordyn.ratmap._substitute", side_effect=AssertionError):
            with pytest.raises(NotDefinedOverQError):
                phi.conjugate(mu)

    def test_rational_quadratic_entries_are_their_values(self):
        phi = RationalMap.from_coeffs([1, 2, 1], [3, 0, 1])
        rats = (Fraction(2, 3), Fraction(-1), Fraction(1, 2), Fraction(5))
        lifted = MobiusTransform.make(*(QuadExtElem(x, 0, 2) for x in rats))
        assert phi.conjugate(lifted) == phi.conjugate(MobiusTransform.make(*rats))


class TestMobius:
    def test_compose_and_inverse(self):
        mu = MobiusTransform.make(1, 2, 3, 4)
        nu = MobiusTransform.make(0, 1, 1, 0)
        both = mu.compose(nu)
        x = Fraction(5, 7)
        assert both.apply(x) == mu.apply(nu.apply(x))
        assert mu.compose(mu.inverse()).is_identity

    def test_apply_infinity(self):
        mu = MobiusTransform.make(2, 1, 1, -3)
        assert mu.apply(INF) == 2
        assert isinstance(mu.apply(Fraction(3)), Infinity)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            MobiusTransform.make(1, 2, 2, 4)
