import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arbordyn.critical import (
    _forward_orbit,
    _orbit_step,
    _root_poly,
    critical_orbit_relation,
    critical_points,
    ramification_index,
    to_normal_form,
    verify_normal_form,
    wronskian,
)
from arbordyn.errors import NotBicriticalError
from arbordyn.intpoly import IntPoly
from arbordyn.quadext import QuadExtElem
from arbordyn.ratmap import MobiusTransform, P1Point, RationalMap
from paper_checks import (
    is_bicritical,
    mobius_apply,
    mobius_inverse,
    normal_forms_conjugate,
    quadratic_conjugate_form,
)

FAM98 = RationalMap.from_coeffs([-98, 0, 1], [0, 0, 1])
COLLIDER = RationalMap.from_coeffs([2, 0, 1], [2, 2, 1])  # (z^2+2)/(z^2+2z+2)


def random_quadratic_map(rng, lo=-20, hi=20):
    while True:
        pc = [rng.randint(lo, hi) for _ in range(3)]
        qc = [rng.randint(lo, hi) for _ in range(3)]
        if pc[2] == 0 and qc[2] == 0:
            continue
        try:
            return RationalMap.from_coeffs(pc, qc)
        except ValueError:
            continue


class TestWronskian:
    def test_family(self):
        assert wronskian(FAM98) == IntPoly([0, 196])  # -2az with a = -98

    def test_pure_square(self):
        phi = RationalMap.from_coeffs([0, 0, 1], [1])
        assert wronskian(phi) == IntPoly([0, 2])

    def test_collider(self):
        w = wronskian(COLLIDER)
        assert w == IntPoly([-4, 0, 2])
        assert _root_poly(w, 2) == IntPoly([-2, 0, 1])


class TestRamificationIndex:
    def test_family_critical_points(self):
        assert ramification_index(FAM98, P1Point.of(0)) == 2
        assert ramification_index(FAM98, P1Point.infinity()) == 2

    def test_generic_point_unramified(self):
        assert ramification_index(FAM98, P1Point.of(1)) == 1
        assert ramification_index(COLLIDER, P1Point.of(5, 7)) == 1

    def test_quadratic_point(self):
        assert ramification_index(COLLIDER, QuadExtElem(0, 1, 2)) == 2
        assert ramification_index(COLLIDER, QuadExtElem(0, -1, 2)) == 2
        assert ramification_index(COLLIDER, QuadExtElem(1, 1, 2)) == 1

    def test_matches_wronskian_order(self):
        # e - 1 equals the Wronskian vanishing order at finite points, and the
        # degree deficiency at infinity
        for phi in (FAM98, COLLIDER, RationalMap.from_coeffs([7], [0, 0, 0, 1])):
            w = wronskian(phi)
            e_inf = ramification_index(phi, P1Point.infinity())
            assert e_inf - 1 == 2 * phi.d - 2 - w.degree

    def test_conjugation_invariance(self):
        rng = random.Random(23)
        for _ in range(20):
            phi = random_quadratic_map(rng, -8, 8)
            while True:
                entries = [rng.randint(-4, 4) for _ in range(4)]
                if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                    break
            mu = MobiusTransform.make(*entries)
            psi = phi.conjugate(mu)
            for num in (-2, 0, 1, 3):
                alpha = Fraction(num)
                image = mobius_apply(mu, alpha)
                pt = P1Point.of(num)
                if isinstance(image, Fraction):
                    target = P1Point.from_fraction(image)
                else:
                    target = P1Point.infinity()
                assert ramification_index(phi, pt) == ramification_index(psi, target)


class TestCriticalPoints:
    def test_quadratic_field_example(self):
        data = critical_points(COLLIDER)
        locs = {str(p.location) for p in data.points}
        assert locs == {"1*sqrt(2)", "-1*sqrt(2)"}
        assert data.field.kind == "quadratic" and data.field.s == 2
        assert all(p.index == 2 for p in data.points)

    def test_rational_example(self):
        data = critical_points(FAM98)
        assert [str(p.location) for p in data.points] == ["0", "inf"]
        assert data.field.kind == "rational"

    def test_power_map(self):
        data = critical_points(RationalMap.from_coeffs([0, 0, 0, 5], [1]))
        assert [(str(p.location), p.index) for p in data.points] == [("0", 3), ("inf", 3)]

    def test_not_bicritical(self):
        # z^3 + z: its Wronskian 3z^2 + 1 has degree d - 1 but is no c*(z - t)^2
        phi = RationalMap.from_coeffs([0, 1, 0, 1], [1])
        assert not is_bicritical(phi)
        with pytest.raises(NotBicriticalError, match="Wronskian of degree 2"):
            critical_points(phi)

    def test_degree_three_bicritical(self):
        phi = RationalMap.from_coeffs([1, 0, 0, 1], [2, 0, 0, 1])
        assert is_bicritical(phi)
        data = critical_points(phi)
        assert {str(p.location) for p in data.points} == {"0", "inf"}

    def test_riemann_hurwitz(self):
        rng = random.Random(31)
        maps = [FAM98, COLLIDER, RationalMap.from_coeffs([7], [0, 0, 0, 1])]
        maps += [random_quadratic_map(rng) for _ in range(30)]
        for phi in maps:
            data = critical_points(phi)
            assert sum(pt.index - 1 for pt in data.points) == 2 * phi.d - 2


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


small = st.integers(-6, 6)
nonzero_fraction = st.fractions(-9, 9, max_denominator=4).filter(bool)


@st.composite
def random_maps(draw):
    d = draw(st.integers(2, 5))
    p = draw(st.lists(small, min_size=d + 1, max_size=d + 1))
    q = draw(st.lists(small, min_size=1, max_size=d + 1))
    try:
        return RationalMap.from_coeffs(p, q)
    except ValueError:
        assume(False)


@st.composite
def two_term_conjugates(draw):
    """A Moebius conjugate of (z^d + a)/(z^d + b), which is bicritical."""
    d = draw(st.integers(2, 5))
    a, b = draw(st.lists(nonzero_fraction, min_size=2, max_size=2, unique=True))
    entries = draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    assume(entries[0] * entries[3] != entries[1] * entries[2])
    base = RationalMap.from_fractions([a] + [0] * (d - 1) + [1], [b] + [0] * (d - 1) + [1])
    return base.conjugate(MobiusTransform.make(*entries))


class TestShapeAgainstSympy:
    """Bicritical exactly when the Wronskian W has 2 - [deg W < 2d - 2] distinct
    roots over the algebraic closure (infinity is the other critical point when
    deg W < 2d - 2); then the points found are roots of W with e = d."""

    def check(self, sympy, phi):
        z = sympy.Symbol("z")
        d, w = phi.d, wronskian(phi)
        wz = sympy.Poly(list(reversed(w.coeffs)), z)
        inf_critical = w.degree < 2 * d - 2
        bicritical = wz.sqf_part().degree() == 2 - inf_critical
        assert is_bicritical(phi) == bicritical
        if not bicritical:
            with pytest.raises(NotBicriticalError):
                critical_points(phi)
            return
        data = critical_points(phi)
        locs = [pt.location for pt in data.points]
        assert len(set(locs)) == 2
        assert any(isinstance(loc, P1Point) and loc.is_infinity for loc in locs) == inf_critical
        for pt in data.points:
            assert pt.index == d == ramification_index(phi, pt.location)
            loc = pt.location
            if isinstance(loc, QuadExtElem):
                x, norm = 2 * loc.x, loc.x ** 2 - loc.y ** 2 * loc.s
                minimal = sympy.Poly([1, -sympy.Rational(x.numerator, x.denominator),
                                      sympy.Rational(norm.numerator, norm.denominator)], z)
                assert wz.rem(minimal).is_zero
            elif not loc.is_infinity:
                assert wz.eval(sympy.Rational(loc.num, loc.den)) == 0

    @settings(max_examples=150, deadline=None)
    @given(random_maps())
    def test_random_maps(self, sympy, phi):
        self.check(sympy, phi)

    @settings(max_examples=100, deadline=None)
    @given(two_term_conjugates())
    def test_two_term_conjugates(self, sympy, phi):
        assert is_bicritical(phi)
        self.check(sympy, phi)


class TestNormalForm:
    def test_family_is_already_normal(self):
        nf = to_normal_form(FAM98)
        assert nf.kind == "bicritical"
        assert (nf.a, nf.b) == (-98, 0)
        mu = nf.mu
        assert mu.b == mu.c == 0 and mu.a == mu.e
        assert verify_normal_form(FAM98, nf)

    def test_power_case(self):
        phi = RationalMap.from_coeffs([0, 0, 5], [1])
        nf = to_normal_form(phi)
        assert nf.kind == "power" and nf.c == 5
        assert verify_normal_form(phi, nf)

    def test_inverse_power_case(self):
        phi = RationalMap.from_coeffs([7], [0, 0, 0, 1])
        nf = to_normal_form(phi)
        assert nf.kind == "inverse_power" and nf.c == 7
        assert verify_normal_form(phi, nf)

    def test_quadratic_critical_field(self):
        nf = to_normal_form(COLLIDER)
        assert nf.kind == "bicritical"
        assert nf.field.kind == "quadratic" and nf.field.s == 2
        assert isinstance(nf.a, QuadExtElem) and not nf.a.is_rational
        assert verify_normal_form(COLLIDER, nf)

    def test_rejects_non_bicritical(self):
        with pytest.raises(NotBicriticalError):
            to_normal_form(RationalMap.from_coeffs([0, 1, 0, 1], [1]))

    def test_inversion_branch(self):
        # phi(infinity) = 0 forces the inversion step
        phi = RationalMap.from_coeffs([1], [5, 0, 1])
        nf = to_normal_form(phi)
        assert verify_normal_form(phi, nf)

    def test_power_case_with_quadratic_critical_points(self):
        # (z^2+2)/(2z) fixes both of its critical points +-sqrt(2)
        phi = RationalMap.from_coeffs([2, 0, 1], [0, 2])
        assert phi(QuadExtElem(0, 1, 2)) == QuadExtElem(0, 1, 2)
        nf = to_normal_form(phi)
        assert nf.kind == "power" and nf.c == 1
        assert verify_normal_form(phi, nf)

    def test_inverse_power_case_with_quadratic_critical_points(self):
        # (z^2-4z+2)/(z^2-2z+2) swaps its critical points +-sqrt(2); the
        # multiplier lands in the critical field (a unit class obstruction
        # keeps it off Q, and the conjugator is only defined over Q(sqrt 2))
        phi = RationalMap.from_coeffs([2, -4, 1], [2, -2, 1])
        r2 = QuadExtElem(0, 1, 2)
        assert phi(r2) == -r2 and phi(-r2) == r2
        nf = to_normal_form(phi)
        assert nf.kind == "inverse_power"
        assert nf.c == QuadExtElem(-3, 2, 2)
        assert verify_normal_form(phi, nf)

    def test_finite_ramification_matches_wronskian_order(self):
        from arbordyn.fieldpoly import root_order

        for phi in (FAM98, COLLIDER, RationalMap.from_coeffs([2, 0, 1], [0, 2])):
            w = wronskian(phi)
            data = critical_points(phi)
            for pt in data.points:
                loc = pt.location
                if isinstance(loc, QuadExtElem):
                    coeffs = [QuadExtElem(c, 0, loc.s) for c in w.coeffs]
                    assert pt.index - 1 == root_order(coeffs, loc)
                elif not loc.is_infinity:
                    coeffs = [Fraction(c) for c in w.coeffs]
                    assert pt.index - 1 == root_order(coeffs, loc.to_fraction())


class TestQuadraticConjugateForm:
    def test_collider(self):
        psi, mu = quadratic_conjugate_form(COLLIDER)
        from arbordyn.quadext import squarefree_kernel

        r = Fraction(psi.p.coeff(0), psi.p.lc)
        s, _ = squarefree_kernel(r.numerator * r.denominator)
        assert s == 2
        assert psi.conjugate(mobius_inverse(mu)) == COLLIDER
        # critical points of the output really are +-sqrt(r)
        assert _root_poly(wronskian(psi), 2) == IntPoly([-r.numerator, 0, r.denominator])

    def test_already_in_form(self):
        psi, _ = quadratic_conjugate_form(COLLIDER)
        assert quadratic_conjugate_form(psi)[0] == psi

    def test_infinity_image_needs_auxiliary_step(self):
        # (z^2 - 2)/z fixes infinity, so the pipeline must move it first
        phi = RationalMap.from_coeffs([-2, 0, 1], [0, 1])
        psi, mu = quadratic_conjugate_form(phi)
        assert psi.conjugate(mobius_inverse(mu)) == phi


class TestNormalFormsConjugate:
    def test_partner_example(self):
        assert normal_forms_conjugate(2, 1, 2, Fraction(1, 8), Fraction(1, 4))

    def test_identity(self):
        assert normal_forms_conjugate(2, 1, 2, 1, 2)

    def test_non_partner(self):
        assert not normal_forms_conjugate(2, 1, 2, 1, 3)

    def test_symmetric_and_involutive(self):
        rng = random.Random(41)
        for _ in range(30):
            d = rng.randint(2, 4)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if a == b or a == 0 or b == 0:
                continue
            a1 = a ** d / b ** (d + 1)
            b1 = a ** (d - 1) / b ** d
            assert normal_forms_conjugate(d, a, b, a1, b1)
            assert normal_forms_conjugate(d, a1, b1, a, b)
            # partner of the partner returns the original pair
            a2 = a1 ** d / b1 ** (d + 1)
            b2 = a1 ** (d - 1) / b1 ** d
            assert (a2, b2) == (a, b)


class TestHigherDegreeNormalForms:
    def _random_mobius(self, rng):
        while True:
            entries = [rng.randint(-4, 4) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                return MobiusTransform.make(*entries)

    @pytest.mark.parametrize("d", [3, 4])
    def test_recovers_conjugate_two_term_form(self, d):
        # conjugate a known (z^d+a)/(z^d+b) by a random rational transform;
        # the pipeline must land on the identical pair or its unique partner
        rng = random.Random(100 + d)
        done = 0
        while done < 15:
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if a == b or a == 0 or b == 0:
                continue
            base = RationalMap.from_fractions(
                [a] + [0] * (d - 1) + [1], [b] + [0] * (d - 1) + [1]
            )
            phi = base.conjugate(self._random_mobius(rng))
            nf = to_normal_form(phi)
            assert nf.kind == "bicritical"
            assert verify_normal_form(phi, nf)
            assert normal_forms_conjugate(d, a, b, nf.a, nf.b)
            done += 1

    @pytest.mark.parametrize("d", [3, 4])
    def test_power_and_inverse_survive_conjugation(self, d):
        rng = random.Random(200 + d)
        for c, kind in ((5, "power"), (7, "inverse_power")):
            if kind == "power":
                base = RationalMap.from_coeffs([0] * d + [c], [1])
            else:
                base = RationalMap.from_coeffs([c], [0] * d + [1])
            for _ in range(8):
                phi = base.conjugate(self._random_mobius(rng))
                nf = to_normal_form(phi)
                assert nf.kind == kind
                assert verify_normal_form(phi, nf)


class TestCriticalOrbitRelation:
    def test_trailing_family(self):
        rel = critical_orbit_relation(FAM98)
        assert rel.kind == "trailing"
        assert (rel.n, rel.m, rel.lead) == (1, 0, 1)

    def test_collision(self):
        rel = critical_orbit_relation(COLLIDER)
        assert rel.kind == "collision"
        assert rel.n == 2
        assert rel.value == QuadExtElem(Fraction(2, 3), 0, 2)
        assert rel.galois_consistent

    def test_single_orbit_fixed_points(self):
        rel = critical_orbit_relation(RationalMap.from_coeffs([0, 0, 1], [1]))
        assert rel.kind == "single_orbit_preperiodic"
        assert (rel.preperiod, rel.period) == (0, 1)

    def test_none_found_with_budget(self):
        rel = critical_orbit_relation(
            RationalMap.from_coeffs([1, 0, 1], [3, 0, 1]), bound=5
        )
        assert rel.kind == "none_found"
        assert rel.search_bound == 5

    def test_non_bicritical_rejected(self):
        with pytest.raises(NotBicriticalError):
            critical_orbit_relation(RationalMap.from_coeffs([0, 1, 0, 1], [1]))


def nested_scan_trailing(o1, o2):
    """The first trailing relation by scanning every (n, m) pair in search order."""
    n1, n2 = len(o1) - 1, len(o2) - 1
    for total in range(1, n1 + n2 + 1):
        for n in range(total // 2 + 1, total + 1):
            m = total - n
            if n <= n1 and m <= n2 and o1[n] == o2[m]:
                return n, m, 1
            if n <= n2 and m <= n1 and o2[n] == o1[m]:
                return n, m, 2
    return None


def assert_trailing_matches_nested_scan(phi, bound):
    data = critical_points(phi)
    s = data.field.s
    o1, o2 = (_forward_orbit(_orbit_step(phi, s), pt.location, bound, 4096)
              for pt in data.points)
    expected = nested_scan_trailing(o1, o2)
    rel = critical_orbit_relation(phi, bound)
    if expected is None:
        assert rel.kind != "trailing"
    else:
        assert rel.kind == "trailing"
        assert (rel.n, rel.m, rel.lead) == expected
    return rel, data


class TestTrailingRelationAgainstNestedScan:
    """The first-index search reports the relation the nested scan finds first."""

    @pytest.mark.parametrize("pc, qc, field, expected", [
        ([-98, 0, 1], [0, 0, 1], "rational", (1, 0, 1)),
        ([-2, -4, -4], [-1, -4, -4], "rational", (1, 0, 1)),
        ([1, 0, 4], [-1, 0, 1], "rational", (2, 0, 1)),
        ([2, -3, 3], [-3, -6, 6], "rational", (1, 0, 2)),
        ([-2, 3, -3], [-4, 3, -3], "rational", (2, 0, 2)),
        ([4, 6, 0], [-3, 0, -4], "quadratic", (1, 0, 1)),
    ])
    def test_table(self, pc, qc, field, expected):
        phi = RationalMap.from_coeffs(pc, qc)
        rel, data = assert_trailing_matches_nested_scan(phi, 8)
        assert data.field.kind == field
        assert (rel.n, rel.m, rel.lead) == expected
        if field == "quadratic":
            assert rel.galois_consistent

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=6, max_size=6))
    def test_random_degree_two_maps(self, coeffs):
        try:
            phi = RationalMap.from_coeffs(coeffs[:3], coeffs[3:])
            ok = is_bicritical(phi)
        except ValueError:
            return
        if ok:
            assert_trailing_matches_nested_scan(phi, 8)
