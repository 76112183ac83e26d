"""The one evaluator of a map at points of P^1, against independent oracles.

``RationalMap.__call__`` on P1Points and on quadratic-field values is checked
against Horner evaluation of p and q in Fractions or QuadExtElems, with a pole
going to INF and infinity sent through the leading coefficients.  The iterate
ladder is checked against a naive dense substitution, and ``RationalMap.res``
against a Sylvester determinant of the padded degree-d coefficient vectors.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arbordyn.errors import DegenerateMapError, DegreeTooSmallError
from arbordyn.intpoly import IntPoly
from arbordyn.quadext import QuadExtElem
from arbordyn.ratmap import INF, P1Point, RationalMap

RADICANDS = (-7, -1, 2, 3, 5, 13)


def horner(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def oracle(phi, x):
    """phi(x) for a Fraction, a QuadExtElem or INF, as Horner computes it."""
    if x is INF:
        top_p, top_q = phi.p.coeff(phi.d), phi.q.coeff(phi.d)
        return INF if top_q == 0 else Fraction(top_p, top_q)
    pv, qv = horner(phi.p.coeffs, x), horner(phi.q.coeffs, x)
    return INF if qv == 0 else pv / qv


def make_map(pc, qc):
    try:
        return RationalMap.from_coeffs(pc, qc)
    except (DegenerateMapError, DegreeTooSmallError):
        return None


def sparse_poly(d, terms):
    cs = [0] * (d + 1)
    for e, c in terms:
        cs[e] += c
    return cs


@st.composite
def dense_maps(draw):
    d = draw(st.integers(2, 6))
    coeffs = st.lists(st.integers(-20, 20), min_size=d + 1, max_size=d + 1)
    phi = make_map(draw(coeffs), draw(coeffs))
    assume(phi is not None)
    return phi


@st.composite
def sparse_maps(draw, max_degree=60):
    """Numerator and denominator of two or three terms each, degree <= max_degree."""
    d = draw(st.integers(2, max_degree))
    term = st.tuples(st.integers(0, d), st.integers(-30, 30).filter(bool))
    pair = [sparse_poly(d, draw(st.lists(term, min_size=2, max_size=3))) for _ in "pq"]
    # one member carries the degree and one the constant term, so that 0 and
    # infinity are not common roots
    pair[draw(st.integers(0, 1))][d] = draw(st.integers(1, 9))
    pair[draw(st.integers(0, 1))][0] = draw(st.integers(-9, 9).filter(bool))
    phi = make_map(*pair)
    assume(phi is not None)
    return phi


maps = st.one_of(dense_maps(), sparse_maps())
fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
quad_values = st.builds(QuadExtElem, fractions, fractions, st.sampled_from(RADICANDS))


def assert_point_matches(phi, x):
    """phi on the P1Point of x (a Fraction or INF) agrees with the oracle."""
    pt = P1Point.infinity() if x is INF else P1Point.from_fraction(x)
    image = phi(pt)
    assert P1Point.of(image.num, image.den) == image  # normalized without a second gcd
    expected = oracle(phi, x)
    if expected is INF:
        assert image.is_infinity
    else:
        assert image.to_fraction() == expected


class TestAgainstHorner:
    @settings(max_examples=200, deadline=None)
    @given(maps, fractions)
    def test_p1_points(self, phi, x):
        assert_point_matches(phi, x)

    @settings(max_examples=50, deadline=None)
    @given(maps)
    def test_infinity(self, phi):
        assert_point_matches(phi, INF)
        assert phi(INF) == oracle(phi, INF)

    @settings(max_examples=150, deadline=None)
    @given(maps, quad_values)
    def test_quadratic_field_values(self, phi, x):
        assert phi(x) == oracle(phi, x)

    @pytest.mark.parametrize("pc, qc, pole", [
        ([1, 0, 1], [-4, 0, 1], Fraction(2)),
        ([2, 0, 3], [0, 0, 1], Fraction(0)),
        ([1, 5, 0, 1], [-8, 0, 0, 27], Fraction(2, 3)),
        (sparse_poly(60, [(60, 1), (0, 7)]), sparse_poly(60, [(60, 1), (0, -1)]), Fraction(-1)),
        (sparse_poly(37, [(37, 2), (0, 1)]), sparse_poly(37, [(1, 1)]), Fraction(0)),
    ])
    def test_poles(self, pc, qc, pole):
        phi = RationalMap.from_coeffs(pc, qc)
        assert phi(P1Point.from_fraction(pole)).is_infinity
        assert_point_matches(phi, pole)

    def test_quadratic_pole(self):
        phi = RationalMap.from_coeffs([1, 0, 1], [-2, 0, 1])  # (z^2 + 1)/(z^2 - 2)
        r2 = QuadExtElem(0, 1, 2)
        assert phi(r2) is INF and phi(-r2) is INF
        assert phi(r2 + 1) == oracle(phi, r2 + 1)

    @settings(max_examples=100, deadline=None)
    @given(sparse_maps(), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
    def test_one_gcd_against_the_resultant(self, phi, num, den):
        """The gcd taken through ``res`` is the full gcd of the image pair."""
        g = math.gcd(num, den)
        num, den = num // g, den // g
        pc, qc = phi.pc, phi.qc
        u = sum(c * num ** i * den ** (phi.d - i) for i, c in enumerate(pc))
        v = sum(c * num ** i * den ** (phi.d - i) for i, c in enumerate(qc))
        g = math.gcd(u, v)
        assert phi.res % g == 0
        assert phi(P1Point.of(num, den)) == P1Point.of(u, v)


def naive_step(pc, qc, pn, qn):
    """sum_i c_i p_n^i q_n^(d-i), every power by repeated multiplication."""
    d = len(pc) - 1
    out = []
    for cs in (pc, qc):
        acc = IntPoly.zero()
        for i, c in enumerate(cs):
            term = IntPoly([c])
            for _ in range(i):
                term = term * pn
            for _ in range(d - i):
                term = term * qn
            acc = acc + term
        out.append(acc)
    return tuple(out)


class TestLadderAgainstNaiveSubstitution:
    @settings(max_examples=20, deadline=None)
    @given(st.one_of(dense_maps().filter(lambda phi: phi.d <= 3), sparse_maps(max_degree=4)))
    def test_levels_one_to_four(self, phi):
        pc, qc = phi.pc, phi.qc
        levels = phi.ladder(4)
        expected = (phi.p, phi.q)
        for n in range(4):
            assert levels[n] == expected
            expected = naive_step(pc, qc, *expected)


def sylvester_det(sympy, pc, qc):
    """Determinant of the Sylvester matrix of two degree-d forms, padded."""
    d = len(pc) - 1
    top_p, top_q = list(reversed(pc)), list(reversed(qc))
    rows = [[0] * k + top_p + [0] * (d - 1 - k) for k in range(d)]
    rows += [[0] * k + top_q + [0] * (d - 1 - k) for k in range(d)]
    return int(sympy.Matrix(rows).det())


class TestProjectiveResultant:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(dense_maps(), sparse_maps(max_degree=12)))
    def test_res_is_the_sylvester_determinant(self, phi):
        sympy = pytest.importorskip("sympy")
        pc, qc = phi.pc, phi.qc
        assert phi.res == abs(sylvester_det(sympy, pc, qc))

    def test_lower_degree_member_is_padded(self):
        # (z^2 - 98)/z^2 and 1/(z^3 + 2): a constant or a short member still
        # counts as a form of degree d
        assert RationalMap.from_coeffs([-98, 0, 1], [0, 0, 1]).res == 98 ** 2
        assert RationalMap.from_coeffs([1], [2, 0, 0, 1]).res == 1
