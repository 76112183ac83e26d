import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbordyn.errors import ZeroPolynomialError
from arbordyn.intpoly import IntPoly, pseudo_divmod, resultant
from arbordyn.quadext import QuadExtElem
from paper_checks import discriminant


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Independent oracle: Bareiss fraction-free determinant of the Sylvester
    matrix (rows of f shifts, then rows of g shifts, coefficients high to low).
    """
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    if m == 0 and n == 0:
        return 1
    size = m + n
    rows = []
    frow = list(reversed(f.coeffs))
    grow = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([0] * i + frow + [0] * (size - i - len(frow)))
    for i in range(m):
        rows.append([0] * i + grow + [0] * (size - i - len(grow)))
    # Bareiss elimination
    mat = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def z_poly(*coeffs_high_to_low):
    return IntPoly(list(reversed(coeffs_high_to_low)))


small_polys = st.lists(st.integers(-9, 9), min_size=2, max_size=6).filter(
    lambda cs: any(c != 0 for c in cs[1:])
).map(IntPoly)


class TestResultant:
    def test_family_resultant_is_a_squared(self):
        a = -98
        assert resultant(IntPoly([a, 0, 1]), IntPoly([0, 0, 1])) == a * a == 9604

    def test_small_quadratic_pair(self):
        f, g = IntPoly([1, 0, 1]), IntPoly([3, 0, 1])
        assert resultant(f, g) == 4
        assert sylvester_resultant(f, g) == 4

    def test_common_root_gives_zero(self):
        f = IntPoly([-2, 1, 1])
        assert resultant(f, f) == 0
        assert resultant(f, f * IntPoly([5, 3])) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            resultant(IntPoly.zero(), IntPoly([1, 1]))

    def test_constant_cases(self):
        assert resultant(IntPoly([3]), IntPoly([1, 2, 1])) == 9
        assert resultant(IntPoly([1, 2, 1]), IntPoly([-2])) == 4

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys)
    def test_matches_sylvester_oracle(self, f, g):
        assert resultant(f, g) == sylvester_resultant(f, g)

    @settings(max_examples=80, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_multiplicative_in_second_argument(self, f, g, h):
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_zero_iff_common_factor(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        rng = random.Random(7)
        for _ in range(60):
            f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))] + [1])
            g = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))] + [1])
            shared = IntPoly([rng.randint(-4, 4), 1])
            assert resultant(f * shared, g * shared) == 0
            fz, gz = (sympy.Poly(list(reversed(h.coeffs)), z) for h in (f, g))
            common = sympy.gcd(fz, gz).degree() > 0
            assert (resultant(f, g) == 0) == common


class TestDiscriminant:
    def test_quadratic_family(self):
        assert discriminant(IntPoly([-98, 0, 1])) == 392
        assert discriminant(IntPoly([7, 0, 1])) == -28

    def test_z2_minus_2(self):
        assert discriminant(IntPoly([-2, 0, 1])) == 8

    def test_constant_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            discriminant(IntPoly([5]))

    def test_product_rule(self):
        # Disc(fg) = Disc(f) Disc(g) Res(f,g)^2 for coprime f, g
        rng = random.Random(11)
        done = 0
        while done < 40:
            f = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
            g = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
            if f.degree < 1 or g.degree < 1:
                continue
            r = resultant(f, g)
            if r == 0 or discriminant(f) == 0 or discriminant(g) == 0:
                continue
            assert discriminant(f * g) == discriminant(f) * discriminant(g) * r * r
            done += 1


class TestPolyArithmetic:
    def test_pseudo_division_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            f = IntPoly([rng.randint(-9, 9) for _ in range(5)] + [rng.randint(1, 9)])
            g = IntPoly([rng.randint(-9, 9) for _ in range(2)] + [rng.randint(1, 9)])
            q, r = pseudo_divmod(f, g)
            scale = g.lc ** (f.degree - g.degree + 1)
            assert scale * f == q * g + r
            assert r.is_zero or r.degree < g.degree

    def test_scalar_exact_div_errors_when_inexact(self):
        assert IntPoly([2, 0, 4]).scalar_exact_div(2) == IntPoly([1, 0, 2])
        with pytest.raises(ValueError):
            IntPoly([2, 0, 3]).scalar_exact_div(2)

    def test_evaluation_exact_on_fractions(self):
        f = IntPoly([1, -3, 2])
        assert f(Fraction(1, 2)) == Fraction(0)

    def test_pow_forms_no_product_wider_than_its_result(self, monkeypatch):
        degrees = []
        mul = IntPoly.__mul__

        def recording_mul(self, other):
            out = mul(self, other)
            degrees.append(out.degree)
            return out

        monkeypatch.setattr(IntPoly, "__mul__", recording_mul)
        f = IntPoly([3, -1, 2])
        expected = IntPoly.one()
        for e in range(40):
            degrees.clear()
            power = f ** e
            assert power == expected
            assert max(degrees, default=0) <= power.degree == 2 * e
            expected = mul(expected, f)

    def test_degree_and_lc(self):
        assert IntPoly([0, 0, 0]).is_zero
        assert IntPoly([0, 0, 0]).degree == -1
        assert IntPoly([5, 0, 7]).degree == 2
        assert IntPoly([5, 0, 7]).lc == 7

    def test_reverse(self):
        f = IntPoly([3, 0, 1])  # z^2 + 3
        assert f.reverse(2) == IntPoly([1, 0, 3])
        assert f.reverse(3) == IntPoly([0, 1, 0, 3])


small_fractions = st.fractions(max_denominator=50).filter(lambda q: abs(q.numerator) < 10 ** 6)


class TestQuadraticEvaluation:
    """IntPoly.__call__ is the one evaluator at x + y*sqrt(s)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=7).filter(any),
        small_fractions,
        small_fractions,
        st.sampled_from([-7, -3, -2, -1, 2, 3, 5, 6, 7, 10, 15, 21, 194]),
    )
    def test_matches_horner_on_pairs(self, coeffs, x, y, s):
        f = IntPoly(coeffs)
        # Horner on plain (a, b) = a + b*sqrt(s) pairs
        a, b = Fraction(0), Fraction(0)
        for c in reversed(f.coeffs):
            a, b = a * x + b * y * s + c, a * y + b * x
        got = f(QuadExtElem(x, y, s))
        assert isinstance(got, QuadExtElem)
        assert (got.x, got.y, got.s) == (a, b, s)
