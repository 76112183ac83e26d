from fractions import Fraction

import pytest

from arbordyn.quadext import QuadExtElem, squarefree_kernel


def q2(x, y):
    return QuadExtElem(Fraction(x), Fraction(y), 2)


class TestArithmetic:
    def test_mul(self):
        # (1 + sqrt2)(3 - sqrt2) = 3 - sqrt2 + 3 sqrt2 - 2 = 1 + 2 sqrt2
        assert q2(1, 1) * q2(3, -1) == q2(1, 2)

    def test_division_round_trip(self):
        a, b = q2(Fraction(7, 2), -3), q2(5, 1)
        assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q2(1, 1) / q2(0, 0)

    def test_mixed_scalars(self):
        assert q2(1, 1) + 2 == q2(3, 1)
        assert 3 * q2(0, 1) == q2(0, 3)
        assert 1 / q2(0, 1) == q2(0, Fraction(1, 2))

    def test_pow(self):
        assert q2(1, 1) ** 2 == q2(3, 2)
        assert q2(1, 1) ** 0 == 1
        assert q2(1, 1) ** -1 == q2(-1, 1)  # 1/(1+sqrt2) = sqrt2 - 1

    def test_pow_forms_no_product_wider_than_its_result(self, monkeypatch):
        heights = []
        mul = QuadExtElem.__mul__

        def recording_mul(self, other):
            out = mul(self, other)
            heights.append(out.height_bits())
            return out

        monkeypatch.setattr(QuadExtElem, "__mul__", recording_mul)
        x = QuadExtElem(3, 2, 7)
        expected = QuadExtElem(1, 0, 7)
        for e in range(1, 40):
            expected = mul(expected, x)
            heights.clear()
            power = x ** e
            assert power == expected
            assert max(heights, default=0) <= power.height_bits()

    def test_norm_and_conjugate(self):
        a = q2(3, 5)
        assert a.norm() == 9 - 2 * 25
        assert a * a.conjugate() == a.norm()
        assert a.conjugate().conjugate() == a

    def test_rationality(self):
        assert q2(7, 0).is_rational and q2(7, 0).as_fraction() == 7
        assert not q2(0, 1).is_rational
        assert q2(7, 0) == 7
        assert q2(7, 0) == Fraction(14, 2)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            q2(1, 1) + QuadExtElem(1, 1, 3)

    def test_hash_consistent_with_rationals(self):
        assert hash(q2(7, 0)) == hash(Fraction(7))


class TestSquarefreeKernel:
    def test_positive(self):
        assert squarefree_kernel(8) == (2, 2)
        assert squarefree_kernel(9604) == (1, 98)
        assert squarefree_kernel(12) == (3, 2)

    def test_negative(self):
        assert squarefree_kernel(-12) == (-3, 2)
        assert squarefree_kernel(-1) == (-1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_kernel(0)
