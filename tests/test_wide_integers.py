"""Wide integers: residue squareness, witness records, theta, value recursion."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbordyn._record import plain
from arbordyn.critical import OrbitRelation
from arbordyn.divisibility import f_sequence, theta
from arbordyn.errors import InvariantViolationError
from arbordyn.factorint import (
    DECIMAL_SAFE_BITS,
    Factorization,
    int_text,
    is_perfect_square,
    is_square_candidate,
)
from arbordyn.galois import maximality_certificate, verify_certificate
from arbordyn.quadext import QuadExtElem
from arbordyn.ratmap import INF, P1Point, RationalMap
from paper_checks import integer_witness, mobius


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-str limit, whatever the environment set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_bound_is_below_the_default_digit_limit():
    assert len(str(2 ** DECIMAL_SAFE_BITS)) < 4300


class TestResidueFilter:
    @given(st.integers(min_value=0, max_value=10 ** 40))
    def test_squares_pass(self, k):
        assert is_square_candidate(k * k)
        assert is_perfect_square(k * k) == (True, k)

    @given(st.integers(min_value=-10 ** 6, max_value=10 ** 40))
    def test_agrees_with_isqrt(self, n):
        want = n >= 0 and math.isqrt(n) ** 2 == n
        assert is_perfect_square(n)[0] == want


class TestWitness:
    def test_wide_square(self, default_digit_limit):
        k = 3 ** 6000 + 2
        rec, square = integer_witness(k * k)
        assert rec["is_square"] is square is True
        rec, square = integer_witness(k * k + 1)
        assert rec["is_square"] is square is False
        rec, square = integer_witness(-k * k)
        assert rec["is_square"] is False and square is True  # |v| is a square, v is not

    def test_deep_certificate_verifies_and_rejects_tampering(self, default_digit_limit):
        cert = maximality_certificate(-98, 15)
        assert cert.overall == "all_maximal"
        deep = cert.levels[-1].theta
        assert deep["route"] == "residue" and deep["index"] == 16
        assert verify_certificate(cert)
        deep["q"] += 4
        assert not verify_certificate(cert)

    def test_strict_bracket_matches_isqrt(self):
        # the verdicts from residues are the exact brackets, square or not
        for a in (-6, -10):
            thetas = theta(f_sequence(a, 12))
            cert = maximality_certificate(a, 11)
            for lvl in cert.levels[1:]:
                th = abs(thetas[lvl.n])
                k = math.isqrt(th)
                assert (lvl.verdict == "maximal") == (k * k < th < (k + 1) ** 2)
            assert a != -10 or cert.levels[1].verdict == "unknown"


def test_int_text(default_digit_limit):
    edge = 2 ** DECIMAL_SAFE_BITS - 1
    assert int_text(-edge) == str(-edge)
    assert int_text(edge + 1) == hex(edge + 1)
    assert int_text(-edge - 1) == "-" + hex(edge + 1)
    fac = Factorization(-1, [(3, 2)], edge + 1, "composite_unfactored")
    assert fac.format() == f"-1 * 3^2 * [{hex(edge + 1)}:composite_unfactored]"


def test_encode(default_digit_limit):
    edge = 2 ** DECIMAL_SAFE_BITS - 1
    assert plain(edge) == edge
    assert plain(edge + 1) == hex(edge + 1)
    assert plain(-edge - 1) == hex(-edge - 1) and plain(-edge - 1).startswith("-0x")
    doc = {"a": [True, None, "x", (edge + 1, 3)], "b": {"c": -(edge + 1)}}
    assert plain(doc) == {"a": [True, None, "x", [hex(edge + 1), 3]],
                          "b": {"c": hex(-(edge + 1))}}
    assert plain(Fraction(-7, 2)) == "-7/2" and plain(Fraction(4)) == "4"
    assert plain(Fraction(1, edge + 1)) == "1/" + hex(edge + 1)
    assert plain(Fraction(-edge, edge + 1)) == f"{-edge}/{hex(edge + 1)}"
    assert plain(P1Point(edge + 1, 3)) == hex(edge + 1) + "/3"
    assert plain([P1Point.infinity(), INF]) == ["inf", "inf"]
    q = QuadExtElem(Fraction(1, edge + 1), -2, 5)
    assert plain(q) == {"x": "1/" + hex(edge + 1), "y": "-2", "s": 5}
    rel = OrbitRelation("collision", 12, n=2, value=q)
    assert plain({"relation": rel})["relation"] == {
        "kind": "collision", "search_bound": 12, "n": 2, "m": None, "lead": None,
        "preperiod": None, "period": None, "value": plain(q), "height_capped": False,
        "galois_consistent": None}
    assert rel.to_dict() == plain(rel)


def moebius_theta(fs, n):
    """theta_n as the Moebius product of Fractions (the defining formula)."""
    value = math.prod(Fraction(fs[d - 1]) ** mobius(n // d)
                      for d in range(1, n + 1) if n % d == 0)
    assert value.denominator == 1
    return value.numerator


def moebius_theta_or_none(fs, n):
    """None if f_d = 0 for some d | n, where the product is undefined, else moebius_theta."""
    if any(fs[d - 1] == 0 for d in range(1, n + 1) if n % d == 0):
        return None
    return moebius_theta(fs, n)


class TestTheta:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-300, 300).filter(bool), st.integers(1, 13))
    def test_matches_moebius_product(self, a, n):
        fs = f_sequence(a, n)
        assert theta(fs) == [moebius_theta_or_none(fs, m) for m in range(1, n + 1)]

    def test_all_n_up_to_30(self):
        fs = f_sequence(-2, 30)
        assert theta(fs) == [moebius_theta(fs, n) for n in range(1, 31)]
        fs = f_sequence(-1, 30)  # f_3 = 0: no theta_n at the multiples of 3
        assert theta(fs) == [moebius_theta_or_none(fs, n) for n in range(1, 31)]
        assert [n for n, th in enumerate(theta(fs), start=1) if th is None] == list(range(3, 31, 3))

    def test_nonzero_remainder_is_an_invariant_violation(self):
        with pytest.raises(InvariantViolationError):
            theta([1, 2, 3, 5])  # 5 is not divisible by theta_1 theta_2 = 2


class TestValueRecursion:
    MAPS = [([-98, 0, 1], [0, 0, 1]), ([1, 0, 1], [3, 0, 1]), ([2, 1, 3], [5, 0, 1]),
            ([1, 0, 0, 2], [0, 1, 0, 1])]

    @pytest.mark.parametrize("p,q", MAPS)
    def test_capped_is_a_prefix(self, p, q):
        phi = RationalMap.from_coeffs(p, q)
        full = phi.origin_values(9)
        assert len(full) == 9
        assert phi.origin_values(9, 10 ** 9) == full
        cap = 200
        values = phi.origin_values(9, cap)
        assert values == full[:len(values)]
        wide = [max(abs(u).bit_length(), abs(v).bit_length()) > cap for u, v in full]
        assert (len(values) < 9) == any(wide)
        assert len(values) == (wide.index(True) if any(wide) else 9)

    @pytest.mark.parametrize("p,q", MAPS)
    def test_values_match_direct_iteration(self, p, q):
        phi = RationalMap.from_coeffs(p, q)
        x = Fraction(-2, 3)
        vals = phi.ladder_values(x, 4)
        pt = P1Point.from_fraction(x)
        for u, v in vals:
            if v == 0:
                break
            pt = phi(pt)
            assert Fraction(u) / Fraction(v) == pt.to_fraction()

    def test_short_requests(self):
        phi = RationalMap.from_coeffs([1, 0, 1], [3, 0, 1])
        assert phi.origin_values(1) == [(1, 3)]
        assert phi.origin_values(0, 100) == []
