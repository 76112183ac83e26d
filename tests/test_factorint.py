import math
import random

import pytest

from arbordyn import factorint
from arbordyn.factorint import (
    FactorBudget,
    _brent_rho,
    factor_integer,
    is_perfect_square,
    is_probable_prime,
    primes_below,
    valuation,
)
from paper_checks import mobius, radical

# 39-digit Mersenne prime, above the deterministic Miller-Rabin range
M127 = 2 ** 127 - 1


class TestPerfectSquare:
    def test_examples(self):
        assert is_perfect_square(9604) == (True, 98)
        assert is_perfect_square(9311) == (False, None)
        assert is_perfect_square(-4) == (False, None)
        assert is_perfect_square(0) == (True, 0)

    def test_agrees_with_exhaustive_squaring(self):
        limit = 10 ** 6
        squares = {k * k for k in range(math.isqrt(limit) + 1)}
        for n in range(limit + 1):
            assert is_perfect_square(n)[0] == (n in squares)


class TestPrimality:
    def test_small_primes_and_composites(self):
        primes = {2, 3, 5, 7, 11, 13, 97, 9311, 42461, 82530809}
        for p in primes:
            assert is_probable_prime(p)
        for n in (0, 1, 4, 9311 * 97, 10 ** 6):
            assert not is_probable_prime(n)

    def test_carmichael_and_strong_pseudoprimes(self):
        for n in (561, 41041, 3215031751, 3825123056546413051):
            assert not is_probable_prime(n)

    def test_large_known_prime(self):
        assert is_probable_prime(M127)


class TestFactorInteger:
    def test_example_884(self):
        fac = factor_integer(884)
        assert fac.factors == [(2, 2), (13, 1), (17, 1)]
        assert fac.value() == 884
        assert fac.cofactor == 1 and fac.cofactor_status == "unit"

    def test_one_and_sign(self):
        fac = factor_integer(1)
        assert fac.factors == [] and fac.cofactor == 1 and fac.sign == 1
        neg = factor_integer(-12)
        assert neg.sign == -1 and neg.value() == -12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_integer(0)

    def test_reconstruction_on_random_64_bit(self):
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.getrandbits(64) + 1
            if rng.random() < 0.5:
                n = -n
            fac = factor_integer(n)
            assert fac.value() == n
            primes = fac.prime_list()
            assert primes == sorted(primes) and len(set(primes)) == len(primes)
            assert all(is_probable_prime(p) for p in primes)

    def test_probable_prime_cofactor(self):
        fac = factor_integer(4 * M127)
        assert fac.factors == [(2, 2)]
        assert fac.cofactor == M127
        assert fac.cofactor_status == "probable_prime"

    def test_budget_exhaustion_flags_composite(self):
        hard = M127 * (2 ** 89 - 1)  # semiprime with no small factors
        fac = factor_integer(hard, FactorBudget(trial_bound=10 ** 3, rho_iterations=10))
        assert fac.cofactor_status == "composite_unfactored"
        assert fac.value() == hard

    def test_rho_splits_medium_factors(self):
        n = 15170009 * 207272581
        fac = factor_integer(n, FactorBudget(trial_bound=10 ** 4))
        assert fac.cofactor == 1
        assert {p for p, _ in fac.factors} >= {15170009}
        assert fac.value() == n

    def test_seed_determinism(self):
        n = 3144217 * 82530809 * 97
        a = factor_integer(n, FactorBudget(seed=5))
        b = factor_integer(n, FactorBudget(seed=5))
        assert a.to_dict() == b.to_dict()


class TestArithmeticFunctions:
    def test_mobius_examples(self):
        assert mobius(4) == 0
        assert mobius(6) == 1
        assert mobius(2) == -1
        assert mobius(1) == 1

    def test_mobius_divisor_sum_vanishes(self):
        for n in range(2, 51):
            assert sum(mobius(n // d) for d in range(1, n + 1) if n % d == 0) == 0

    def test_mobius_odd_divisor_sum_vanishes(self):
        # sum over odd divisors d of n of mu(n/d) is 0 once n >= 3
        for n in range(3, 51):
            total = sum(mobius(n // d) for d in range(1, n + 1, 2) if n % d == 0)
            assert total == 0

    def test_radical_and_valuation(self):
        assert radical(12) == 6
        assert valuation(48, 2) == 4
        assert valuation(-975, 5) == 2

    def test_primes_below(self):
        ps = primes_below(30)
        assert ps == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestRhoBudgetIsHardCap:
    def test_iterations_never_exceed_budget(self):
        n = (2 ** 61 - 1) * (2 ** 89 - 1)  # no factor within these budgets
        for budget in (1, 127, 128, 129, 1000, 4096):
            factor, used = _brent_rho(n, random.Random(0), budget)
            assert factor is None
            assert used <= budget


def test_one_primality_test_per_leftover(monkeypatch):
    calls = []

    def counting(n, *args, **kwargs):
        calls.append(n)
        return is_probable_prime(n, *args, **kwargs)

    monkeypatch.setattr(factorint, "is_probable_prime", counting)
    fac = factor_integer(4 * M127)
    assert fac.cofactor_status == "probable_prime"
    assert calls == [M127]


# _brent_rho as it was written with abs(): q = q * |x - y| % n and a backtrack
# on gcd(|x - ys|, n).  BACKTRACKS counts the calls that reach the g == n branch.
BACKTRACKS = []


def reference_brent_rho(n, rng, budget):
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g, r, q = 1, 1, 1
    used = 0
    x = y
    ys = y
    while g == 1:
        if used >= budget:
            return None, used
        x = y
        steps = min(r, budget - used)
        for _ in range(steps):
            y = (y * y + c) % n
        used += steps
        k = 0
        while k < r and g == 1 and used < budget:
            ys = y
            steps = min(m, r - k, budget - used)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            used += steps
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        BACKTRACKS.append(n)
        g = 1
        while g == 1:
            if used >= budget:
                return None, used
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            used += 1
    return (g if g != n else None), used


def random_prime(rng, bits):
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(p):
            return p


def test_brent_rho_without_abs_matches_reference():
    # q changes only by sign mod n, so every gcd, and so (factor, used), is unchanged
    rng = random.Random(2024)
    BACKTRACKS.clear()
    cases = 0
    for bits in (20, 24, 32, 48, 64, 100, 160, 240, 320, 400):
        for _ in range(12):
            small = rng.randint(5, min(32, bits // 2))
            n = random_prime(rng, small) * random_prime(rng, bits - small)
            budget = int(10 ** rng.uniform(0, 4))
            seed = rng.randrange(1000)
            expected = reference_brent_rho(n, random.Random(seed), budget)
            assert _brent_rho(n, random.Random(seed), budget) == expected, (n, budget, seed)
            cases += 1
    assert cases == 120 and BACKTRACKS  # some inputs took the g == n branch
