"""Every factorization goes through factor_integer, checked against brute force.

factor_counts (the complete-factorization policy), mobius and radical of
tests/paper_checks.py, quadext.squarefree_kernel and trial_division are
compared with a plain trial-division oracle kept in this file, and
factor_counts with products of primes up to 2^61.  The block scan of trial_division is also compared with the
loop over every prime that it replaced, on numbers up to about 2000 bits.
"""

import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from arbordyn import factorint
from arbordyn.errors import FactoringBudgetError
from arbordyn.factorint import (
    FactorBudget,
    factor_counts,
    factor_integer,
    is_probable_prime,
    trial_division,
)
from arbordyn.quadext import squarefree_kernel
from paper_checks import mobius, radical

LIMIT = 20000


def oracle(n: int) -> dict[int, int]:
    """{p: e} of |n| by dividing with every d = 2, 3, 4, ..."""
    n, out, d = abs(n), Counter(), 2
    while d * d <= n:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1
    if n > 1:
        out[n] += 1
    return dict(out)


ORACLE = {n: oracle(n) for n in range(1, LIMIT)}
PRIMES = [n for n in range(2, LIMIT) if ORACLE[n] == {n: 1}]


def test_factor_counts_matches_brute_force():
    for n in range(1, LIMIT):
        assert factor_counts(n) == ORACLE[n], n
        assert factor_counts(-n) == ORACLE[n], -n


def test_mobius_radical_match_brute_force():
    for n in range(1, LIMIT):
        counts = ORACLE[n]
        squarefree = all(e == 1 for e in counts.values())
        assert mobius(n) == ((-1) ** len(counts) if squarefree else 0), n
        assert radical(n) == math.prod(counts), n


def test_squarefree_kernel_matches_brute_force():
    for n in range(1, LIMIT):
        for v in (n, -n):
            s, m = squarefree_kernel(v)
            assert s * m * m == v and m > 0, v
            assert abs(s) == 1 or set(ORACLE[abs(s)].values()) == {1}, v


def reference_trial_division(n: int, bound: int) -> tuple[dict[int, int], int]:
    """The loop over every prime below ``bound``, with no cap at sqrt(n).

    PRIMES never runs out first: it passes sqrt(n) for every n < LIMIT.
    """
    n, counts = abs(n), {}
    for p in PRIMES:
        if p >= bound or p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    return counts, n


def test_trial_division_with_bounds_above_and_below_sqrt():
    for n in list(range(1, 3000)) + list(range(3000, LIMIT, 7)):
        root = math.isqrt(n)
        for bound in {2, 3, max(2, root // 2), root, root + 1, root + 2, 10 ** 6}:
            counts, rest = trial_division(n, bound)
            assert (counts, rest) == reference_trial_division(n, bound), (n, bound)
            assert trial_division(-n, bound) == (counts, rest)
            assert math.prod(p ** e for p, e in counts.items()) * rest == n
            # rest is 1, a prime, or free of primes below the bound
            assert rest == 1 or len(ORACLE[rest]) == 1 or min(ORACLE[rest]) >= bound


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


SMALL_PRIME = st.integers(2, 2 ** 16).map(next_prime)
BIG_PRIME = st.integers(2 ** 40, 2 ** 61 - 1).map(next_prime)  # 2^61 - 1 is prime


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(SMALL_PRIME, st.integers(1, 3)), max_size=4),
       st.lists(BIG_PRIME, max_size=1),
       st.sampled_from([1, -1]))
def test_factor_counts_of_products_of_primes(smalls, bigs, sign):
    expected = Counter()
    for p, e in smalls:
        expected[p] += e
    for p in bigs:
        expected[p] += 1
    n = sign * math.prod(p ** e for p, e in expected.items())
    counts = factor_counts(n)
    assert counts == dict(expected)
    s, m = squarefree_kernel(n)
    assert s == sign * math.prod(p for p, e in expected.items() if e % 2)
    assert radical(abs(n)) == math.prod(expected)


@settings(max_examples=20, deadline=None)
@given(BIG_PRIME, st.integers(2 ** 20, 2 ** 24).map(next_prime))
def test_factor_counts_splits_a_medium_prime_from_a_big_one(big, medium):
    assert factor_counts(big * medium) == {medium: 1, big: 1}


def test_incomplete_factorization_raises():
    n = (10 ** 9 + 7) * (10 ** 9 + 9)
    starved = FactorBudget(trial_bound=2, rho_iterations=1)
    assert factor_integer(n, starved).cofactor_status == factorint.COMPOSITE_UNFACTORED
    with pytest.raises(FactoringBudgetError):
        factor_counts(n, starved)
    with pytest.raises(FactoringBudgetError):
        squarefree_kernel(n, starved)
    assert factor_counts(n) == {10 ** 9 + 7: 1, 10 ** 9 + 9: 1}


def test_probable_prime_cofactor_counts_once():
    m127 = 2 ** 127 - 1
    fac = factor_integer(12 * m127)
    assert fac.cofactor_status == factorint.PROBABLE_PRIME
    assert factor_counts(12 * m127) == {2: 2, 3: 1, m127: 1}


def test_sieve_extension_matches_brute_force():
    rng = random.Random(7)
    for bound in [rng.randrange(-2, LIMIT) for _ in range(300)]:
        assert factorint.primes_below(bound) == [p for p in PRIMES if p < bound], bound


def per_prime_trial_division(n: int, bound: int) -> tuple[dict[int, int], int]:
    """trial_division as it was before the block scan: one division per prime."""
    n = abs(n)
    counts: dict[int, int] = {}
    for p in factorint.primes_below(min(bound, math.isqrt(n) + 1)):
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    return counts, n


# The primes on either side of the edges of blocks 0 and 1, of the last block
# in the table (999424 = 488 * 2048), of the default bound and of 3 * 10^6.
EDGE_PRIMES = [2039, 2053, 4093, 4099, 999389, 999431, 999983, 1000003, 2999999, 3000017]
BOUNDS = [1, 2, 3, 2047, 2048, 2049, 999424, 10 ** 6, 10 ** 6 + 1, 3 * 10 ** 6]
PRIME_POWER = st.tuples(
    st.one_of(st.sampled_from(EDGE_PRIMES),
              st.integers(2, 3 * 10 ** 6).map(next_prime),
              st.integers(2 ** 22, 2 ** 64).map(next_prime)),
    st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
           st.just(1),
           st.builds(lambda powers, cofactor: math.prod(p ** e for p, e in powers) * cofactor,
                     st.lists(PRIME_POWER, max_size=8),
                     st.integers(1, 2 ** 1500))),
       st.sampled_from([1, -1]),
       st.sampled_from(BOUNDS))
def test_trial_division_equals_the_per_prime_loop(n, sign, bound):
    assert trial_division(sign * n, bound) == per_prime_trial_division(n, bound)
