"""The prime-block table that trial division reads, and the builder it caches.

src/arbordyn/prime_blocks.bin holds the product of the primes in each full
block of 2048 integers below 10^6.  It is only a cache of
factorint._build_blocks: the test here rebuilds it byte for byte, and running
this file as a script writes it again:

    PYTHONPATH=src python tests/test_prime_blocks.py
"""

import math

import pytest

from arbordyn import factorint
from arbordyn.factorint import is_probable_prime, trial_division

TABLE_BLOCKS = 10 ** 6 // factorint._BLOCK


def table_bytes() -> bytes:
    """prime_blocks.bin as factorint._read_table expects it."""
    out = [factorint._TABLE_TAG, factorint._BLOCK.to_bytes(4, "little"),
           TABLE_BLOCKS.to_bytes(4, "little")]
    for product in factorint._build_blocks(0, TABLE_BLOCKS):
        data = product.to_bytes((product.bit_length() + 7) // 8, "little")
        out += [len(data).to_bytes(4, "little"), data]
    return b"".join(out)


def naive_is_prime(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))


@pytest.fixture
def fresh(monkeypatch):
    """factorint with no block read or built."""
    monkeypatch.setattr(factorint, "_blocks", [])
    monkeypatch.setattr(factorint, "_far", (0, []))
    return factorint


def test_table_is_the_builders_output():
    with open(factorint._TABLE_PATH, "rb") as f:
        assert f.read() == table_bytes()
    assert len(factorint._read_table()) == TABLE_BLOCKS == 488


def test_three_blocks_against_naive_primality(fresh):
    for k in (0, 1, TABLE_BLOCKS - 1):
        lo = k * fresh._BLOCK
        expected = math.prod(p for p in range(lo, lo + fresh._BLOCK) if naive_is_prime(p))
        assert fresh._block(k) == expected, k


def test_blocks_past_the_table_match_the_sieve(fresh):
    # blocks 488 to 1463 are built, not read; 3 * 10^6 lies in block 1464
    expected = {}
    for p in fresh.primes_below(3 * 10 ** 6):
        expected[p // fresh._BLOCK] = expected.get(p // fresh._BLOCK, 1) * p
    for k in range(TABLE_BLOCKS, 3 * 10 ** 6 // fresh._BLOCK):
        assert fresh._block(k) == expected[k], k


def test_the_block_holding_ten_to_the_ten_sieves_only_to_its_root(fresh, monkeypatch):
    real = fresh.primes_below

    def primes_below(bound):
        assert bound <= 10 ** 5 + 1, bound
        return real(bound)

    monkeypatch.setattr(fresh, "primes_below", primes_below)
    k = 10 ** 10 // fresh._BLOCK
    lo = k * fresh._BLOCK
    # is_probable_prime is deterministic below 3.3e24
    expected = math.prod(p for p in range(lo, lo + fresh._BLOCK) if is_probable_prime(p))
    assert fresh._block(k) == expected
    # past the cached blocks only the one segment is kept
    assert fresh._far[0] <= k < fresh._far[0] + fresh._SEGMENT
    assert len(fresh._blocks) == TABLE_BLOCKS


def test_table_is_read_on_the_first_full_block(fresh):
    # below 2048^2 the scan never leaves block 0, which it walks
    assert trial_division(2039 * 2029, 10 ** 6) == ({2029: 1}, 2039)
    assert trial_division(2 ** 61 - 1, 2047) == ({}, 2 ** 61 - 1)
    assert fresh._blocks == []
    assert trial_division(2053 * 2063, 10 ** 6) == ({2053: 1}, 2063)
    assert len(fresh._blocks) == TABLE_BLOCKS
    assert [k for k, p in enumerate(fresh._blocks) if type(p) is int] == [0]


def test_factoring_below_the_table_sieves_nothing(fresh, monkeypatch):
    bounds, real = [], fresh.primes_below
    monkeypatch.setattr(fresh, "primes_below", lambda bound: bounds.append(bound) or real(bound))
    for n in (2 ** 61 - 1, (10 ** 9 + 7) * (10 ** 9 + 9), 999983 ** 2 * 3 ** 40):
        fresh.factor_integer(n)
    assert bounds == []


if __name__ == "__main__":
    with open(factorint._TABLE_PATH, "wb") as f:
        f.write(table_bytes())
