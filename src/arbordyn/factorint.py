"""Integer primality, perfect squares, and factorization.

Factoring runs trial division up to a configurable bound, then Brent's cycle
variant of Pollard's rho under an iteration budget.  Trial division scans the
integers in blocks of 2048 and takes one gcd with the product of each block's
primes, dividing by single primes only in blocks that share a factor with n
(Bernstein, "How to find small factors of integers", 2002).  The products of
the full blocks below 10^6 ship as the package file prime_blocks.bin, read on
the first scan that needs one; blocks past it are built by a segmented sieve.
factor_each factors a list of integers term for term as factor_integer does,
and once two or more of them need Brent-rho, splits those in forked workers.
Primality is Miller-Rabin:
deterministic with the fixed witness set below the proven bound
3317044064679887385961981 (~3.3e24), and 64 seeded random rounds above it, in
which case a passing number is only ever labeled a *probable* prime.
"""

from __future__ import annotations

import _thread
import bisect
import itertools
import marshal
import math
import os
import random
from typing import Sequence

# DECIMAL_SAFE_BITS and int_text are defined with the JSON rule in _record.
from ._record import DECIMAL_SAFE_BITS, Fresh, Record, int_text  # noqa: F401
from .errors import FactoringBudgetError

# The default effort of a FactorBudget, and of the command-line options that set it.
DEFAULT_TRIAL_BOUND = 10 ** 6
DEFAULT_RHO_BUDGET = 10 ** 8
DEFAULT_SEED = 0

# Smallest composite not caught by the first twelve prime witnesses.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (top, every prime below top): one list, which a larger bound extends by
# sieving only the numbers from top on, and from which smaller bounds are cut.
_sieve: tuple[int, list[int]] = (3, [2])


def primes_below(bound: int) -> list[int]:
    """All primes < bound by a cached sieve of Eratosthenes over the odd numbers."""
    global _sieve
    top, primes = _sieve
    if bound > top:
        root = math.isqrt(bound - 1)
        if root >= top:  # the primes up to root come first
            primes, top = primes_below(root + 1), root + 1
        # sieve[i] stands for the odd number lo + 2i < bound
        lo = top | 1
        sieve = bytearray([1]) * len(range(lo, bound, 2))
        for p in primes[1:bisect.bisect_right(primes, root)]:
            first = max(p * p, -(-lo // p) * p)  # first multiple of p >= lo and >= p*p
            i = (first + p * (first % 2 == 0) - lo) // 2  # index of the first odd one
            sieve[i::p] = bytes(len(range(i, len(sieve), p)))
        primes = primes + list(itertools.compress(range(lo, bound, 2), sieve))
        _sieve = (bound, primes)
    return primes if bound >= top else primes[:bisect.bisect_left(primes, bound)]


def _mr_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round; True means 'n may be prime'."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, seed: int = 0, rounds: int = 64) -> bool:
    """Miller-Rabin primality test.

    Deterministic (a genuine primality proof) for n below ~3.3e24; above that
    bound the answer True only means "probable prime" after ``rounds`` seeded
    random witnesses.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_mr_round(n, a, d, r) for a in _MR_WITNESSES)
    rng = random.Random(seed)
    return all(
        _mr_round(n, rng.randrange(2, n - 1), d, r) for _ in range(rounds)
    )


# A perfect square is a quadratic residue modulo every m; these moduli turn
# away all but about one random non-square in 80000 before any square root is
# taken.
_SQUARE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_SQUARE_MODULUS = math.prod(_SQUARE_MODULI)
_SQUARE_RESIDUES = tuple((m, frozenset(x * x % m for x in range(m))) for m in _SQUARE_MODULI)


def is_square_candidate(n: int) -> bool:
    """False proves n >= 0 is not a perfect square; True means isqrt must decide."""
    r = n % _SQUARE_MODULUS
    return all(r % m in residues for m, residues in _SQUARE_RESIDUES)


def is_perfect_square(n: int) -> tuple[bool, int | None]:
    """Whether n = k*k for an integer k >= 0; returns (flag, k or None)."""
    if n < 0 or not is_square_candidate(n):
        return False, None
    k = math.isqrt(n)
    if k * k == n:
        return True, k
    return False, None


class FactorBudget(Record, frozen=True):
    """Effort knobs for factor_integer.

    trial_bound: trial-divide by all primes below this bound.
    rho_iterations: total Brent-rho iteration budget across all splits.
    seed: seeds rho parameters and any Miller-Rabin rounds beyond the
          deterministic range, for reproducibility.
    """

    trial_bound: int = DEFAULT_TRIAL_BOUND
    rho_iterations: int = DEFAULT_RHO_BUDGET
    seed: int = DEFAULT_SEED


#: cofactor classification in a Factorization
UNIT = "unit"
PROBABLE_PRIME = "probable_prime"
COMPOSITE_UNFACTORED = "composite_unfactored"


class Factorization(Record):
    """sign * prod(p**e) * cofactor reconstructs the input exactly.

    ``factors`` holds only certified primes (strictly increasing).  Anything
    that could not be certified stays in ``cofactor``: a single large probable
    prime (status "probable_prime") or an unsplit/unclassified remainder
    (status "composite_unfactored").
    """

    sign: int
    factors: list[tuple[int, int]] = Fresh(list)
    cofactor: int = 1
    cofactor_status: str = UNIT

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p ** e
        return out * self.cofactor

    def prime_list(self) -> list[int]:
        """The certified primes, then the cofactor when it is a probable prime."""
        primes = [p for p, _ in self.factors]
        if self.cofactor_status == PROBABLE_PRIME:
            primes.append(self.cofactor)
        return primes

    def format(self) -> str:
        parts = []
        if self.sign < 0:
            parts.append("-1")
        parts += [f"{int_text(p)}^{e}" if e > 1 else int_text(p) for p, e in self.factors]
        if self.cofactor != 1:
            parts.append(f"[{int_text(self.cofactor)}:{self.cofactor_status}]")
        return " * ".join(parts) if parts else "1"


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """One Brent-rho attempt on odd composite n, within ``budget`` iterations.

    Returns (factor or None, iterations consumed), and never consumes more
    than ``budget``: every loop is cut at the budget, and the gcd of what it
    accumulated is still taken.  None means the budget ran out, or the
    parameter choice was unlucky and the caller retries.
    """
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
                q = q * (x - y) % n
            used += steps
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # backtrack one step at a time
        g = 1
        while g == 1:
            if used >= budget:
                return None, used
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            used += 1
    return (g if g != n else None), used


# Trial division scans the integers in blocks [k*_BLOCK, (k+1)*_BLOCK).
_BLOCK = 2048
# The product of the primes in each full block below 10**6, as written by
# tests/test_prime_blocks.py: _TABLE_TAG, _BLOCK and the block count as 4-byte
# little-endian numbers, then each product as its 4-byte length and its
# little-endian bytes.
_TABLE_PATH = os.path.join(os.path.dirname(__file__), "prime_blocks.bin")
_TABLE_TAG = b"arbordyn prime-block products 1\n"
# Past the table, blocks are built _SEGMENT at a time by one sieve, and kept
# until _CACHED_BLOCKS of them (about 3 MB) are known; past that only the last
# segment is kept, so a large bound costs time but not memory.
_SEGMENT = 64
_CACHED_BLOCKS = 8192

# Block k's product for every k < len(_blocks): the table's bytes until first
# used, then the int.  Empty until a scan reaches a full block.
_blocks: list[int | bytes] = []
# (k0, products of blocks k0, k0 + 1, ...): the last segment built past the cache.
_far: tuple[int, list[int]] = (0, [])


def _read_table() -> list[bytes]:
    """The block products in prime_blocks.bin, as bytes."""
    with open(_TABLE_PATH, "rb") as f:
        data = f.read()

    def word(at: int) -> int:
        return int.from_bytes(data[at:at + 4], "little")

    at = len(_TABLE_TAG) + 8
    if data[:len(_TABLE_TAG)] != _TABLE_TAG or word(at - 8) != _BLOCK:
        raise ValueError(f"{_TABLE_PATH} is not a table of {_BLOCK}-blocks")
    products = []
    for _ in range(word(at - 4)):
        size = word(at)
        products.append(data[at + 4:at + 4 + size])
        at += 4 + size
    if at != len(data):
        raise ValueError(f"{_TABLE_PATH} is truncated or has trailing bytes")
    return products


def _build_blocks(k0: int, k1: int) -> list[int]:
    """The products of the primes in blocks k0 <= k < k1, from one sieve of their odd numbers."""
    lo, hi = k0 * _BLOCK, k1 * _BLOCK
    root = math.isqrt(hi - 1)
    sieve = bytearray([1]) * ((hi - lo) // 2)  # sieve[i] stands for lo + 2i + 1
    for p in primes_below(root + 1)[1:]:
        first = max(p * p, (lo // p + 1) * p)  # first multiple of p > lo and >= p*p
        i = (first + p * (first % 2 == 0) - lo - 1) // 2  # index of the first odd one
        sieve[i::p] = bytes(len(range(i, len(sieve), p)))
    if lo == 0:
        sieve[0] = 0  # 1 is not prime
    half = _BLOCK // 2
    odd = tuple(range(1, _BLOCK, 2))  # offsets in a block; only the primes become new ints
    products = [
        math.prod(map(b.__add__, itertools.compress(odd, sieve[j * half:(j + 1) * half])))
        for j, b in enumerate(range(lo, hi, _BLOCK))
    ]
    if lo == 0:
        products[0] *= 2
    return products


def _block(k: int) -> int:
    """The product of the primes in block k."""
    global _far
    if k >= len(_blocks):
        if not _blocks:
            _blocks.extend(_read_table())
        while len(_blocks) <= k < _CACHED_BLOCKS:
            _blocks.extend(_build_blocks(len(_blocks), len(_blocks) + _SEGMENT))
        if k >= len(_blocks):
            k0, products = _far
            if not 0 <= k - k0 < len(products):
                k0 = k - k % _SEGMENT
                products = _build_blocks(k0, k0 + _SEGMENT)
                _far = (k0, products)
            return products[k - k0]
    product = _blocks[k]
    if type(product) is bytes:
        product = _blocks[k] = int.from_bytes(product, "little")
    return product


def _candidates(lo: int, hi: int):
    """2 if lo <= 2 < hi, then the odd numbers in [lo, hi) above 1."""
    odd = range(max(lo, 2) | 1, hi, 2)
    return itertools.chain((2,), odd) if lo <= 2 < hi else odd


def trial_division(n: int, bound: int) -> tuple[dict[int, int], int]:
    """(counts, rest) with |n| = prod(p**e for p, e in counts.items()) * rest.

    Divides out the primes below ``bound`` in increasing order, stopping once
    p*p exceeds what is left, so rest is 1, a prime, or free of primes below
    ``bound``.  The scan goes no further than min(bound, isqrt(|n|) + 1).  A
    block of 2048 integers wholly below that costs one gcd with the product
    of its primes, and only a block that shares a factor with n is walked
    prime by prime; the block that holds the end is walked one candidate at
    a time, which reads no product.
    """
    n = abs(n)
    counts: dict[int, int] = {}
    limit = min(bound, math.isqrt(n) + 1)
    for k in range(limit // _BLOCK):
        lo = k * _BLOCK
        if lo * lo > n:
            return counts, n
        product = _block(k)
        g = math.gcd(n % product, product)
        if g == 1:
            continue
        for p in _candidates(lo, lo + _BLOCK):
            if g % p == 0:
                if p * p > n:
                    return counts, n
                g //= p
                while n % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    n //= p
                if g == 1:
                    break
    for p in _candidates(limit - limit % _BLOCK, limit):
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    return counts, n


def _file_prime(m: int, seed: int, counts: dict[int, int], leftovers: list[int]) -> bool:
    """Whether m > 1 is a probable prime: if so, m is counted when certified, else a leftover."""
    if not is_probable_prime(m, seed=seed):
        return False
    if m < _MR_DETERMINISTIC_BOUND:
        counts[m] = counts.get(m, 0) + 1
    else:
        leftovers.append(m)
    return True


def _trial_stage(n: int, budget: FactorBudget) -> tuple[int, dict[int, int], list[int], int]:
    """(sign, counts, leftovers, rest) of n != 0 before any Brent-rho.

    Trial division below ``budget.trial_bound``, then the first Miller-Rabin
    verdict on what is left: counts holds the certified primes, leftovers a
    probable prime too large to certify, and rest is 1 or a composite.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    counts, n = trial_division(n, budget.trial_bound)
    leftovers: list[int] = []
    if 1 < n < budget.trial_bound ** 2:  # no prime factor below the bound: n is prime
        counts[n], n = 1, 1
    elif n > 1 and _file_prime(n, budget.seed, counts, leftovers):
        n = 1
    return sign, counts, leftovers, n


def _rho_stage(n: int, budget: FactorBudget) -> tuple[dict[int, int], list[int], int]:
    """(counts, leftovers, unsplit) of a composite n, split by Brent-rho.

    The pieces are split in a fixed order from Random(budget.seed), within
    ``budget.rho_iterations`` in all; unsplit counts the leftovers known
    to be composite.
    """
    rng = random.Random(budget.seed)
    remaining = budget.rho_iterations
    counts: dict[int, int] = {}
    leftovers: list[int] = []
    unsplit = 0
    stack = [n]  # composites, split last one first
    while stack:
        m = stack.pop()
        split = None
        while split is None and remaining > 0:
            split, used = _brent_rho(m, rng, remaining)
            remaining -= used
        if split is None:
            leftovers.append(m)  # budget exhausted on a known composite
            unsplit += 1
            continue
        for part in (split, m // split):
            if not _file_prime(part, budget.seed, counts, leftovers):
                stack.append(part)
    return counts, leftovers, unsplit


def _factorization(sign: int, counts: dict[int, int], leftovers: list[int],
                   rho: tuple[dict[int, int], list[int], int] | None) -> Factorization:
    """The Factorization of a trial stage's result and of the rho stage on its rest, if any."""
    unsplit = 0
    if rho is not None:
        # the rho stage's primes are all above the trial bound, so none is in counts
        counts = {**counts, **rho[0]}
        leftovers = leftovers + rho[1]
        unsplit = rho[2]
    factors = sorted(counts.items())
    if not leftovers:
        cofactor, status = 1, UNIT
    elif len(leftovers) == 1 and not unsplit:
        cofactor, status = leftovers[0], PROBABLE_PRIME
    else:
        cofactor = math.prod(leftovers)
        status = COMPOSITE_UNFACTORED
    return Factorization(sign=sign, factors=factors, cofactor=cofactor, cofactor_status=status)


def factor_integer(n: int, budget: FactorBudget | None = None) -> Factorization:
    """Factor ``n`` within an effort budget.

    Trial division below ``budget.trial_bound``, then recursive Brent-rho
    splitting within ``budget.rho_iterations``.  Certified primes go to the
    factor list; on budget exhaustion (or a cofactor too large to certify) the
    remainder is reported in ``cofactor`` with an honest status label.
    Raises ValueError for n = 0.
    """
    if budget is None:
        budget = FactorBudget()
    sign, counts, leftovers, rest = _trial_stage(n, budget)
    return _factorization(sign, counts, leftovers, _rho_stage(rest, budget) if rest > 1 else None)


def factor_each(ns: Sequence[int], budget: FactorBudget | None = None) -> list[Factorization]:
    """[factor_integer(n, budget) for n in ns], term for term.

    The trial stage of every term runs in this process.  Once two or more
    terms are left with a composite, their Brent-rho stages are shared by
    this process and up to one forked worker per further CPU (see
    _fork_rho); each term keeps its own Random(budget.seed) and rho budget,
    so the result is the same whatever the CPU count.
    """
    if budget is None:
        budget = FactorBudget()
    staged = [_trial_stage(n, budget) for n in ns]
    rests = {i: rest for i, (*_, rest) in enumerate(staged) if rest > 1}
    workers = min(_cpus(), len(rests)) - 1
    rho = _fork_rho(rests, budget, workers) if workers > 0 else {}
    for i, rest in rests.items():
        if i not in rho:  # no worker returned it: there were none, or its worker died
            rho[i] = _rho_stage(rest, budget)
    return [_factorization(*stage[:3], rho.get(i)) for i, stage in enumerate(staged)]


def _cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# Every claim is written to the claim pipe before any worker reads, so the
# claims must fit in the smallest pipe buffer, one page: 4096 bytes.
_MAX_CLAIMS = 1024


def _fork_rho(rests: dict[int, int], budget: FactorBudget, workers: int) -> dict:
    """{i: _rho_stage(rests[i], budget)}, split by this process and ``workers`` forks.

    The keys of the rests, largest rest first, wait in one pipe; this
    process and each worker take them one at a time until it is empty, and
    a worker sends each result back on its own pipe as a length and marshal
    bytes.  A worker leaves only by os._exit, and also once it reads
    end-of-file on a lifeline whose write end only this process holds, so
    it never outlives its parent.  On return, and on any exception here
    (KeyboardInterrupt included), every worker is killed and reaped.  A
    result no worker sent back is missing from the dict.
    """
    import signal

    order = sorted(rests, key=rests.__getitem__, reverse=True)[:_MAX_CLAIMS]
    parent = os.getpid()
    done: dict = {}
    pids: list[int] = []
    outputs: list[int] = []
    fds: list[int] = []
    claims, queue = os.pipe()
    lifeline, alive = os.pipe()
    fds += (claims, queue, lifeline, alive)
    try:
        os.write(queue, b"".join(i.to_bytes(4, "little") for i in order))
        fds.remove(queue)
        os.close(queue)
        for _ in range(workers):
            try:
                out, into = os.pipe()
                fds += (out, into)
                pid = os.fork()
            except OSError:
                break  # fewer workers: this process takes their share
            if pid == 0:
                os.close(alive)  # so the lifeline ends with the parent
                _work(claims, into, lifeline, rests, budget)
                os._exit(0)
            pids.append(pid)
            outputs.append(out)
            fds.remove(into)
            os.close(into)
        while claim := os.read(claims, 4):
            i = int.from_bytes(claim, "little")
            done[i] = _rho_stage(rests[i], budget)
        for out in outputs:
            data = _read_all(out)
            at = 0
            while at + 8 <= len(data):
                end = at + 8 + int.from_bytes(data[at:at + 8], "little")
                if end > len(data):
                    break  # cut short by the worker's death
                i, result = marshal.loads(data[at + 8:end])
                done[i] = result
                at = end
    finally:
        if os.getpid() != parent:  # a worker never unwinds into its parent's code
            os._exit(1)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    return done


def _work(claims: int, into: int, lifeline: int, rests: dict[int, int],
          budget: FactorBudget) -> None:
    """A worker's loop: split each claimed rest and write its result to ``into``."""
    _thread.start_new_thread(_leave_at_eof, (lifeline,))
    while claim := os.read(claims, 4):
        i = int.from_bytes(claim, "little")
        blob = marshal.dumps((i, _rho_stage(rests[i], budget)))
        view = memoryview(len(blob).to_bytes(8, "little") + blob)
        while view:
            view = view[os.write(into, view):]


def _leave_at_eof(fd: int) -> None:
    """Exit this process once ``fd`` reads end-of-file, that is, once every writer is gone."""
    try:
        os.read(fd, 1)
    finally:
        os._exit(1)


def _read_all(fd: int) -> bytes:
    """Everything left in ``fd`` until end-of-file."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def factor_counts(n: int, budget: FactorBudget | None = None) -> dict[int, int]:
    """Every prime of |n| with its exponent, for callers that need them all.

    Factors by factor_integer; a probable-prime cofactor counts once.  Raises
    FactoringBudgetError when the budget leaves a composite unfactored.
    """
    fac = factor_integer(n, budget)
    if fac.cofactor_status == COMPOSITE_UNFACTORED:
        raise FactoringBudgetError(
            f"factoring left a composite of {fac.cofactor.bit_length()} bits unsplit; "
            "raise the factoring budget (--trial-bound, --rho-budget)")
    counts = dict(fac.factors)
    if fac.cofactor_status == PROBABLE_PRIME:
        counts[fac.cofactor] = 1
    return counts


def valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisors(n: int, budget: FactorBudget | None = None) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("divisors defined for n >= 1")
    out = [1]
    for p, e in factor_counts(n, budget).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    if n < 1:
        raise ValueError("mobius defined for n >= 1")
    counts = factor_counts(n)
    if any(e > 1 for e in counts.values()):
        return 0
    return -1 if len(counts) % 2 else 1


def radical(n: int) -> int:
    """Product of the distinct primes dividing n >= 1."""
    if n < 1:
        raise ValueError("radical defined for n >= 1")
    return math.prod(factor_counts(n))
