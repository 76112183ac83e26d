"""Seeded job lists for the three arbordyn CLI workloads.

A job is a dict:
  id     position in the list (stable for a given workload and seed)
  argv   the CLI arguments after the program name (the program sees only these)
  kind   the subcommand
  key    (command, a-or-map, depth-or-n), the scaling-curve key
  facts  what the checker needs to judge the output on its own: the map as
         integer coefficient lists, the family parameter, the requested size.

The structure of each list (how many jobs of each kind, at which depth or n)
is fixed; the seed only draws coefficients and parameters, each from a band
whose cost and failure behaviour are the same across the band.  That keeps
the mix, and so the medians, comparable between seeds while the inputs vary.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("cli_small", "deep_tower", "factor_heavy")

# Per-job wall-time limit in seconds.  A failed job is charged this limit on
# top of its own wall time.
JOB_LIMIT_S = {"cli_small": 10.0, "deep_tower": 30.0, "factor_heavy": 30.0}

# The rho budget every factor_heavy job passes.
FACTOR_RHO_BUDGET = 100000

README_COMMANDS = [
    ["orbit", "--map", "(z^2-98)/z^2", "--start", "0", "--steps", "6"],
    ["critical", "--map", "(z^2+2)/(z^2+2z+2)"],
    ["normal-form", "--map", "(z^2-98)/z^2"],
    ["sequence", "--map", "(z^2+1)/(z^2+3)", "--n", "8", "--factor"],
    ["sequence", "--a", "-98", "--n", "5"],
    ["certify", "--m", "2", "--depth", "8"],
    ["certify", "--a", "-98", "--depth", "8"],
    ["rigid-check", "--map", "(z^2+1)/(z^2+3)", "--exclude", "2", "--n", "8"],
]


# ---------------------------------------------------------------------------
# Maps as integer coefficient lists (low to high)
# ---------------------------------------------------------------------------


def _poly_str(cs: list[int]) -> str:
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "z" if k == 1 else f"z^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in terms[1:]:
        out += sign + body
    return out


def map_str(p: list[int], q: list[int]) -> str:
    return f"({_poly_str(p)})/({_poly_str(q)})"


def _pmul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _padd(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]


def _pscale(c: int, f: list[int]) -> list[int]:
    return [c * x for x in f]


def _content(cs: list[int]) -> int:
    return math.gcd(*cs) or 1


def conjugate_bicritical(a: int, b: int, mu: tuple[int, int, int, int]):
    """Coefficients of M^-1 o f o M for f = (z^2+a)/(z^2+b), M = (al z+be)/(ga z+de)."""
    al, be, ga, de = mu
    lin_n = [be, al]          # al z + be
    lin_d = [de, ga]          # ga z + de
    sq_n = _pmul(lin_n, lin_n)
    sq_d = _pmul(lin_d, lin_d)
    n1 = _padd(sq_n, _pscale(a, sq_d))
    d1 = _padd(sq_n, _pscale(b, sq_d))
    # M^-1(w) = (de w - be) / (-ga w + al), with w = n1/d1
    p = _padd(_pscale(de, n1), _pscale(-be, d1))
    q = _padd(_pscale(-ga, n1), _pscale(al, d1))
    g = _content(p + q)
    if q[-1] < 0 or (q[-1] == 0 and p[-1] < 0):
        g = -g
    return [c // g for c in p], [c // g for c in q]


def _rand_nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _rand_mobius(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        mu = tuple(rng.randint(-3, 3) for _ in range(4))
        al, be, ga, de = mu
        if al * de - be * ga != 0 and ga != 0:
            return mu


def _family_a(rng: random.Random, lo: int, hi: int) -> int:
    """A = 2 (mod 4) with lo <= |A| <= hi, as a negative integer."""
    k = rng.randint((lo - 2 + 3) // 4, (hi - 2) // 4)
    return -(4 * k + 2)


def _even_map(rng: random.Random, bound: int) -> tuple[list[int], list[int]]:
    """(z^2 + b)/(z^2 + c), b != c, c != 0: an even map outside the family."""
    while True:
        b = _rand_nonzero(rng, -bound, bound)
        c = _rand_nonzero(rng, -bound, bound)
        if b != c:
            return [b, 0, 1], [c, 0, 1]


def _prime_factors(n: int) -> list[int]:
    n = abs(n)
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Job constructors
# ---------------------------------------------------------------------------


def _job(argv, key, facts):
    return {"argv": [str(x) for x in argv], "kind": argv[0], "key": key, "facts": facts}


def orbit_job(p, q, start: Fraction, steps: int):
    m = map_str(p, q)
    return _job(["orbit", "--map", m, "--start", str(start), "--steps", steps],
                ("orbit", m, steps), {"p": p, "q": q, "start": str(start), "steps": steps})


def critical_job(p, q, command="critical"):
    m = map_str(p, q)
    return _job([command, "--map", m], (command, m, 0), {"p": p, "q": q})


def sequence_a_job(a: int, n: int, factor: bool = False, rho: int | None = None):
    argv = ["sequence", "--a", a, "--n", n]
    if factor:
        argv.append("--factor")
    if rho is not None:
        argv += ["--rho-budget", rho]
    return _job(argv, ("sequence", f"a={a}", n),
                {"p": [a, 0, 1], "q": [0, 0, 1], "a": a, "n": n, "factor": factor})


def sequence_map_job(p, q, n: int, factor: bool = False, rho: int | None = None):
    m = map_str(p, q)
    argv = ["sequence", "--map", m, "--n", n]
    if factor:
        argv.append("--factor")
    if rho is not None:
        argv += ["--rho-budget", rho]
    return _job(argv, ("sequence", m, n), {"p": p, "q": q, "n": n, "factor": factor})


def certify_a_job(a: int, depth: int):
    return _job(["certify", "--a", a, "--depth", depth], ("certify", f"a={a}", depth),
                {"a": a, "depth": depth})


def certify_m_job(m: int, depth: int):
    return _job(["certify", "--m", m, "--depth", depth], ("certify", f"m={m}", depth),
                {"m": m, "depth": depth})


def rigid_job(p, q, n: int, exclude: list[int], rho: int | None = None):
    m = map_str(p, q)
    argv = ["rigid-check", "--map", m, "--n", n]
    if exclude:
        argv += ["--exclude", ",".join(str(x) for x in exclude)]
    if rho is not None:
        argv += ["--rho-budget", rho]
    return _job(argv, ("rigid-check", m, n),
                {"p": p, "q": q, "n": n, "exclude": list(exclude)})


def _readme_jobs():
    jobs = [
        orbit_job([-98, 0, 1], [0, 0, 1], Fraction(0), 6),
        critical_job([2, 0, 1], [2, 2, 1]),
        critical_job([-98, 0, 1], [0, 0, 1], "normal-form"),
        sequence_map_job([1, 0, 1], [3, 0, 1], 8, factor=True),
        sequence_a_job(-98, 5),
        certify_m_job(2, 8),
        certify_a_job(-98, 8),
        rigid_job([1, 0, 1], [3, 0, 1], 8, [2]),
    ]
    # run the README's exact text, keep the constructors' facts for the checker
    for job, argv in zip(jobs, README_COMMANDS):
        job["argv"] = list(argv)
    return jobs


def warmup_jobs() -> list[dict]:
    """The README commands, ids -1..-8: set-up runs them in turn to fill caches.

    A traced run traces them too, so every layer has spans on every workload.
    """
    jobs = _readme_jobs()
    for i, job in enumerate(jobs):
        job["id"] = -1 - i
    return jobs


def _even_map_exclude(p, q) -> list[int]:
    """Bad-reduction primes of (z^2+b)/(z^2+c): those dividing c - b."""
    return _prime_factors(q[0] - p[0])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def cli_small(rng: random.Random) -> list[dict]:
    """README commands plus small seeded variants: startup and parsing dominate."""
    jobs = _readme_jobs()
    variants = []
    # Half the starts are negative non-integer fractions, typed as a user would
    # ("--start -2/3"); the seed commit's argument parser rejects those.
    for i, steps in enumerate((4, 5, 5, 6, 6, 6, 7, 7)):
        p, q = _even_map(rng, 9) if i % 2 else ([_family_a(rng, 6, 200), 0, 1], [0, 0, 1])
        den = rng.randint(2, 9)
        num = rng.choice([k for k in range(1, 10) if k % den])
        start = Fraction(-num if i // 2 % 2 else num, den)
        variants.append(orbit_job(p, q, start, steps))
    for command in ("critical", "normal-form") * 6:
        a = _rand_nonzero(rng, -9, 9)
        b = rng.choice([x for x in range(-9, 10) if x != a])
        p, q = conjugate_bicritical(a, b, _rand_mobius(rng))
        variants.append(critical_job(p, q, command))
    for n in (4, 6, 7, 8):
        variants.append(sequence_a_job(_family_a(rng, 6, 200), n))
    for n in (4, 5, 6, 6):
        p, q = _even_map(rng, 5)
        variants.append(sequence_map_job(p, q, n, factor=True, rho=FACTOR_RHO_BUDGET))
    for depth in (3, 5, 8):
        variants.append(certify_m_job(rng.choice([2, 3, 4, 5, 6, 7, -2, -3, -4, -5]), depth))
        variants.append(certify_a_job(_family_a(rng, 6, 400), depth + 1))
    for n in (5, 6, 7, 7, 8, 8):
        p, q = _even_map(rng, 5)
        variants.append(rigid_job(p, q, n, _even_map_exclude(p, q), rho=FACTOR_RHO_BUDGET))
    return jobs + _interleave(variants)


def deep_tower(rng: random.Random) -> list[dict]:
    """Deep certify/sequence jobs: operand growth, witnesses and emission dominate.

    Depths and n are fixed and run past the int-to-str digit limit that the
    seed commit trips at certify depth 13 and sequence n 12; the band for A
    (42 <= |A| <= 998) is the one where those failure points hold exactly,
    so every seed has the same number of jobs on each side of them.
    """
    jobs = []
    for depth in (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 10, 12, 14, 16, 18):
        jobs.append(certify_a_job(_family_a(rng, 42, 998), depth))
    for depth in (8, 10, 11, 12, 13, 14, 16, 18):
        jobs.append(certify_m_job(rng.choice([2, -2, 3, -3]), depth))
    for n in (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 9, 11, 13, 15, 17):
        jobs.append(sequence_a_job(_family_a(rng, 42, 998), n))
    return _interleave(jobs)


def factor_heavy(rng: random.Random) -> list[dict]:
    """Trial division, Brent-rho and Miller-Rabin dominate.

    Family terms share divisor structure (f_n is the product of theta_d over
    d | n); the general even maps do not.  Parameters are drawn one per
    stratum of their band, since operand size sets the cost of a job, and
    the twelve n = 9 family jobs put the 11th-largest job (tail_s) inside
    one cluster of like jobs.
    """
    jobs = []
    for n, count in ((8, 6), (9, 12), (10, 4)):
        for a in _strata(rng, count, _family_a, 42, 250):
            jobs.append(sequence_a_job(a, n, factor=True, rho=FACTOR_RHO_BUDGET))
    for n, count in ((6, 4), (7, 8)):
        for p, q in _strata(rng, count, _even_map_sized, 2, 9):
            jobs.append(sequence_map_job(p, q, n, factor=True, rho=FACTOR_RHO_BUDGET))
    for n in (8, 9, 10, 11):
        for p, q in _strata(rng, 3, _even_map_sized, 2, 9):
            jobs.append(rigid_job(p, q, n, _even_map_exclude(p, q), rho=FACTOR_RHO_BUDGET))
    return _interleave(jobs)


def _strata(rng: random.Random, k: int, draw, lo: int, hi: int) -> list:
    """k draws, the i-th from the i-th of k equal slices of [lo, hi], shuffled."""
    out = []
    for i in range(k):
        s_lo = lo + (hi - lo + 1) * i // k
        s_hi = lo + (hi - lo + 1) * (i + 1) // k - 1
        out.append(draw(rng, s_lo, max(s_lo, s_hi)))
    rng.shuffle(out)
    return out


def _even_map_sized(rng: random.Random, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """An even map (z^2 + b)/(z^2 + c) with max(|b|, |c|) in [lo, hi]."""
    size = rng.randint(lo, hi)
    while True:
        big = rng.choice((size, -size))
        small = _rand_nonzero(rng, -size, size)
        b, c = (big, small) if rng.random() < 0.5 else (small, big)
        if b != c:
            return [b, 0, 1], [c, 0, 1]


def _interleave(jobs: list[dict]) -> list[dict]:
    """Round-robin by subcommand so any prefix of the list has the full mix."""
    groups: dict[str, list[dict]] = {}
    for job in jobs:
        groups.setdefault(job["kind"], []).append(job)
    out = []
    lists = list(groups.values())
    while any(lists):
        for lst in lists:
            if lst:
                out.append(lst.pop(0))
    return out


_GENERATORS = {"cli_small": cli_small, "deep_tower": deep_tower, "factor_heavy": factor_heavy}


def make_jobs(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"arbordyn-bench:{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
