"""Integer sequences attached to the origin orbit and rigid divisibility.

For the family (z^2 + a)/z^2 the origin iterate values split as
p_n(0) = a^(2^(n-1)) * f_n, where f_1 = f_2 = 1 and
f_n = f_(n-1)^2 + a * f_(n-2)^4.  The Moebius product over the divisor
lattice isolates the primitive part of each term:

    theta_n = prod_{d | n} f_d^(mu(n/d)).

theta_n is computed by exact division and asserted integral rather than
assumed so; a nonzero remainder is surfaced as a hard invariant violation.
The f-sequence has no growth cap of its own: |f_n| <= |p_n(0)|, so the cap
on the origin orbit (RationalMap.origin_values) bounds every term.

Rigid-divisibility checking is necessarily partial, since deep terms cannot
be fully factored: the prime pool (full factorizations up to a depth, trial
division beyond) is part of the report, so a "pass" is scoped honestly.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._record import Fresh, Record
from .errors import InvariantViolationError
from .factorint import FactorBudget, factor_each, trial_division, valuation
from .ratmap import RationalMap


def main_family(a: int) -> RationalMap:
    """The map (z^2 + a)/z^2, a != 0."""
    if a == 0:
        raise ValueError("family parameter a must be nonzero")
    return RationalMap.from_coeffs([a, 0, 1], [0, 0, 1])


def f_sequence(a: int, n: int, modulus: int | None = None) -> list[int]:
    """[f_1, ..., f_n] with f_1 = f_2 = 1, f_k = f_(k-1)^2 + a*f_(k-2)^4.

    With ``modulus`` q the list is [f_1 mod q, ..., f_n mod q], stepped mod q.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out = [1, 1]
    sq = 1  # f_(k-2)^2, taken as f_(k-1)^2 by the step before
    for _ in range(n - 2):
        if modulus is not None:
            sq, prev = out[-1] * out[-1] % modulus, sq
            out.append((sq + a * prev * prev) % modulus)
            continue
        sq, prev = out[-1] ** 2, sq
        out.append(sq + a * prev ** 2)
    return out[:n]


def theta(fs: Sequence[int], modulus: int | None = None) -> list[int | None]:
    """[theta_1, ..., theta_N], the primitive parts of fs = [f_1, ..., f_N].

    Since f_m is the product of theta_d over d | m, one sieve over multiples
    finds them all: taking d in increasing order, what is left of f_d is
    theta_d, which is then divided exactly out of f_m for every multiple m
    of d.  Integrality is asserted, not assumed.

    With ``modulus`` q, fs may be residues mod q and the result is
    [theta_n mod q], dividing by inverses mod q.  An index n with a divisor
    d such that f_d = 0 (mod q, if given) has no theta_n and gets None.
    """
    rest = list(fs) if modulus is None else [f % modulus for f in fs]
    for d, th in enumerate(rest, start=1):
        if th is None:  # f_e = 0 for some e | d; e's multiples are all None
            continue
        if th == 0:
            # with no divisor vanishing, theta_d = 0 exactly when f_d is
            rest[d - 1::d] = [None] * len(rest[d - 1::d])
        elif modulus is not None:
            inv = pow(th, -1, modulus)
            for m in range(2 * d, len(rest) + 1, d):
                if rest[m - 1] is not None:
                    rest[m - 1] = rest[m - 1] * inv % modulus
        else:
            for m in range(2 * d, len(rest) + 1, d):
                if rest[m - 1] is None:
                    continue
                rest[m - 1], rem = divmod(rest[m - 1], th)
                if rem:
                    raise InvariantViolationError(
                        f"theta_{m} is not integral: nonzero remainder dividing f_{m} by theta_{d}"
                    )
    return rest


# ---------------------------------------------------------------------------
# Rigid divisibility
# ---------------------------------------------------------------------------


class Violation(Record):
    prime: int
    condition: int        # 1: valuation fails to propagate; 2: gcd descent fails
    indices: tuple[int, ...]
    detail: str


class RigidityReport(Record):
    excluded: list[int]
    checked_primes: list[int]
    depth: int
    pool_depth: int
    trial_bound: int
    violations: list[Violation] = Fresh(list)

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"

    def violating_primes(self) -> list[int]:
        return sorted({v.prime for v in self.violations})

    def to_dict(self) -> dict:
        return {**super().to_dict(), "status": self.status}


def verify_rigid_divisibility(
    terms: Sequence[int],
    exclude: Sequence[int] = (),
    pool_depth: int = 6,
    budget: FactorBudget = FactorBudget(),
) -> RigidityReport:
    """Check the two rigid-divisibility conditions over an explicit prime pool.

    terms[k-1] is the k-th sequence term (1-based indices throughout).  The
    pool collects every prime from factorizations under ``budget`` of the
    first ``pool_depth`` terms, plus trial division (below
    ``budget.trial_bound``) of the rest.  For a pool prime p outside
    ``exclude``:

      (1) v_p(c_n) > 0  implies  v_p(c_kn) = v_p(c_n) for every kn <= N;
      (2) v_p(c_m) > 0 and v_p(c_n) > 0  imply  v_p(c_gcd(m,n)) > 0.
    """
    if any(t == 0 for t in terms):
        raise ValueError("rigid divisibility needs nonzero terms")
    n_terms = len(terms)
    pool: set[int] = set()
    deep = max(pool_depth, 0)
    for fac in factor_each([t for t in terms[:deep] if abs(t) != 1], budget):
        pool.update(fac.prime_list())
    for t in terms[deep:]:
        counts, rest = trial_division(t, budget.trial_bound)
        pool.update(counts)
        if 1 < rest < budget.trial_bound:
            pool.add(rest)

    excluded = sorted(set(exclude))
    checked = sorted(pool - set(excluded))
    report = RigidityReport(excluded, checked, n_terms, pool_depth, budget.trial_bound)
    for p in checked:
        vals = [valuation(t, p) for t in terms]
        for n in range(1, n_terms + 1):
            vn = vals[n - 1]
            if vn <= 0:
                continue
            for kn in range(2 * n, n_terms + 1, n):
                if vals[kn - 1] != vn:
                    report.violations.append(Violation(
                        p, 1, (n, kn),
                        f"v_{p}(c_{n}) = {vn} but v_{p}(c_{kn}) = {vals[kn - 1]}",
                    ))
        for m in range(1, n_terms + 1):
            if vals[m - 1] <= 0:
                continue
            for n in range(m + 1, n_terms + 1):
                if vals[n - 1] <= 0:
                    continue
                g = math.gcd(m, n)
                if vals[g - 1] <= 0:
                    report.violations.append(Violation(
                        p, 2, (m, n, g),
                        f"v_{p} positive at {m} and {n} but zero at gcd {g}",
                    ))
    return report
