"""Integer sequences attached to the origin orbit and rigid divisibility.

For the family (z^2 + a)/z^2 the origin iterate values split as
p_n(0) = a^(2^(n-1)) * f_n, where f_1 = f_2 = 1 and
f_n = f_(n-1)^2 + a * f_(n-2)^4.  Moebius products over divisor lattices
isolate the primitive part of each term:

    theta_n = prod_{d | n} f_d^(mu(n/d)),
    beta_{alpha,n} = prod_{d | n} p_d(alpha)^(mu(n/d)).

theta_n is computed by exact division and asserted integral rather than
assumed so; a nonzero remainder is surfaced as a hard invariant violation.

Rigid-divisibility checking is necessarily partial, since deep terms cannot
be fully factored: the prime pool (full factorizations up to a depth, trial
division beyond) is part of the report, so a "pass" is scoped honestly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._record import Fresh, Record
from .errors import GrowthCapError, HypothesisError, InvariantViolationError
from .factorint import (
    FactorBudget,
    divisors,
    factor_counts,
    factor_each,
    factor_integer,
    is_perfect_square,
    mobius,
    radical,
    trial_division,
    valuation,
)
from .intpoly import IntPoly
from .ratmap import DEFAULT_GROWTH_CAP_BITS, RationalMap

__all__ = [
    "mobius",
    "divisors",
    "f_sequence",
    "main_family",
    "verify_origin_split",
    "theta",
    "beta",
    "sign_check",
    "SeqBundle",
    "sequence_bundle",
    "RigidityReport",
    "verify_rigid_divisibility",
    "primitive_part_valuations",
    "rad_divisibility_conditions",
]


def main_family(a: int) -> RationalMap:
    """The map (z^2 + a)/z^2, a != 0."""
    if a == 0:
        raise ValueError("family parameter a must be nonzero")
    return RationalMap.from_coeffs([a, 0, 1], [0, 0, 1])


def f_sequence(a: int, n: int,
               growth_cap_bits: int = DEFAULT_GROWTH_CAP_BITS) -> list[int]:
    """[f_1, ..., f_n] with f_1 = f_2 = 1, f_k = f_(k-1)^2 + a*f_(k-2)^4."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = [1, 1]
    abits = abs(a).bit_length()
    for _ in range(n - 2):
        if 4 * max(out[-1].bit_length(), out[-2].bit_length()) + abits > growth_cap_bits:
            raise GrowthCapError("growth cap exceeded in f sequence")
        out.append(out[-1] ** 2 + a * out[-2] ** 4)
    return out[:n]


class SplitReport(Record):
    """Outcome of checking p_n(0) = a^(2^(n-1)) f_n and f_n = 1 mod |a|."""

    a: int
    depth: int
    ok: bool
    failures: list[str]


def verify_origin_split(a: int, n: int) -> SplitReport:
    """Check the power split of p_k(0) and the congruence f_k = 1 (mod |a|).

    The left side comes from the iterate ladder evaluated at the origin, the
    right side from the f recursion, so the two routes are independent.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    phi = main_family(a)
    values = phi.origin_values(n)
    fs = f_sequence(a, n)
    failures = []
    for k in range(1, n + 1):
        pk0 = values[k - 1][0]
        if pk0 != a ** (2 ** (k - 1)) * fs[k - 1]:
            failures.append(f"split fails at n={k}")
        if abs(a) > 1 and fs[k - 1] % abs(a) != 1 % abs(a):
            failures.append(f"f_{k} not 1 mod |a|")
    return SplitReport(a, n, not failures, failures)


def theta(a: int, n: int, fs: Optional[Sequence[int]] = None) -> int:
    """Primitive part of f_n: the Moebius product over divisors of n.

    Since f_n is the product of theta_d over d | n, each theta_d is f_d
    divided exactly by theta_e over the proper divisors e of d, smallest d
    first; integrality is asserted, not assumed.
    """
    if fs is None:
        fs = f_sequence(a, n)
    thetas: dict[int, int] = {}
    for d in divisors(n):
        fd = fs[d - 1]
        if fd == 0:
            raise ValueError("theta undefined (vanishing term)")
        den = math.prod(thetas[e] for e in divisors(d)[:-1])
        value, rem = divmod(fd, den)
        if rem:
            raise InvariantViolationError(
                f"theta_{d}(a={a}) is not integral: nonzero remainder dividing f_{d}"
            )
        thetas[d] = value
    return thetas[n]


def beta(map_: RationalMap, alpha, n: int) -> Fraction:
    """Moebius product of the iterate values p_d(alpha) over divisors of n."""
    alpha = Fraction(alpha)
    values = map_.ladder_values(alpha, n)
    out = Fraction(1)
    for d in divisors(n):
        e = mobius(n // d)
        if e == 0:
            continue
        pd = Fraction(values[d - 1][0])
        if pd == 0:
            raise ValueError("beta undefined (vanishing term)")
        out *= pd ** e
    return out


class SignReport(Record):
    a: int
    depth: int
    ok: bool
    failures: list[str]


def sign_check(a: int, n: int) -> SignReport:
    """For a <= -3: sign alternation of p_k(0), the orbit interval bounds, and
    positivity of the Moebius products beta_k for k >= 3."""
    if a > -3:
        raise HypothesisError("sign check requires a <= -3")
    phi = main_family(a)
    b = -a
    values = phi.origin_values(n)
    failures = []
    for k in range(1, n + 1):
        pk0 = values[k - 1][0]
        if pk0 == 0 or (pk0 > 0) != (k % 2 == 0):
            failures.append(f"sign of p_{k}(0) is not (-1)^{k}")
        if k >= 2 and values[k - 1][1] != 0:
            orbit_val = Fraction(values[k - 1][0], values[k - 1][1])
            if k % 2 == 0 and not orbit_val > 0:
                failures.append(f"phi^{k}(0) not positive")
            if k % 2 == 1 and k >= 3 and not orbit_val <= 1 - b:
                failures.append(f"phi^{k}(0) above 1 - b")
    for k in range(3, n + 1):
        if beta(phi, 0, k) <= 0:
            failures.append(f"beta_{k} not positive")
    return SignReport(a, n, not failures, failures)


class SeqBundle(Record):
    """The families' sequence data to a given depth, invariants asserted."""

    a: int
    depth: int
    f: list[int]
    pn0: list[int]
    theta: list[int]
    beta: Optional[list[Fraction]] = None


def sequence_bundle(a: int, n: int, alpha=None,
                    growth_cap_bits: int = DEFAULT_GROWTH_CAP_BITS) -> SeqBundle:
    if a == 0:
        raise ValueError("a must be nonzero")
    phi = main_family(a)
    fs = f_sequence(a, n, growth_cap_bits)
    values = phi.origin_values(n)
    pn0 = [u for u, _ in values]
    split = verify_origin_split(a, n)
    if not split.ok:
        raise InvariantViolationError("; ".join(split.failures))
    thetas = [theta(a, k, fs) for k in range(1, n + 1)]
    betas = None
    if alpha is not None:
        betas = [beta(phi, alpha, k) for k in range(1, n + 1)]
    return SeqBundle(a, n, fs, pn0, thetas, betas)


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


class PrimitiveValuationReport(Record):
    n: int
    pairs: list[tuple[int, int]]   # (prime, v_p(theta_n))
    complete: bool                 # False when factoring budget ran out
    gcd_clean: bool                # every listed prime avoids f_i for i < n


def primitive_part_valuations(a: int, n: int,
                              budget: FactorBudget | None = None) -> PrimitiveValuationReport:
    """Factor |theta_n| and verify each prime is primitive at index n.

    Verifies v_p(theta_n) = v_p(f_n) and p does not divide any earlier f_i.
    Budget exhaustion yields a partial report flagged incomplete.
    """
    fs = f_sequence(a, n)
    th = theta(a, n, fs)
    if abs(th) == 1:
        return PrimitiveValuationReport(n, [], True, True)
    fac = factor_integer(th, budget)
    complete = fac.cofactor_status != "composite_unfactored"
    pairs = []
    clean = True
    for p in fac.prime_list():
        v = valuation(th, p)
        if v != valuation(fs[n - 1], p):
            clean = False
        if any(fs[i - 1] % p == 0 for i in range(1, n)):
            clean = False
        pairs.append((p, v))
    return PrimitiveValuationReport(n, pairs, complete, clean)


# ---------------------------------------------------------------------------
# Congruence conditions forcing beta_{alpha,n} to be a non-square
# ---------------------------------------------------------------------------


class RadDivisibilityEvidence(Record):
    n: int
    k: int
    modulus: int
    conditions: dict
    certified: bool   # all three conditions hold: beta_{alpha,n} is not a square


def _poly_is_square(f: IntPoly) -> bool:
    """Whether f = h^2 for some h in Z[z], by coefficient matching."""
    if f.is_zero:
        return True
    if f.degree % 2 or f.lc < 0:
        return False
    ok, lead = is_perfect_square(f.lc)
    if not ok:
        return False
    half = f.degree // 2
    h = [0] * (half + 1)
    h[half] = lead
    for i in range(half - 1, -1, -1):
        # coefficient of z^(i+half) in h^2 must match f
        acc = sum(h[j] * h[i + half - j] for j in range(i + 1, half + 1)
                  if 0 <= i + half - j <= half)
        num = f.coeff(i + half) - acc
        den = 2 * h[half]
        if num % den:
            return False
        h[i] = num // den
    hh = IntPoly(h)
    return hh * hh == f


def rad_divisibility_conditions(
    map_: RationalMap, alpha, n: int, m: int
) -> RadDivisibilityEvidence:
    """Check three congruence conditions that force beta_{alpha,n} off squares.

    With k = n / rad(n), the conditions on the orbit of alpha are
      (1) v_l(phi^k(alpha)) = 0 for every prime l dividing m;
      (2) phi^k(alpha) = -phi^(k+1)(alpha) (mod m);
      (3) -1 is not a square modulo m.
    Structural hypotheses (even numerator and denominator, denominator a
    polynomial square, orbit avoiding 0 and infinity in the checked range)
    are validated first and raise HypothesisError when they fail; an m not
    fully factored raises FactoringBudgetError.
    """
    if any(map_.p.coeff(i) or map_.q.coeff(i) for i in range(1, map_.d + 1, 2)):
        raise HypothesisError("hypothesis fails: p and q must be even polynomials")
    if not _poly_is_square(map_.q):
        raise HypothesisError("hypothesis fails: q must be the square of a polynomial")
    if n < 2:
        raise ValueError("need n >= 2")
    if m <= 1:
        raise ValueError("modulus m must exceed 1")
    alpha = Fraction(alpha)
    k = n // radical(n)
    horizon = max(k + 2, n + 1)
    values = map_.ladder_values(alpha, horizon)
    orbit_vals: list[Optional[Fraction]] = []
    for u, v in values:
        orbit_vals.append(None if v == 0 else Fraction(u, v))
    for i in range(1, horizon + 1):
        val = orbit_vals[i - 1]
        if i >= k and val is None:
            raise HypothesisError(f"hypothesis fails: phi^{i}(alpha) is infinite")
        if val == 0:
            raise HypothesisError(f"hypothesis fails: phi^{i}(alpha) vanishes")

    phik = orbit_vals[k - 1]
    phik1 = orbit_vals[k]
    conditions: dict = {}
    prime_factors = factor_counts(m)
    cond1 = all(
        phik.numerator % ell != 0 and phik.denominator % ell != 0
        for ell in prime_factors
    )
    conditions["unit_at_k"] = cond1
    total = phik + phik1
    cond2 = (
        math.gcd(total.denominator, m) == 1 and total.numerator % m == 0
    )
    conditions["negation_congruence"] = cond2
    # -1 is a square mod m iff 4 does not divide m and every odd prime factor
    # of m is 1 mod 4
    cond3 = m % 4 == 0 or any(ell % 4 == 3 for ell in prime_factors)
    conditions["minus_one_nonresidue"] = cond3
    return RadDivisibilityEvidence(n, k, m, conditions, cond1 and cond2 and cond3)
