"""Reduction of rational maps modulo primes and mod-p orbit analysis.

A canonical map has joint content 1, so it is normalized at every prime and
reduces coefficient-wise.  Good reduction at p means the reduced pair keeps
degree d and acquires no common projective root, which holds exactly when p
does not divide ``RationalMap.res``, the resultant of the two degree-d forms
(Silverman, GTM 241, section 2.4); the bad primes are the primes of ``res``.
Points of P^1(F_p) are encoded as integers 0..p, with p standing for
infinity, so orbits can use a flat visited array.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import BadReductionError, CompositeModulusError, InvariantViolationError
from .factorint import FactorBudget, factor_counts, is_probable_prime, valuation
from .ffpoly import PrimeFieldPoly
from .ratmap import RationalMap


class ReducedMap(Record, frozen=True):
    """Coefficient-wise reduction of a canonical pair modulo a prime."""

    modulus: int
    p_red: PrimeFieldPoly
    q_red: PrimeFieldPoly
    degree: int   # degree d of the map upstairs
    good: bool    # good reduction: the prime does not divide the map's res

    def eval_point(self, t: int) -> int:
        """Image of a point of P^1(F_p) in the 0..p encoding (p = infinity)."""
        p = self.modulus
        if t == p:
            x = self.p_red.coeff(self.degree)
            y = self.q_red.coeff(self.degree)
        else:
            x = self.p_red(t)
            y = self.q_red(t)
        if y == 0:
            if x == 0:
                raise BadReductionError(
                    f"common root at {t} mod {p}; map has bad reduction"
                )
            return p
        return x * pow(y, -1, p) % p


def reduce_mod_p(map_: RationalMap, prime: int) -> ReducedMap:
    """Coefficient-wise reduction, good or not."""
    good = has_good_reduction(map_, prime)
    p_red = PrimeFieldPoly.from_intpoly(map_.p, prime)
    q_red = PrimeFieldPoly.from_intpoly(map_.q, prime)
    return ReducedMap(prime, p_red, q_red, map_.d, good)


def has_good_reduction(map_: RationalMap, prime: int) -> bool:
    """Degree is preserved and the reduced pair has no common projective root:
    the prime does not divide ``map_.res``.  Raises CompositeModulusError for
    a modulus that is not prime."""
    if not is_probable_prime(prime):
        raise CompositeModulusError(f"{prime} is not prime")
    return map_.res % prime != 0


def bad_reduction_primes(map_: RationalMap, budget: FactorBudget | None = None) -> tuple[int, ...]:
    """All primes of bad reduction: the prime divisors of ``map_.res``.

    Raises FactoringBudgetError if the resultant cannot be fully factored
    within the budget (the list would be incomplete).
    """
    return tuple(sorted(factor_counts(map_.res, budget)))


class ModOrbit(Record):
    """Tail/cycle decomposition of a forward orbit in P^1(F_p)."""

    modulus: int
    tail_length: int
    cycle_length: int
    visited: list[int]  # visited[tail_length + cycle_length] == visited[tail_length]


def orbit_mod_p(rmap: ReducedMap, start: int) -> ModOrbit:
    """Exhaustive forward orbit from ``start`` (0..p encoding, p = infinity).

    Requires good reduction; terminates within p+1 steps since P^1(F_p) is
    finite.
    """
    p = rmap.modulus
    if not rmap.good:
        raise BadReductionError("orbit_mod_p requires good reduction")
    if not 0 <= start <= p:
        raise ValueError(f"start must lie in 0..{p}")
    step_at = [-1] * (p + 1)
    visited = [start]
    step_at[start] = 0
    t = start
    for step in range(1, p + 2):
        t = rmap.eval_point(t)
        visited.append(t)
        if step_at[t] >= 0:
            tail = step_at[t]
            return ModOrbit(p, tail, step - tail, visited)
        step_at[t] = step
    raise AssertionError("orbit failed to close in p+1 steps")  # unreachable


def point_mod_p(num: int, den: int, prime: int) -> int:
    """Reduce a coprime projective point (num : den) to the 0..p encoding."""
    if math.gcd(num, den) > 1:
        raise ValueError("point_mod_p expects coprime coordinates")
    n, d = num % prime, den % prime
    if d == 0:
        return prime
    return n * pow(d, -1, prime) % prime


def good_reduction_origin_valuations(
    map_: RationalMap, prime: int, n: int
) -> list[tuple[float, float]]:
    """[(v_p(p_k(0)), v_p(q_k(0)))] for k <= n at a good-reduction prime.

    Verifies that each pair has minimum valuation 0 (the normalized-iterates
    property); a violation raises InvariantViolationError.  A zero value
    reports math.inf.
    """
    if not has_good_reduction(map_, prime):
        raise BadReductionError(f"bad reduction at {prime}")
    out = []
    for u, v in map_.origin_values(n):
        vu = math.inf if u == 0 else valuation(u, prime)
        vv = math.inf if v == 0 else valuation(v, prime)
        if min(vu, vv) != 0:
            raise InvariantViolationError(
                f"iterate pair not normalized at {prime}: valuations ({vu}, {vv})"
            )
        out.append((vu, vv))
    return out
