"""Reduction of rational maps modulo primes and mod-p orbits.

A canonical map has joint content 1, so it is normalized at every prime and
reduces coefficient-wise.  Good reduction at p means the reduced pair keeps
degree d and acquires no common projective root, which holds exactly when p
does not divide ``RationalMap.res``, the resultant of the two degree-d forms
(Silverman, GTM 241, section 2.4); the bad primes are the primes of ``res``.
Good reduction commutes with iteration, so ``orbit_mod_p`` steps a point's
orbit on residues with the map's one evaluator, ``ratmap._substitute``.
Points of P^1(F_p) are encoded as integers 0..p, with p standing for
infinity, so orbits can use a flat visited array.
"""

from __future__ import annotations

from ._record import Record
from .errors import BadReductionError
from .factorint import FactorBudget, factor_counts
from .ratmap import P1Point, RationalMap, _substitute


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


def orbit_mod_p(map_: RationalMap, start: P1Point, prime: int) -> ModOrbit:
    """Exhaustive forward orbit of ``start`` reduced mod ``prime``, in the
    0..p encoding (p = infinity).

    ``prime`` must be prime; it is not tested.  Raises BadReductionError
    when p divides ``map_.res``.  Terminates within p+1 steps since
    P^1(F_p) is finite.
    """
    p = prime
    if map_.res % p == 0:
        raise BadReductionError(f"orbit_mod_p requires good reduction; {p} divides res")
    pc = [c % p for c in map_.pc]
    qc = [c % p for c in map_.qc]
    t = p if start.den % p == 0 else start.num * pow(start.den, -1, p) % p
    step_at = [-1] * (p + 1)
    visited = [t]
    step_at[t] = 0
    for step in range(1, p + 2):
        u, v = _substitute(pc, qc, *((1, 0) if t == p else (t, 1)))
        t = p if v % p == 0 else u * pow(v, -1, p) % p
        visited.append(t)
        if step_at[t] >= 0:
            tail = step_at[t]
            return ModOrbit(p, tail, step - tail, visited)
        step_at[t] = step
    raise AssertionError("orbit failed to close in p+1 steps")  # unreachable
