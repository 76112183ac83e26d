"""Certificates that preimage-field towers of (z^2 + a)/z^2 attain full degree.

Every certificate is one-sided and recomputable.  Level n asserts that the
n-th preimage field grows by the maximal degree 2^(2^(n-1)) over its
predecessor; the evidence is an irreducibility chain (base quadratic plus the
one-step criterion "previous iterate irreducible and its value at 1 is not a
square", read off mod 4) together with a proof that the primitive part
theta_(n+1) is not a perfect square.  A level that cannot be certified is
reported "unknown", never "failed": the criteria are sufficient, not
necessary.

Every witness is a residue, so no f or theta is built exactly: -a and
f_(n+1) are read mod 4, and theta_(n+1) mod a prime q = 1 (mod 4) decides a
level, since a quadratic non-residue mod q is not a square (Odoni-Stoll).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import Fresh, Record
from .errors import InvariantViolationError
from .factorint import (
    FactorBudget,
    factor_counts,
    is_probable_prime,
    primes_below,
    trial_division,
)
from .intpoly import IntPoly
from .divisibility import f_sequence, main_family, theta
from .ratmap import P1Point

# Residue witnesses are searched among the primes below this bound.
RESIDUE_PRIME_BOUND = 5000


# ---------------------------------------------------------------------------
# Irreducibility mod p
# ---------------------------------------------------------------------------


def mod_p_irreducible_witness(f: IntPoly, bound: int = 10 ** 4) -> Optional[int]:
    """Smallest prime p < bound with f irreducible modulo p, if any.

    One-sided oracle: irreducibility mod p implies irreducibility over Q
    (degree must be preserved, so primes dividing the leading coefficient
    are skipped).
    """
    from .ffpoly import PrimeFieldPoly, ffpoly_is_irreducible

    for p in primes_below(bound):
        if f.lc % p == 0:
            continue
        if ffpoly_is_irreducible(PrimeFieldPoly.from_intpoly(f, p)):
            return p
    return None


# ---------------------------------------------------------------------------
# Maximality certificates
# ---------------------------------------------------------------------------


class LevelEvidence(Record):
    """Evidence for one level of the tower.

    ``irreducibility`` documents the step concluding that the n-th
    numerator itself is irreducible (the chain the next level builds on);
    the level's maximality verdict rests on the previous level's conclusion
    plus ``theta``, the non-squareness witness for theta_(n+1).
    """

    n: int
    irreducibility: dict
    theta: Optional[dict]
    verdict: str  # maximal | unknown


ALL_MAXIMAL = "all_maximal"
PARTIAL = "partial"
HYPOTHESES_UNMET = "hypotheses_unmet"


class MaximalityCertificate(Record):
    a: int
    depth: int
    overall: str
    maximal_levels: list[int]
    levels: list[LevelEvidence] = Fresh(list)


def maximality_certificate(a: int, depth: int) -> MaximalityCertificate:
    """Per-level maximality certificate for the tower over basepoint 0.

    Requires a = 2 (mod 4) and a <= -3 (the regime where the irreducibility
    chain applies); otherwise the certificate reports hypotheses_unmet.  In
    the regime every iterate numerator is irreducible, by one of two routes:
    -a = 2 (mod 4) is not a square (n = 1), and f_(n+1) = 3 (mod 4) for
    n >= 2, by induction, as odd squares are 1 mod 4; a term off that
    congruence raises InvariantViolationError.  Both are recorded as
    residues mod 4.

    A level n >= 2 is maximal when a prime q = 1 (mod 4) below
    RESIDUE_PRIME_BOUND makes theta_(n+1) mod q a quadratic non-residue,
    else unknown.  Only residues are built, so no operand grows with the
    depth and no growth cap applies.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    if a % 4 != 2 or a > -3:
        return MaximalityCertificate(a, depth, HYPOTHESES_UNMET, [], [])
    mod4 = f_sequence(a, depth + 1, modulus=4)
    found = _residue_witnesses(a, range(2, depth + 1))
    levels = [LevelEvidence(1, _irreducible(1, "base_nonsquare", -a), None, "maximal")]
    for n in range(2, depth + 1):
        if mod4[n] != 3:
            raise InvariantViolationError(f"f_{n + 1}(a={a}) is not 3 mod 4")
        q, r = found.get(n, (None, None))
        levels.append(LevelEvidence(
            n, _irreducible(n, "congruence_3_mod_4", mod4[n]),
            {"route": "residue", "index": n + 1, "q": q, "r": r},
            "unknown" if q is None else "maximal",
        ))
    maximal = [lvl.n for lvl in levels if lvl.verdict == "maximal"]
    overall = ALL_MAXIMAL if len(maximal) == depth else PARTIAL
    return MaximalityCertificate(a, depth, overall, maximal, levels)


def _residue_witnesses(a: int, levels: range) -> dict[int, tuple[int, int]]:
    """Level n -> (q, r) for the least prime q = 1 (mod 4) below
    RESIDUE_PRIME_BOUND, q not dividing a, at which r = theta_(n+1) mod q is a
    quadratic non-residue; a level that no such prime decides is left out.

    As -1 is a square mod such q, r decides |theta_(n+1)| whatever its sign.
    Each prime's residues are stepped once, for the levels still open.
    """
    found = {}
    left = list(levels)
    for q in primes_below(RESIDUE_PRIME_BOUND):
        if not left:
            break
        if q % 4 != 1 or a % q == 0:
            continue
        residues = theta(f_sequence(a, left[-1] + 1, modulus=q), q)
        for n in left:
            r = residues[n]
            if r is not None and pow(r, (q - 1) // 2, q) == q - 1:
                found[n] = (q, r)
        left = [n for n in left if n not in found]
    return found


def _irreducible(n: int, route: str, value: int) -> dict:
    """The record that the n-th iterate numerator is irreducible by ``route``,
    witnessed by the value the route reads mod 4: -a at n = 1, else f_(n+1)."""
    return {"n": n, "status": "certified", "route": route,
            "witness": {"modulus": 4, "residue": value % 4}}


def verify_certificate(cert: MaximalityCertificate) -> bool:
    """Recompute every witness; True iff the verdicts reproduce bit-for-bit."""
    if cert.overall == HYPOTHESES_UNMET:
        return cert.a % 4 != 2 or cert.a > -3
    fresh = maximality_certificate(cert.a, cert.depth)
    return fresh.to_dict() == cert.to_dict()


def certificate_from_dict(doc: dict) -> MaximalityCertificate:
    """Rebuild a certificate from its JSON form (inverse of to_dict)."""
    levels = [
        LevelEvidence(l["n"], l["irreducibility"], l["theta"], l["verdict"])
        for l in doc.get("levels", [])
    ]
    return MaximalityCertificate(
        doc["a"], doc["depth"], doc["overall"],
        list(doc.get("maximal_levels", [])), levels,
    )


# ---------------------------------------------------------------------------
# Hypothesis witnesses for the parametrized family
# ---------------------------------------------------------------------------


class HypothesisReport(Record):
    """Witness primes for the two residue conditions on the parameter m.

    Condition 1 needs a prime p = 3 (mod 4) dividing m-1, m, or m+1;
    condition 2 needs a prime p = 5 or 7 (mod 8) dividing 2m-1 or 2m+1.
    Witnesses are smallest-first and rechecked on construction.
    """

    m: int
    s1_witness: Optional[int]
    s1_target: Optional[str]
    s2_witness: Optional[int]
    s2_target: Optional[str]
    shortcut: bool
    met: bool


def _witness_search(targets: list[tuple[str, int]], wanted,
                    budget: FactorBudget | None) -> tuple[Optional[int], Optional[str]]:
    """(p, name): the least prime p that ``wanted`` accepts among the primes
    of the named targets, or (None, None).

    Trial division below the trial bound comes first.  Its candidates are
    the primes it counts, plus a rest below the bound, which is then prime;
    every prime of a larger rest is at least the bound, so the least
    candidate that qualifies is the least of all.  Only when none qualifies
    is every target factored under ``budget``.
    """
    live = [(name, value) for name, value in targets if value not in (0, 1, -1)]
    bound = (budget or FactorBudget()).trial_bound
    found = []
    for name, value in live:
        counts, rest = trial_division(value, bound)
        found += [(p, name) for p in [*counts, rest] if 1 < p < bound and wanted(p)]
    if not found:
        found = [(p, name) for name, value in live
                 for p in factor_counts(value, budget) if wanted(p)]
    return min(found, key=lambda c: c[0], default=(None, None))


def hypothesis_witnesses(m: int, budget: FactorBudget | None = None) -> HypothesisReport:
    """Search the residue-condition witnesses for m, factoring under ``budget``."""
    if m in (-1, 0, 1):
        raise ValueError("m must avoid -1, 0, 1")
    s1_witness, s1_target = _witness_search(
        [("m-1", m - 1), ("m", m), ("m+1", m + 1)],
        lambda p: p % 4 == 3, budget,
    )
    s2_witness, s2_target = _witness_search(
        [("2m-1", 2 * m - 1), ("2m+1", 2 * m + 1)],
        lambda p: p % 8 in (5, 7), budget,
    )
    if s1_witness is not None and not (
        is_probable_prime(s1_witness) and s1_witness % 4 == 3
    ):
        raise InvariantViolationError("bad S1 witness")
    if s2_witness is not None and not (
        is_probable_prime(s2_witness) and s2_witness % 8 in (5, 7)
    ):
        raise InvariantViolationError("bad S2 witness")
    shortcut = m > 0 and m % 4 != 1
    met = s1_witness is not None and s2_witness is not None
    return HypothesisReport(m, s1_witness, s1_target, s2_witness, s2_target,
                            shortcut, met)


def family_parameter(m: int) -> int:
    """a = -2(2m^2 - 1)^2."""
    return -2 * (2 * m * m - 1) ** 2


class ParametrizationReport(Record):
    m: int
    a: int
    alpha: Fraction
    checks: dict
    ok: bool


def alpha_parametrization(m: int) -> ParametrizationReport:
    """The rational point (a, alpha) with phi^3(alpha) = phi^3(0), verified.

    a = -2(2m^2-1)^2 and alpha = (2m^2-1)/m; the first iterates evaluate to
    1 - 2m^2 and -1, after which the orbit of alpha merges with the orbit
    of 0.  Any failed check raises, since it would mean an arithmetic bug.
    """
    if m in (-1, 0, 1):
        raise ValueError("m must avoid -1, 0, 1")
    a = family_parameter(m)
    alpha = Fraction(2 * m * m - 1, m)
    phi = main_family(a)
    checks = {}
    v1 = phi(P1Point.from_fraction(alpha))
    checks["phi(alpha) = 1-2m^2"] = v1 == P1Point.of(1 - 2 * m * m)
    v2 = phi(v1)
    checks["phi^2(alpha) = -1"] = v2 == P1Point.of(-1)
    v3 = phi(v2)
    checks["phi^3(alpha) = a+1"] = v3 == P1Point.of(a + 1)
    orbit_alpha = v3
    orbit_zero = phi(phi(phi(P1Point.of(0))))         # 0 -> infinity -> 1 -> a + 1
    for i in (3, 4, 5):
        checks[f"phi^{i}(alpha) = phi^{i}(0)"] = orbit_alpha == orbit_zero
        orbit_alpha = phi(orbit_alpha)
        orbit_zero = phi(orbit_zero)
    ok = all(checks.values())
    if not ok:
        raise InvariantViolationError(f"parametrization checks failed: {checks}")
    return ParametrizationReport(m, a, alpha, checks, ok)
