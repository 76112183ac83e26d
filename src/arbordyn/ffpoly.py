"""Polynomials over prime fields F_p and the standard irreducibility test.

A degree-n polynomial f over F_p is irreducible iff z^(p^n) = z (mod f) and
gcd(z^(p^(n/l)) - z, f) = 1 for every prime l dividing n.  The Frobenius
powers are computed by modular exponentiation of polynomials, so the test
costs O(n log p) polynomial multiplications mod f.
"""

from __future__ import annotations


from ._record import Record
from .errors import CompositeModulusError
from .factorint import factor_counts, is_probable_prime
from .intpoly import IntPoly


def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class PrimeFieldPoly(Record, frozen=True):
    """Dense polynomial over F_p; coefficients reduced to [0, p)."""

    modulus: int
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, modulus: int, coeffs) -> "PrimeFieldPoly":
        if modulus < 2 or not is_probable_prime(modulus):
            raise CompositeModulusError(f"modulus {modulus} is not prime")
        return cls(modulus, _trim([c % modulus for c in coeffs]))

    @classmethod
    def from_intpoly(cls, f: IntPoly, modulus: int) -> "PrimeFieldPoly":
        return cls.make(modulus, f.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.modulus
        return acc

    def add(self, other: "PrimeFieldPoly") -> "PrimeFieldPoly":
        p = self.modulus
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return PrimeFieldPoly(p, _trim(out))

    def sub(self, other: "PrimeFieldPoly") -> "PrimeFieldPoly":
        p = self.modulus
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = (out[i] - c) % p
        return PrimeFieldPoly(p, _trim(out))

    def mul(self, other: "PrimeFieldPoly") -> "PrimeFieldPoly":
        p = self.modulus
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PrimeFieldPoly(p, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return PrimeFieldPoly(p, _trim(out))

    def scale(self, c: int) -> "PrimeFieldPoly":
        p = self.modulus
        c %= p
        return PrimeFieldPoly(p, _trim([a * c % p for a in self.coeffs]))

    def divmod(self, other: "PrimeFieldPoly") -> tuple["PrimeFieldPoly", "PrimeFieldPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.modulus
        inv = pow(other.lc, -1, p)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return PrimeFieldPoly(p, ()), self
        quot = [0] * (dq + 1)
        for k in reversed(range(dq + 1)):
            c = rem[k + other.degree] * inv % p
            quot[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] = (rem[k + i] - c * oc) % p
        return PrimeFieldPoly(p, _trim(quot)), PrimeFieldPoly(p, _trim(rem))

    def mod(self, other: "PrimeFieldPoly") -> "PrimeFieldPoly":
        return self.divmod(other)[1]

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def monic(self) -> "PrimeFieldPoly":
        if self.is_zero or self.lc == 1:
            return self
        return self.scale(pow(self.lc, -1, self.modulus))

    def gcd(self, other: "PrimeFieldPoly") -> "PrimeFieldPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.mod(b)
        return a.monic()


def pow_mod(base: PrimeFieldPoly, e: int, mod: PrimeFieldPoly) -> PrimeFieldPoly:
    """base**e reduced mod ``mod``."""
    result = PrimeFieldPoly(mod.modulus, (1,))
    base = base.mod(mod)
    while e:
        if e & 1:
            result = result.mul(base).mod(mod)
        base = base.mul(base).mod(mod)
        e >>= 1
    return result


def ffpoly_is_irreducible(f: PrimeFieldPoly) -> bool:
    """Irreducibility over F_p by the Frobenius fixed-point criterion.

    Requires deg f >= 1.  Scalar multiples share the verdict, so the test
    works directly on non-monic input.
    """
    if not is_probable_prime(f.modulus):
        raise CompositeModulusError(f"modulus {f.modulus} is not prime")
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if n == 1:
        return True
    p = f.modulus
    z = PrimeFieldPoly(p, (0, 1))
    # frob[k] = z^(p^k) mod f, built by iterating u -> u^p
    frob = [z.mod(f)]
    for _ in range(n):
        frob.append(pow_mod(frob[-1], p, f))
    if not frob[n].sub(z).mod(f).is_zero:
        return False
    for ell in factor_counts(n):
        g = frob[n // ell].sub(z).gcd(f)
        if g.degree != 0:
            return False
    return True
