"""Rational maps on the projective line as coprime integer polynomial pairs.

A map phi = p/q is stored canonically: integer coefficients, joint content 1,
positive leading coefficient on the higher-degree member, and ``res``, the
absolute resultant of the two degree-d forms P(Z, W) and Q(Z, W).

``_substitute`` is the one evaluator: (P(u, v), Q(u, v)) for ints, for
polynomials (a step of the iterate ladder, and a Moebius conjugate) and for
quadratic-field values, visiting only the nonzero coefficients.  Points of
P^1(Q) are normalized integer pairs (num, den) with den >= 0 and gcd 1;
infinity is (1, 0).  For coprime (u, v) the gcd of P(u, v) and Q(u, v)
divides ``res`` (Silverman, GTM 241, section 2.4), so normalizing an image
takes one gcd with a small operand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from ._record import Record, int_text
from .errors import DegenerateMapError, DegreeTooSmallError, NotDefinedOverQError
from .intpoly import IntPoly, resultant
from .quadext import QuadExtElem

DEFAULT_GROWTH_CAP_BITS = 2 ** 24
DEFAULT_MAX_STEPS = 64
DEFAULT_HEIGHT_CAP_BITS = 4096


class Infinity:
    """The point at infinity, as a bare field-level value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    to_dict = __repr__  # its JSON form is its text

    def height_bits(self) -> int:
        return 0


INF = Infinity()

FieldValue = Union[Fraction, QuadExtElem, Infinity]


class P1Point(Record, frozen=True):
    """Normalized point of P^1(Q): gcd(num, den) = 1, den >= 0, inf = (1, 0)."""

    num: int
    den: int

    @classmethod
    def of(cls, num: int, den: int = 1) -> "P1Point":
        if num == 0 and den == 0:
            raise ValueError("(0, 0) is not a projective point")
        if den == 0:
            return cls(1, 0)
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if den < 0:
            num, den = -num, -den
        return cls(num, den)

    @classmethod
    def infinity(cls) -> "P1Point":
        return cls(1, 0)

    @classmethod
    def from_fraction(cls, x) -> "P1Point":
        x = Fraction(x)
        return cls.of(x.numerator, x.denominator)

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    def to_fraction(self) -> Fraction:
        if self.den == 0:
            raise ValueError("infinity has no rational value")
        return Fraction(self.num, self.den)

    def height_bits(self) -> int:
        return max(abs(self.num).bit_length(), self.den.bit_length())

    def __str__(self) -> str:
        """"num/den", "num" or "inf"; parts wider than DECIMAL_SAFE_BITS in hex."""
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return int_text(self.num)
        return f"{int_text(self.num)}/{int_text(self.den)}"

    to_dict = __str__  # its JSON form is its text, not its fields


def _field_entries(entries):
    out = []
    for e in entries:
        if isinstance(e, QuadExtElem):
            out.append(e)
        else:
            out.append(Fraction(e))
    return tuple(out)


class MobiusTransform(Record, frozen=True):
    """z -> (a*z + b)/(c*z + e) with exact entries and nonzero determinant."""

    a: object
    b: object
    c: object
    e: object

    @classmethod
    def make(cls, a, b, c, e) -> "MobiusTransform":
        a, b, c, e = _field_entries((a, b, c, e))
        mu = cls(a, b, c, e)
        if mu.det() == 0:
            raise ValueError("Moebius transform must be invertible")
        return mu

    def det(self):
        return self.a * self.e - self.b * self.c

    def compose(self, other: "MobiusTransform") -> "MobiusTransform":
        """self after other (matrix product self * other)."""
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.e,
            self.c * other.a + self.e * other.c,
            self.c * other.b + self.e * other.e,
        )

    def entries(self):
        return (self.a, self.b, self.c, self.e)

    def is_rational(self) -> bool:
        return all(
            not isinstance(t, QuadExtElem) or t.is_rational for t in self.entries()
        )

    def __repr__(self) -> str:
        return f"MobiusTransform({self.a}, {self.b}, {self.c}, {self.e})"


class RationalMap:
    """Degree-d rational self-map of P^1 over Q, d >= 2, as a canonical pair."""

    __slots__ = ("p", "q", "d", "res", "pc", "qc")

    def __init__(self, p: IntPoly, q: IntPoly):
        if p.is_zero or q.is_zero:
            raise DegenerateMapError("degenerate map: zero numerator or denominator")
        c = math.gcd(p.content(), q.content())
        if c > 1:
            p = p.scalar_exact_div(c)
            q = q.scalar_exact_div(c)
        lead = p if p.degree >= q.degree else q
        if lead.lc < 0:
            p, q = -p, -q
        d = max(p.degree, q.degree)
        if d < 2:
            raise DegreeTooSmallError("degree too small: need max(deg p, deg q) >= 2")
        res = resultant(p, q)
        if res == 0:
            raise DegenerateMapError("degenerate map: p and q share a root")
        # the resultant of the degree-d forms; its primes are the bad primes
        res *= lead.lc ** (d - min(p.degree, q.degree))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "res", abs(res))
        # coefficient vectors padded to length d+1 (index i is Z^i W^(d-i))
        object.__setattr__(self, "pc", tuple(p.coeff(i) for i in range(d + 1)))
        object.__setattr__(self, "qc", tuple(q.coeff(i) for i in range(d + 1)))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMap is immutable")

    @classmethod
    def from_coeffs(cls, p_coeffs, q_coeffs) -> "RationalMap":
        return cls(IntPoly(p_coeffs), IntPoly(q_coeffs))

    @classmethod
    def from_fractions(cls, p_coeffs, q_coeffs) -> "RationalMap":
        """Build from rational coefficient lists by clearing denominators."""
        pf = [Fraction(c) for c in p_coeffs]
        qf = [Fraction(c) for c in q_coeffs]
        lcm = 1
        for c in pf + qf:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        return cls(
            IntPoly([int(c * lcm) for c in pf]),
            IntPoly([int(c * lcm) for c in qf]),
        )

    # -- bookkeeping ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMap)
            and self.p == other.p
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        from .intpoly import format_poly

        return f"RationalMap(({format_poly(self.p)}) / ({format_poly(self.q)}))"

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        """phi(x): a P1Point to a P1Point; an int or a Fraction (read as a
        Fraction), a QuadExtElem, or INF to a field value, with a pole going
        to INF.  Any other argument, a float included, raises TypeError."""
        pc, qc = self.pc, self.qc
        if isinstance(x, P1Point):
            u, v = _substitute(pc, qc, x.num, x.den)
            if v == 0:
                return P1Point(1, 0)
            g = math.gcd(u % self.res, self.res, v)  # gcd(u, v) divides res
            return P1Point(u // g, v // g) if v > 0 else P1Point(-u // g, -v // g)
        if isinstance(x, Infinity):
            return INF if qc[-1] == 0 else Fraction(pc[-1], qc[-1])
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            u, v = _substitute(pc, qc, x.numerator, x.denominator)
            return INF if v == 0 else Fraction(u, v)
        if not isinstance(x, QuadExtElem):
            raise TypeError(f"cannot evaluate a map at {type(x).__name__} {x!r}")
        u, v = _substitute(pc, qc, x, 1)
        return INF if v == 0 else u / v

    def origin_values(self, n: int, growth_cap_bits: int | None = None) -> list[tuple[int, int]]:
        """[(p_k(0), q_k(0))] for k = 1..n, exact integers, cut before the
        first pair wider than ``growth_cap_bits`` (None: no cap); the list is
        shorter than n exactly when the cap cut it.

        Each step is one ``_substitute`` of (u, v) into the homogenized map,
        starting from (0, 1), and no step runs past the n-th term.
        """
        pc, qc = self.pc, self.qc
        u, v = 0, 1
        out: list[tuple[int, int]] = []
        while len(out) < n:
            u, v = _substitute(pc, qc, u, v)
            if (growth_cap_bits is not None
                    and max(abs(u).bit_length(), abs(v).bit_length()) > growth_cap_bits):
                break
            out.append((u, v))
        return out

    # -- orbits ----------------------------------------------------------------

    def orbit(self, start: P1Point, max_steps: int = DEFAULT_MAX_STEPS,
              height_cap_bits: int = DEFAULT_HEIGHT_CAP_BITS) -> "OrbitRecord":
        """Iterate until a revisit, the step budget, or the height cap.

        A point is never declared non-preperiodic: absent a revisit the status
        only reports which budget ended the search.
        """
        points = [start]
        seen = {start: 0}
        pt = start
        for step in range(1, max_steps + 1):
            pt = self(pt)
            if pt in seen:
                t = seen[pt]
                points.append(pt)
                return OrbitRecord(points, "preperiodic", t, step - t)
            points.append(pt)
            if pt.height_bits() > height_cap_bits:
                return OrbitRecord(points, "escaped", None, None)
            seen[pt] = step
        return OrbitRecord(points, "budget_exhausted", None, None)

    # -- conjugation -------------------------------------------------------------

    def conjugate(self, mu: MobiusTransform) -> "RationalMap":
        """mu . phi . mu^-1 as a canonical pair over Q.

        The entries of mu must be rational; a QuadExtElem entry with zero
        sqrt part stands for its rational value, and any other raises
        NotDefinedOverQError before any work.  Scaled to integers (which
        leaves mu unchanged), the conjugate is M.(P, Q)(e z - b, a - c z)
        with M = (a, b; c, e): one ``_substitute`` of two linear polynomials.
        """
        entries = []
        for t in mu.entries():
            if isinstance(t, QuadExtElem):
                if not t.is_rational:
                    raise NotDefinedOverQError(f"conjugator entry {t!r} is not rational")
                t = t.as_fraction()
            entries.append(Fraction(t))
        den = math.lcm(*(t.denominator for t in entries))
        a, b, c, e = (int(t * den) for t in entries)
        pu, qu = _substitute(self.pc, self.qc, IntPoly([-b, e]), IntPoly([a, -c]))
        return RationalMap(a * pu + b * qu, c * pu + e * qu)


class OrbitRecord(Record):
    points: list[P1Point]
    status: str  # preperiodic | escaped | budget_exhausted
    preperiod: int | None
    period: int | None


def _substitute(pc: Sequence[int], qc: Sequence[int], u, v) -> tuple:
    """(P(u, v), Q(u, v)) for the degree-d homogenizations with coefficient
    vectors pc, qc (index i is u^i v^(d-i)), exact for int, Fraction, IntPoly
    and QuadExtElem; with (u, v) = (p_n, q_n) it is one step of the iterate
    ladder.  The coefficients are ints, except where a normal form over the
    critical field is evaluated (Fraction or QuadExtElem).

    Only the exponents i with a nonzero coefficient are visited.  The powers
    u^i and v^(d-i), and each product u^i v^(d-i), are formed once and shared
    by the two sums: a dense map takes one product per power, a two-term map
    (z^d + a)/(z^d + b) forms just u^d and v^d.
    """
    d = len(pc) - 1
    exps = [i for i in range(d + 1) if pc[i] or qc[i]]
    upow = _powers(u, exps)
    vpow = _powers(v, [d - i for i in reversed(exps)])[::-1]
    new_u = new_v = 0 * u
    for i, a, b in zip(exps, upow, vpow):
        basis = b if a is None else a if b is None else a * b
        if pc[i]:
            new_u += pc[i] * basis
        if qc[i]:
            new_v += qc[i] * basis
    return new_u, new_v


def _powers(x, exps: list[int]) -> list:
    """[x^e for e in exps], exps ascending, None standing for x^0; each power
    is the one before times x^gap, so consecutive exponents cost one product
    each."""
    out, power, last = [], None, 0
    for e in exps:
        if e > last:
            step = x if e - last == 1 else x ** (e - last)
            power, last = step if power is None else power * step, e
        out.append(power)
    return out
