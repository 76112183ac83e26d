"""Critical points, ramification, normal forms, and critical orbit relations.

The finite critical points of phi = p/q are the roots of the Wronskian
p'q - q'p, with ramification index one more than the root multiplicity; the
point at infinity is critical exactly when the Wronskian falls short of
degree 2d-2, by the same amount.  A map of degree d is bicritical exactly
when its Wronskian is c*R^(d-1) with R of degree 2 (two finite critical
points) or of degree 1 (one finite, and infinity), both with e = d.  That
shape is read off the top coefficients and checked in O(d) steps; the
critical points are the roots of R, in Q or in Q(sqrt disc R).

Moving the critical points to 0 and infinity by mu forces the conjugate
mu . phi . mu^-1 into the shape (c1 Z^d + a W^d, c2 Z^d + b W^d), so the
normal form is read from two evaluations of the map's homogeneous pair
(``ratmap._substitute``): at mu^-1(inf) = (e, -c) and mu^-1(0) = (-b, a),
representatives of the two critical points, for mu = (a, b; c, e).
``verify_normal_form`` checks mu . phi = N . mu at 2d + 1 points instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from ._record import Record
from .errors import NotBicriticalError
from .factorint import FactorBudget, is_perfect_square
from .fieldpoly import root_order, trim
from .intpoly import IntPoly
from .quadext import QuadExtElem, squarefree_kernel
from .ratmap import (
    DEFAULT_HEIGHT_CAP_BITS,
    INF,
    FieldValue,
    Infinity,
    MobiusTransform,
    P1Point,
    RationalMap,
    _substitute,
)

Location = Union[P1Point, QuadExtElem]


class FieldDescriptor(Record, frozen=True):
    kind: str  # "rational" | "quadratic"
    s: Optional[int] = None


RATIONAL_FIELD = FieldDescriptor("rational")


class CriticalPoint(Record, frozen=True):
    location: Location
    index: int  # ramification index e >= 2

    def location_str(self) -> str:
        return str(self.location)


class CriticalData(Record, frozen=True):
    points: tuple[CriticalPoint, ...]
    field: FieldDescriptor

    def ramification_defect(self) -> int:
        """sum (e - 1); equals 2d - 2 when all critical points are listed."""
        return sum(pt.index - 1 for pt in self.points)


def wronskian(map_: RationalMap) -> IntPoly:
    """p'q - q'p; its roots with multiplicity carry the finite ramification."""
    return map_.p.derivative() * map_.q - map_.q.derivative() * map_.p


def ramification_index(map_: RationalMap, pt: Union[P1Point, QuadExtElem]) -> int:
    """Order of vanishing of p(z)q(a) - q(z)p(a) at a (via 1/phi(1/z) at inf)."""
    if isinstance(pt, P1Point) and pt.is_infinity:
        d = map_.d
        pr = map_.p.reverse(d)
        qr = map_.q.reverse(d)
        t = pr.coeff(0) * qr - qr.coeff(0) * pr
        for i, c in enumerate(t.coeffs):
            if c:
                return i
        raise AssertionError("vanishing ramification polynomial")  # unreachable
    alpha = pt.to_fraction() if isinstance(pt, P1Point) else pt
    pa, qa = map_.p(alpha), map_.q(alpha)
    return root_order(trim([c * qa - e * pa for c, e in zip(map_.pc, map_.qc)]), alpha)


def _root_poly(w: IntPoly, d: int) -> Optional[IntPoly]:
    """The primitive R with positive leading coefficient and w = c*R^(d-1), R
    of degree 1 or 2, or None when w has no such shape.

    With k = d - 1, w/lc(w) = R^k begins z^(mk) + k*beta*z^(mk-1) +
    (k*gamma + C(k,2)*beta^2)*z^(mk-2) for R = z^m + beta*z^(m-1) + gamma*z^(m-2),
    so the top coefficients of w fix R.  Then w = c*R^k exactly when
    w'R = k*R'w, since (w/R^k)' = R^(k-1)*(w'R - k*R'w)/R^(2k).  A quadratic R
    has distinct roots: a double root would be critical with e = 2d - 1 > d.
    """
    k = d - 1
    n = w.degree
    if n not in (k, 2 * k):
        return None
    beta = Fraction(w.coeff(n - 1), k * w.lc)
    if n == k:
        monic = [beta, Fraction(1)]
    else:
        gamma = (Fraction(w.coeff(n - 2), w.lc) - k * (k - 1) // 2 * beta ** 2) / k
        monic = [gamma, beta, Fraction(1)]
    den = math.lcm(*(c.denominator for c in monic))
    r = IntPoly([(c * den).numerator for c in monic])
    if w.derivative() * r != k * (r.derivative() * w):
        return None
    return r


def critical_points(map_: RationalMap, budget: FactorBudget | None = None) -> CriticalData:
    """The two critical points of a bicritical map, each with e = d, over Q or
    one Q(sqrt s): the roots of R with Wronskian c*R^(d-1), and infinity when
    R is linear.

    Order: rational roots ascending, else the conjugate pair with positive
    sqrt(s) part first; infinity last.  Raises NotBicriticalError when the
    Wronskian has any other shape.  Only disc R is factored, under ``budget``
    (FactoringBudgetError if incomplete), and only when it is not a square.
    """
    d = map_.d
    w = wronskian(map_)
    r = _root_poly(w, d)
    if r is None:
        raise NotBicriticalError(
            f"map is not bicritical: its Wronskian of degree {w.degree} is not "
            f"c*R^{d - 1} with R of degree 1 or 2")
    field = RATIONAL_FIELD
    if r.degree == 1:
        locations = [P1Point.of(-r.coeff(0), r.lc), P1Point.infinity()]
    else:
        aa, bb = r.lc, r.coeff(1)
        disc = bb * bb - 4 * aa * r.coeff(0)
        square, m = is_perfect_square(disc)
        if square:
            locations = [P1Point.of(-bb + sign * m, 2 * aa) for sign in (-1, 1)]
        else:
            s, m = squarefree_kernel(disc, budget)
            c0, c1 = Fraction(-bb, 2 * aa), Fraction(m, 2 * aa)
            locations = [QuadExtElem(c0, c1, s), QuadExtElem(c0, -c1, s)]
            field = FieldDescriptor("quadratic", s)
    return CriticalData(tuple(CriticalPoint(loc, d) for loc in locations), field)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

POWER = "power"
INVERSE_POWER = "inverse_power"
BICRITICAL = "bicritical"


class NormalForm(Record, frozen=True):
    """Result of the normal-form pipeline together with its conjugator.

    kind "power":          z -> c * z^d
    kind "inverse_power":  z -> c / z^d
    kind "bicritical":     z -> (z^d + a)/(z^d + b), a != b
    Conjugating the input by ``mu`` yields exactly the named form.
    """

    kind: str
    degree: int
    mu: MobiusTransform
    field: FieldDescriptor
    c: Optional[object] = None
    a: Optional[object] = None
    b: Optional[object] = None

    def form_pair(self):
        """Homogeneous coefficient vectors (numerator, denominator) of the
        named form, index i for Z^i W^(d-i)."""
        zeros = [0] * (self.degree - 1)
        if self.kind == POWER:
            return [0, *zeros, self.c], [1, *zeros, 0]
        if self.kind == INVERSE_POWER:
            return [self.c, *zeros, 0], [0, *zeros, 1]
        return [self.a, *zeros, 1], [self.b, *zeros, 1]


def _as_field_value(loc: Location, s: Optional[int]) -> FieldValue:
    """Critical point location as a bare field value (INF for infinity)."""
    if isinstance(loc, QuadExtElem):
        return loc
    if loc.is_infinity:
        return INF
    x = loc.to_fraction()
    return QuadExtElem(x, 0, s) if s is not None else x


def _lift(x, s: Optional[int]):
    if s is None or isinstance(x, (QuadExtElem, Infinity)):
        return x
    return QuadExtElem(Fraction(x), 0, s)


def _orbit_step(map_: RationalMap, s: Optional[int]):
    """The map on critical locations: on P1Points over Q, and on values of
    Q(sqrt s), where an image of INF is lifted back into the field."""
    if s is None:
        return map_
    return lambda x: _lift(map_(x), s)


def _mu_to_zero_inf(g1: FieldValue, g2: FieldValue, s: Optional[int]) -> MobiusTransform:
    """A Moebius transform with g1 -> 0 and g2 -> infinity."""
    one = _lift(Fraction(1), s) if s is not None else Fraction(1)
    zero = one - one
    if isinstance(g1, Infinity):
        return MobiusTransform.make(zero, one, one, -g2)
    if isinstance(g2, Infinity):
        return MobiusTransform.make(one, -g1, zero, one)
    return MobiusTransform.make(one, -g1, one, -g2)


def _after_mu(mu: MobiusTransform, pc, qc, z, w) -> tuple:
    """M.Phi(z, w): the homogeneous pair of mu . phi at (z, w), for the
    map's coefficient vectors pc, qc and M = (a, b; c, e)."""
    p, q = _substitute(pc, qc, z, w)
    return mu.a * p + mu.b * q, mu.c * p + mu.e * q


def to_normal_form(map_: RationalMap, data: CriticalData | None = None) -> NormalForm:
    """Conjugate a bicritical map to c z^d, c/z^d, or (z^d + a)/(z^d + b).

    The conjugator is returned; its entries (and a, b) lie in the critical
    field.  ``data`` is the map's critical_points, computed here when not
    given.
    """
    d = map_.d
    if data is None:
        data = critical_points(map_)
    s = data.field.s
    l1, l2 = (_as_field_value(pt.location, s) for pt in data.points)
    mu = _mu_to_zero_inf(l1, l2, s)
    # mu . phi . mu^-1 = M.Phi(eZ - bW, -cZ + aW) = (c1 Z^d + a W^d,
    # c2 Z^d + b W^d): its values at (1, 0) and (0, 1) give all four.  It
    # sends 0 to (a : b) and infinity to (c1 : c2), the images of the
    # critical points l1 and l2.
    c1, c2 = _after_mu(mu, map_.pc, map_.qc, mu.e, -mu.c)
    a, b = _after_mu(mu, map_.pc, map_.qc, -mu.b, mu.a)

    if a == 0 and c2 == 0:  # both critical points fixed
        c = c1 / b
        return NormalForm(POWER, d, mu, data.field, c=_rationalize(c))
    if b == 0 and c1 == 0:  # the critical points swapped
        c = a / c2
        return NormalForm(INVERSE_POWER, d, mu, data.field, c=_rationalize(c))

    if c1 == 0 or c2 == 0:
        # image of infinity is 0 or infinity; invert so it is neither
        mu = MobiusTransform.make(0, 1, 1, 0).compose(mu)
        c1, a, c2, b = b, c2, a, c1
    c3 = c1 / c2
    a1 = (a / c2) / c3 ** (d + 1)
    b1 = (b / c2) / c3 ** d
    scale = MobiusTransform.make(Fraction(1), 0, 0, c3)  # z -> z / c3
    if s is not None:
        scale = MobiusTransform.make(QuadExtElem(1, 0, s), 0, 0, c3)
    mu = scale.compose(mu)
    if a1 == b1:
        raise AssertionError("normal form degenerated to a = b")  # unreachable
    return NormalForm(
        BICRITICAL, d, mu, data.field, a=_rationalize(a1), b=_rationalize(b1)
    )


def _rationalize(x):
    """Strip the quadratic wrapper when the irrational part vanishes."""
    if isinstance(x, QuadExtElem) and x.is_rational:
        return x.as_fraction()
    return x


def verify_normal_form(map_: RationalMap, nf: NormalForm) -> bool:
    """Whether mu . phi = N . mu for the named form N.

    Both sides are pairs of degree-d forms, so L0*R1 - L1*R0 is a binary form
    of degree 2d; it is zero when it vanishes at the 2d + 1 points (t, 1),
    t = 0..2d.  With mu invertible, the two pairs are then proportional.
    """
    mu = nf.mu
    if mu.det() == 0:
        return False
    nc, dc = nf.form_pair()
    for t in range(2 * nf.degree + 1):
        l0, l1 = _after_mu(mu, map_.pc, map_.qc, t, 1)
        r0, r1 = _substitute(nc, dc, mu.a * t + mu.b, mu.c * t + mu.e)
        if l0 * r1 != l1 * r0:
            return False
    return True


# ---------------------------------------------------------------------------
# Critical orbit relations
# ---------------------------------------------------------------------------


class OrbitRelation(Record):
    """First critical orbit relation under the documented search order.

    Search order: trailing relations phi^n(g_i) = phi^m(g_j) with n > m >= 0
    and i != j, scanned by (n+m) ascending then n ascending then i; next
    collisions phi^n(g_1) = phi^n(g_2) for n >= 2 ascending; next single-orbit
    pre-periodicity; otherwise none_found.
    """

    kind: str  # trailing | collision | single_orbit_preperiodic | none_found
    search_bound: int
    n: Optional[int] = None
    m: Optional[int] = None
    lead: Optional[int] = None        # trailing: phi^n(gamma_lead) = phi^m(other)
    preperiod: Optional[int] = None
    period: Optional[int] = None
    value: Optional[object] = None    # collision: the common (rational) value
    height_capped: bool = False
    galois_consistent: Optional[bool] = None


def _forward_orbit(step, start, bound: int, height_cap_bits: int) -> list:
    """start and up to ``bound`` images under ``step``, cut before the first
    image higher than the cap."""
    out = [start]
    x = start
    for _ in range(bound):
        x = step(x)
        if x.height_bits() > height_cap_bits:
            break
        out.append(x)
    return out


def _galois_swap(x):
    if isinstance(x, QuadExtElem):
        return x.conjugate()
    return x


def _first_index(orbit: list) -> dict:
    """Each value of the orbit mapped to the first index where it occurs."""
    first: dict = {}
    for i, x in enumerate(orbit):
        first.setdefault(x, i)
    return first


def critical_orbit_relation(
    map_: RationalMap,
    bound: int = 12,
    height_cap_bits: int = DEFAULT_HEIGHT_CAP_BITS,
    data: CriticalData | None = None,
) -> OrbitRelation:
    """Classify the first relation between the two critical orbits.

    Exact forward orbits to the given depth (heights capped): of P1Points
    over Q, of field values over Q(sqrt s), where the Galois-swapped relation
    is checked as well.  ``data`` is the map's critical_points, computed here
    when not given.
    """
    if data is None:
        data = critical_points(map_)
    step = _orbit_step(map_, data.field.s)
    o1, o2 = (_forward_orbit(step, pt.location, bound, height_cap_bits)
              for pt in data.points)
    n1, n2 = len(o1) - 1, len(o2) - 1
    capped = n1 < bound or n2 < bound
    quad = data.field.kind == "quadratic"

    # trailing: phi^n(g_i) = phi^m(g_j), n > m >= 0, i != j.  The search
    # order reports the least (n + m, n, lead), so for each n and lead only
    # the first index m of the value in the other orbit can be reported.
    first1, first2 = _first_index(o1), _first_index(o2)
    candidates = []
    for lead, orb, first in ((1, o1, first2), (2, o2, first1)):
        for n, x in enumerate(orb):
            m = first.get(x, n)
            if m < n:
                candidates.append((n + m, n, lead))
    if candidates:
        total, n, lead = min(candidates)
        m = total - n
        orb, other = (o1, o2) if lead == 1 else (o2, o1)
        rel = OrbitRelation("trailing", bound, n=n, m=m, lead=lead, height_capped=capped)
        if quad:
            rel.galois_consistent = (
                n < len(other) and m < len(orb) and other[n] == orb[m]
            )
        return rel

    # collision: phi^n(g_1) = phi^n(g_2), n >= 2
    for n in range(2, min(n1, n2) + 1):
        if o1[n] == o2[n]:
            rel = OrbitRelation("collision", bound, n=n, value=o1[n],
                                height_capped=capped)
            if quad:
                rel.galois_consistent = _galois_swap(o1[n]) == o2[n]
            return rel

    # single-orbit pre-periodicity: the first revisit of an earlier point
    for which, orb, first in ((1, o1, first1), (2, o2, first2)):
        revisit = next((i for i, x in enumerate(orb) if first[x] < i), None)
        if revisit is not None:
            t = first[orb[revisit]]
            per = revisit - t
            rel = OrbitRelation("single_orbit_preperiodic", bound, lead=which,
                                preperiod=t, period=per, height_capped=capped)
            if quad:
                other = o2 if which == 1 else o1
                rel.galois_consistent = (
                    t + per <= len(other) - 1
                    and other[t + per] == other[t]
                )
            return rel

    return OrbitRelation("none_found", bound, height_capped=capped)
