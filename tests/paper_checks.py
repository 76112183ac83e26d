"""Oracles for the paper's claims that no arbordyn command checks.

Each function recomputes one claim from the library's building blocks and
returns plain values, or asserts.  They take valid input only: the tests
call them within the hypotheses of the claim they check.
"""

import math
from fractions import Fraction

from arbordyn.critical import _root_poly, critical_points, wronskian
from arbordyn.divisibility import f_sequence, main_family, theta
from arbordyn.factorint import factor_integer, mobius, valuation
from arbordyn.galois import integer_witness
from arbordyn.intpoly import IntPoly, resultant
from arbordyn.ratmap import INF, Infinity, MobiusTransform, P1Point, RationalMap


# -- critical points and normal forms ------------------------------------------


def is_bicritical(phi: RationalMap) -> bool:
    """Whether the map has exactly two critical points (then both have e = d)."""
    return _root_poly(wronskian(phi), phi.d) is not None


def quadratic_conjugate_form(phi: RationalMap) -> tuple[RationalMap, MobiusTransform]:
    """(psi, mu) with psi = mu . phi . mu^-1 = (z^2 + az + r)/(z^2 + bz + r)
    over Q, for a quadratic map with critical points x +- y sqrt(s) off Q;
    the critical points of psi are +-sqrt(r)."""
    data = critical_points(phi)
    s, gamma = data.field.s, data.points[0].location
    centre = MobiusTransform.make(1, -gamma.x, 0, abs(gamma.y))  # z -> (z - x)/|y|
    base = psi = phi.conjugate(centre)
    mu = centre
    aux = (MobiusTransform.make(c, -s, 1, -c) for c in range(16))
    while isinstance(psi(INF), Infinity) or psi(INF) == 0:
        step = next(aux)  # one of the first seven moves infinity off 0 and itself
        psi, mu = base.conjugate(step), step.compose(centre)
    c = 1 / psi(INF)
    scale = MobiusTransform.make(c, 0, 0, 1)  # z -> c z
    psi, mu = psi.conjugate(scale), scale.compose(mu)
    for f in (psi.p, psi.q):
        assert f.degree == 2 and Fraction(f.coeff(0), f.lc) == c * c * s
    return psi, mu


def normal_forms_conjugate(d: int, a, b, a1, b1) -> bool:
    """Whether (z^d+a)/(z^d+b) and (z^d+a1)/(z^d+b1), a != b, are conjugate:
    the same pair, or the inversion partner (a^d / b^(d+1), a^(d-1) / b^d)."""
    a, b = Fraction(a), Fraction(b)
    return (a1, b1) == (a, b) or b != 0 and (a1, b1) == (a ** d / b ** (d + 1),
                                                          a ** (d - 1) / b ** d)


# -- the family (z^2 + a)/z^2 ---------------------------------------------------


def verify_origin_split(a: int, n: int) -> bool:
    """p_k(0) = a^(2^(k-1)) f_k and f_k = 1 (mod |a|) for k <= n, with p_k(0)
    from the iterate ladder and f_k from the f recursion."""
    pairs = zip(main_family(a).origin_values(n), f_sequence(a, n))
    return all(u == a ** 2 ** k * f and f % abs(a) == 1 % abs(a)
               for k, ((u, _), f) in enumerate(pairs))


def beta(phi: RationalMap, alpha, n: int) -> Fraction:
    """beta_{alpha,n}: the Moebius product of the iterate values p_d(alpha) over d | n."""
    values = phi.ladder_values(Fraction(alpha), n)
    return math.prod((Fraction(values[d - 1][0]) ** mobius(n // d)
                      for d in range(1, n + 1) if n % d == 0), start=Fraction(1))


def sign_check(a: int, n: int) -> bool:
    """For a <= -3 and k <= n: p_k(0) has the sign (-1)^k, phi^k(0) > 0 for
    even k, phi^k(0) <= 1 + a for odd k >= 3, and beta_{0,k} > 0 for k >= 3."""
    phi = main_family(a)
    for k, (u, v) in enumerate(phi.origin_values(n), start=1):
        if u == 0 or (u > 0) != (k % 2 == 0):
            return False
        if k >= 2 and v != 0 and not (Fraction(u, v) > 0 if k % 2 == 0
                                      else Fraction(u, v) <= 1 + a):
            return False
    return all(beta(phi, 0, k) > 0 for k in range(3, n + 1))


def primitive_part_valuations(a: int, n: int) -> list[tuple[int, int]]:
    """[(p, v_p(theta_n))] over the primes of theta_n, fully factored, each
    asserted primitive: v_p(theta_n) = v_p(f_n) and p divides no earlier f_i."""
    fs = f_sequence(a, n)
    th = theta(fs)[n - 1]
    fac = factor_integer(th)
    assert fac.cofactor_status != "composite_unfactored"
    pairs = [(p, valuation(th, p)) for p in fac.prime_list()]
    for p, v in pairs:
        assert v == valuation(fs[n - 1], p) and all(f % p for f in fs[:n - 1])
    return pairs


def irreducibility_cascade(a: int, depth: int) -> list[dict]:
    """The irreducibility records of the first ``depth`` iterate numerators,
    in the form of a certificate's, by the general cascade for any a != 0.

    Level 1 is the base quadratic: irreducible over Q iff -a is not a perfect
    square.  Level n >= 2 is certified when level n-1 is and f_(n+1), the
    value of the previous numerator at 1, is not a perfect square: it is
    3 mod 4 when a = 2 (mod 4), or negative, or strictly between squares.  A
    level that cannot be certified is unknown, never reducible.
    """
    fs = f_sequence(a, depth + 1)
    base, _ = integer_witness(-a)
    levels = [{"n": 1, "status": "reducible" if base["is_square"] else "certified",
               "route": "base_nonsquare", "witness": base}]
    for n in range(2, depth + 1):
        value = fs[n]  # f_(n+1) = p_(n-1)(1)
        wit, square = integer_witness(value)
        if levels[-1]["status"] != "certified":
            status, route = "unknown", "blocked"
        elif a % 4 == 2 and value % 4 == 3:
            status, route = "certified", "congruence_3_mod_4"
        elif value < 0:
            status, route = "certified", "negative"
        elif not square:
            status, route = "certified", "isqrt_bracket"
        else:
            status, route = "unknown", "square_value"
        levels.append({"n": n, "status": status, "route": route, "witness": wit})
    return levels


def discriminant(f: IntPoly) -> Fraction:
    """Disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f) for f of degree n >= 1."""
    n = f.degree
    return Fraction((-1) ** (n * (n - 1) // 2) * resultant(f, f.derivative()), f.lc)


def discriminant_recursion(a: int, n: int) -> int:
    """|Disc(p_n)| by the closed recursion: |4a| at n = 1, and each step k
    multiplies the squared previous value by
    2^(2^k) * |a|^(2^(2k-1) - 2^(k-1)) * |f_(k+1) f_k|.  It holds when the
    orbit of infinity avoids 0 through step n, which is asserted."""
    phi, point = main_family(a), P1Point.infinity()
    for _ in range(n):
        point = phi(point)
        assert point != P1Point.of(0)
    fs = f_sequence(a, n + 1)
    value = abs(4 * a)
    for k in range(2, n + 1):
        value = (2 ** 2 ** k * abs(a) ** (2 ** (2 * k - 1) - 2 ** (k - 1))
                 * value ** 2 * abs(fs[k] * fs[k - 1]))
    return value


# -- p-adic conditions ------------------------------------------------------------


def eventual_stability_check(a, b, alpha, p: int, d: int) -> tuple[str, bool | None]:
    """(case, alpha_periodic) for (z^d + a)/(z^d + b), a != b, at the prime p.

    case2: |a|_p < 1, |b|_p = 1, |alpha|_p < 1 (the sharper conclusion, tested
    first); case1: d a power of p, |a|_p <= 1, |b|_p <= 1, |a - b|_p = 1;
    else inconclusive.  alpha_periodic says whether a 32-step exact orbit
    probe saw alpha periodic, which would void the conclusion; None for d < 2.
    """
    a, b, alpha = Fraction(a), Fraction(b), Fraction(alpha)

    def v(x: Fraction):
        return math.inf if x == 0 else valuation(x.numerator, p) - valuation(x.denominator, p)

    if v(a) > 0 and v(b) == 0 and v(alpha) > 0:
        case = "case2"
    elif d > 1 and p ** valuation(d, p) == d and v(a) >= 0 and v(b) >= 0 and v(a - b) == 0:
        case = "case1"
    else:
        case = "inconclusive"
    if d < 2:
        return case, None
    phi = RationalMap.from_fractions([a] + [0] * (d - 1) + [1], [b] + [0] * (d - 1) + [1])
    rec = phi.orbit(P1Point.of(alpha.numerator, alpha.denominator), max_steps=32)
    return case, rec.status == "preperiodic" and rec.preperiod == 0


def good_reduction_origin_valuations(phi: RationalMap, p: int, n: int) -> list[tuple]:
    """[(v_p(p_k(0)), v_p(q_k(0)))] for k <= n, math.inf for a zero value; at
    a prime of good reduction each pair has minimum 0 (normalized iterates),
    which is asserted."""
    out = [tuple(math.inf if x == 0 else valuation(x, p) for x in pair)
           for pair in phi.origin_values(n)]
    assert all(min(pair) == 0 for pair in out)
    return out
