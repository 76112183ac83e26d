"""Oracles for the paper's claims that no arbordyn command checks.

Each function recomputes one claim from the library's building blocks and
returns plain values, or asserts.  They take valid input only: the tests
call them within the hypotheses of the claim they check.
"""

import math
from fractions import Fraction

from arbordyn.critical import _root_poly, critical_points, wronskian
from arbordyn.divisibility import f_sequence, main_family, theta
from arbordyn.factorint import factor_counts, factor_integer, valuation
from arbordyn.galois import family_parameter, integer_witness
from arbordyn.intpoly import IntPoly, resultant
from arbordyn.ratmap import INF, Infinity, MobiusTransform, P1Point, RationalMap


def mobius(n: int) -> int:
    """The Moebius function of n >= 1: 0 when a square > 1 divides n, else
    (-1)^(number of primes of n)."""
    counts = factor_counts(n)
    return 0 if any(e > 1 for e in counts.values()) else (-1) ** len(counts)


def radical(n: int) -> int:
    """The product of the distinct primes of n >= 1."""
    return math.prod(factor_counts(n))


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


# -- the congruence route for theta_n (Odoni-Stoll) ----------------------------


def squarefree_theta_evidence(m: int, n: int, p: int, case: str) -> tuple[bool, int, bool]:
    """(pattern_ok, final_class, certified) for theta_n of a = -2(2m^2-1)^2 at
    square-free n >= 2, from the orbit of alpha = (2m^2-1)/m modulo the odd
    prime p of ``case``:

      odd:      n odd,  p = 5 or 7 (mod 8) divides 2m-1 or 2m+1;
      even_pm1: n even, p = 3 (mod 4) divides m-1 or m+1;
      even_m:   n even, p = 3 (mod 4) divides m.

    pattern_ok: the orbit mod p stabilizes as the case says, after one or
    two steps.  Then the Moebius product of its values over d | n, times
    +-(2m^2-1), collapses to final_class = -1/2 (odd) or -1 (even) mod p,
    which is asserted.  certified: |theta_n| is not a square, because the
    pattern holds, final_class is a non-residue mod p, and n >= 3 (below
    that the bridge from orbit products to theta fails).
    """
    a = family_parameter(m)
    z = None if m % p == 0 else (2 * m * m - 1) * pow(m, -1, p) % p  # None: infinity
    seq = [z]
    for _ in range(n):
        z = 1 if z is None else None if z == 0 else (z * z + a) * pow(z * z, -1, p) % p
        seq.append(z)
    half = pow(2, -1, p)
    if case == "odd":
        pattern_ok = all(seq[i] == half for i in range(1, n + 1, 2))
    elif case == "even_pm1":
        pattern_ok = set(seq[1:]) == {p - 1}
    else:  # even_m: alpha is infinity mod p, and phi(infinity) = 1
        pattern_ok = seq[1] == 1 and set(seq[2:]) == {p - 1}
    prefactor, expected = (2 * m * m - 1, -half) if case == "odd" else (1 - 2 * m * m, -1)
    final = prefactor * math.prod(pow(seq[d], mobius(n // d), p)
                                  for d in range(1, n + 1) if n % d == 0) % p
    assert not pattern_ok or final == expected % p
    certified = pattern_ok and pow(final, (p - 1) // 2, p) == p - 1 and n >= 3
    return pattern_ok, final, certified


def rad_divisibility_conditions(phi: RationalMap, alpha, n: int, m: int) -> dict[str, bool]:
    """The three congruence conditions that force beta_{alpha,n} off squares,
    with k = n / rad(n), for phi = p/q with p and q even and q a square in
    Z[z], n >= 2, and an orbit of alpha that avoids 0, and infinity from
    step k on:

      unit_at_k:            v_l(phi^k(alpha)) = 0 for every prime l | m;
      negation_congruence:  phi^k(alpha) = -phi^(k+1)(alpha) (mod m);
      minus_one_nonresidue: -1 is not a square mod m.
    """
    k = n // radical(n)
    (u, v), (u1, v1) = phi.ladder_values(Fraction(alpha), k + 1)[k - 1:]
    phik = Fraction(u, v)
    total = phik + Fraction(u1, v1)
    primes = factor_counts(m)
    return {
        "unit_at_k": all(phik.numerator % l and phik.denominator % l for l in primes),
        "negation_congruence": math.gcd(total.denominator, m) == 1 and total.numerator % m == 0,
        # -1 is a square mod m iff 4 does not divide m and every odd prime of m is 1 mod 4
        "minus_one_nonresidue": m % 4 == 0 or any(l % 4 == 3 for l in primes),
    }


def nonsquarefree_theta_evidence(a: int, n: int) -> tuple[int | None, bool, bool]:
    """(modulus, certified, complete) for theta_n at a = 2 (mod 4), a <= -3 and
    n >= 4 not square-free: certified says |theta_n| is not a square, by
    rad_divisibility_conditions at basepoint 0 modulo ``modulus``.

    With k = n / rad(n), the modulus is 4 when k = 2.  Otherwise it is the
    least prime p = 3 (mod 4) of A_k = f_k^3 + f_(k+1) f_(k-1)^2, after
    gcd(A_k, f_k f_(k-1)) = 1 and A_k = 6 (mod 8) are asserted.  Such a p
    exists when |A_k| = 6 (mod 8), as then |A_k|/2 = 3 (mod 4), but not
    always when A_k < 0: at a = -98, A_3 = -903362 and 451681 = 1 (mod 4) has
    no prime 3 (mod 4).  Then modulus is None and nothing is certified.
    complete says A_k was fully factored, so that a None modulus means no
    such prime exists.
    """
    k = n // radical(n)
    if k == 2:
        p, complete = 4, True
    else:
        fs = f_sequence(a, k + 1)
        a_k = fs[k - 1] ** 3 + fs[k] * fs[k - 2] ** 2
        assert math.gcd(a_k, fs[k - 1] * fs[k - 2]) == 1 and a_k % 8 == 6
        fac = factor_integer(a_k)
        p = next((p for p in sorted(fac.prime_list()) if p % 4 == 3), None)
        complete = fac.cofactor_status != "composite_unfactored"
    certified = p is not None and all(rad_divisibility_conditions(main_family(a), 0, n, p).values())
    return p, certified, complete
