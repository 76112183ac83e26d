"""Small polynomial helpers over an exact field.

Coefficients may be Fraction or QuadExtElem (anything with exact +,-,*,/ and
equality against 0).  Lists are low-to-high and trimmed.  These are internal
building blocks for Moebius conjugation and ramification orders; nothing here
needs to be fast.
"""

from __future__ import annotations


def trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def fp_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return trim(out)


def fp_scale(a: list, c) -> list:
    if c == 0:
        return []
    return trim([x * c for x in a])


def fp_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0 * (a[0] * b[0])] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != 0:
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return trim(out)


def root_order(coeffs: list, alpha) -> int:
    """Multiplicity of alpha as a root: largest k with (z - alpha)**k dividing.

    Synthetic division by (z - alpha), repeated while the remainder vanishes.
    """
    cs = list(coeffs)
    order = 0
    while cs:
        # divide cs by (z - alpha); Horner gives quotient and remainder
        quot = []
        acc = 0 * alpha
        for c in reversed(cs):
            acc = acc * alpha + c
            quot.append(acc)
        rem = quot.pop()
        if rem != 0:
            break
        order += 1
        quot.reverse()
        cs = trim(quot)
    return order


def conjugate_pair(p_coeffs: list, q_coeffs: list, degree: int, mu_entries: tuple):
    """Conjugate the map [P, Q] of the given degree by mu = (az+b)/(cz+e).

    Input coefficient lists may be shorter than degree+1 (padded internally);
    entries of mu and the result live in the same exact field.  Returns the
    dehomogenized pair of the conjugated map, trimmed, with no normalization.
    """
    a, b, c, e = mu_entries
    det = a * e - b * c
    if det == 0:
        raise ValueError("mu is not invertible")
    # mu^-1 acts on homogeneous coordinates as (Z, W) -> (eZ - bW, -cZ + aW)
    u = trim([-b + 0 * a, e + 0 * a])  # e*z - b
    v = trim([a + 0 * a, -c + 0 * a])  # -c*z + a
    d = degree
    upow = [[1]]
    vpow = [[1]]
    for _ in range(d):
        upow.append(fp_mul(upow[-1], u))
        vpow.append(fp_mul(vpow[-1], v))
    ps: list = []
    qs: list = []
    for i in range(d + 1):
        basis = fp_mul(upow[i], vpow[d - i])
        if i < len(p_coeffs) and p_coeffs[i] != 0:
            ps = fp_add(ps, fp_scale(basis, p_coeffs[i]))
        if i < len(q_coeffs) and q_coeffs[i] != 0:
            qs = fp_add(qs, fp_scale(basis, q_coeffs[i]))
    new_p = fp_add(fp_scale(ps, a), fp_scale(qs, b))
    new_q = fp_add(fp_scale(ps, c), fp_scale(qs, e))
    return new_p, new_q
