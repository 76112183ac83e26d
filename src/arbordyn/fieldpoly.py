"""Small polynomial helpers over an exact field.

Coefficients may be Fraction or QuadExtElem (anything with exact +,-,*,/ and
equality against 0).  Lists are low-to-high and trimmed.  ``root_order``
gives the ramification index at a critical point; Moebius conjugation and
every other evaluation go through ``ratmap._substitute``.
"""

from __future__ import annotations


def trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


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
