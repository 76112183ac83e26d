"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Coefficients are stored low to high: ``coeffs[i]`` is the coefficient of
``z**i``.  The zero polynomial is the empty tuple; otherwise the leading
coefficient is nonzero.  Degrees in this package stay modest (at most a few
thousand) while coefficients grow to thousands of bits, so a dense
representation with Python integers is the right trade-off.

Resultants use the subresultant polynomial remainder sequence, which stays in
integer arithmetic throughout and avoids the coefficient blow-up of the
naive Euclidean scheme.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import ZeroPolynomialError

Scalar = Union[int, Fraction]


class IntPoly:
    """Immutable dense polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, k: int) -> int:
        """Coefficient of z**k (0 beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly(())
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        if len(a) > len(b):
            a, b = b, a
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    def __rmul__(self, other: int) -> "IntPoly":
        return self.__mul__(other)

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no squaring past the top bit: no product outgrows the result
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate by Horner's rule; exact for int, Fraction and QuadExtElem
        arguments (a nonzero polynomial maps a QuadExtElem to a QuadExtElem)."""
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scalar_exact_div(self, c: int) -> "IntPoly":
        """Divide every coefficient by c, which must divide exactly."""
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        out = []
        for x in self.coeffs:
            q, r = divmod(x, c)
            if r:
                raise ValueError("inexact scalar division")
            out.append(q)
        return IntPoly(out)

    def reverse(self, n: int | None = None) -> "IntPoly":
        """z**n * f(1/z) for n >= degree (defaults to the degree)."""
        if n is None:
            n = max(self.degree, 0)
        if n < self.degree:
            raise ValueError("reversal order below degree")
        padded = list(self.coeffs) + [0] * (n + 1 - len(self.coeffs))
        return IntPoly(tuple(reversed(padded)))

    def __repr__(self) -> str:
        return f"IntPoly({format_poly(self)})"


def format_poly(f: IntPoly, var: str = "z") -> str:
    """Render a polynomial like '-97*z^4 - 196*z^2 + 9604'."""
    if f.is_zero:
        return "0"
    parts = []
    for i in reversed(range(len(f.coeffs))):
        c = f.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            term = f"{mag}"
        elif i == 1:
            term = f"{var}" if mag == 1 else f"{mag}*{var}"
        else:
            term = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
        parts.append((sign, term))
    sign0, term0 = parts[0]
    text = ("-" if sign0 == "-" else "") + term0
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def pseudo_divmod(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Pseudo-division: lc(g)**(deg f - deg g + 1) * f = q*g + r, deg r < deg g.

    Pure integer arithmetic; requires deg f >= deg g >= 0.  Long division of
    the scaled f by g: every quotient coefficient is a coefficient of the
    integral q, so each division by lc(g) is exact.
    """
    if g.is_zero:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    df, dg = f.degree, g.degree
    if df < dg:
        raise ValueError("pseudo-division needs deg f >= deg g")
    c = g.lc
    scale = c ** (df - dg + 1)
    rem = [x * scale for x in f.coeffs]
    quot = [0] * (df - dg + 1)
    for k in reversed(range(df - dg + 1)):
        t = rem[k + dg] // c
        if t:
            quot[k] = t
            for i, gc in enumerate(g.coeffs):
                rem[k + i] -= t * gc
    return IntPoly(quot), IntPoly(rem[:dg])


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g), exact, via the subresultant remainder sequence.

    Raises ZeroPolynomialError on zero input.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("resultant of zero polynomial")
    m, n = f.degree, g.degree
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return f.lc ** n
    if n == 0:
        return g.lc ** m
    sign = 1
    a, b = f, g
    if a.degree < b.degree:
        a, b = b, a
        if (m & 1) and (n & 1):
            sign = -sign
    gg, hh = 1, 1
    while True:
        da, db = a.degree, b.degree
        delta = da - db
        if (da & 1) and (db & 1):
            sign = -sign
        r = pseudo_divmod(a, b)[1]
        if r.is_zero:
            return 0
        a = b
        b = r.scalar_exact_div(gg * hh ** delta)
        gg = a.lc
        if delta:
            num = gg ** delta
            den = hh ** (delta - 1)
            hh = num // den
        if b.degree <= 0:
            break
    # b is a nonzero constant, a has degree >= 1
    da = a.degree
    return sign * (b.lc ** da // hh ** (da - 1))
