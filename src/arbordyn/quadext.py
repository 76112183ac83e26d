"""Exact arithmetic in a real or imaginary quadratic extension Q(sqrt(s)).

Elements are x + y*sqrt(s) with rational x, y and a fixed squarefree
non-square integer s.  All arithmetic is closed and exact; mixing elements
with different s is an error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ._record import fraction_text, plain
from .factorint import FactorBudget, factor_counts

Rat = Union[int, Fraction]


def squarefree_kernel(n: int, budget: FactorBudget | None = None) -> tuple[int, int]:
    """Write n = s * m**2 with s squarefree (sign kept on s); returns (s, m).

    n must be nonzero.  Factors by factor_counts under ``budget``, so an n
    not fully factored within it raises FactoringBudgetError.
    """
    s, m = (1 if n > 0 else -1), 1
    for p, e in factor_counts(n, budget).items():
        if e % 2:
            s *= p
        m *= p ** (e // 2)
    return s, m


class QuadExtElem:
    """x + y*sqrt(s), exact."""

    __slots__ = ("x", "y", "s")

    def __init__(self, x: Rat, y: Rat, s: int):
        object.__setattr__(self, "x", Fraction(x))
        object.__setattr__(self, "y", Fraction(y))
        object.__setattr__(self, "s", s)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExtElem is immutable")

    # -- coercion ----------------------------------------------------------

    def _lift(self, other) -> "QuadExtElem":
        if isinstance(other, QuadExtElem):
            if other.s != self.s:
                raise ValueError(f"mixed radicands {self.s} and {other.s}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExtElem(other, 0, self.s)
        return NotImplemented  # type: ignore[return-value]

    # -- ring and field operations ------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExtElem(self.x + o.x, self.y + o.y, self.s)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExtElem(self.x - o.x, self.y - o.y, self.s)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExtElem(o.x - self.x, o.y - self.y, self.s)

    def __neg__(self):
        return QuadExtElem(-self.x, -self.y, self.s)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExtElem(
            self.x * o.x + self.y * o.y * self.s,
            self.x * o.y + self.y * o.x,
            self.s,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        # multiply by the conjugate of o and divide by its norm
        num = self * o.conjugate()
        return QuadExtElem(num.x / n, num.y / n, self.s)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, e: int) -> "QuadExtElem":
        if e < 0:
            return QuadExtElem(1, 0, self.s) / self ** (-e)
        result = QuadExtElem(1, 0, self.s)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no squaring past the top bit: no product outgrows the result
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadExtElem):
            return self.s == other.s and self.x == other.x and self.y == other.y
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.y == 0:
            return hash(self.x)
        return hash((self.x, self.y, self.s))

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "QuadExtElem":
        """Galois conjugate: y -> -y."""
        return QuadExtElem(self.x, -self.y, self.s)

    def norm(self) -> Fraction:
        """Field norm x**2 - s*y**2 (rational)."""
        return self.x * self.x - self.s * self.y * self.y

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    def as_fraction(self) -> Fraction:
        if self.y != 0:
            raise ValueError(f"{self!r} is not rational")
        return self.x

    def height_bits(self) -> int:
        return max(
            self.x.numerator.bit_length(),
            self.x.denominator.bit_length(),
            self.y.numerator.bit_length(),
            self.y.denominator.bit_length(),
        )

    def __repr__(self) -> str:
        if self.y == 0:
            return fraction_text(self.x)
        if self.x == 0:
            return f"{fraction_text(self.y)}*sqrt({self.s})"
        op = "-" if self.y < 0 else "+"
        return f"{fraction_text(self.x)} {op} {fraction_text(abs(self.y))}*sqrt({self.s})"

    def to_dict(self) -> dict:
        return plain({"x": self.x, "y": self.y, "s": self.s})
