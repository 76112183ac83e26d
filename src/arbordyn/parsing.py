"""Text grammar for polynomials and maps, e.g. "(z^2-98)/z^2".

Coefficients are integers or rationals (7/2), the variable is z, exponents
use ^, and a map is numerator/denominator at the top level.  A '/' splits
the map only when its right side involves z or a parenthesized group, so
rational coefficients keep their plain meaning.  Whitespace never matters.
An exponent above MAX_DEGREE is a parse error: a polynomial's coefficient
list, and every resultant taken of it, grows with its degree.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .ratmap import P1Point, RationalMap

MAX_DEGREE = 1000

class ParseError(ValueError):
    pass


_TERM_RE = re.compile(
    r"""^
    (?P<coef>\d+(/\d+)?)?          # optional coefficient, int or int/int
    (?P<star>\*)?
    (?P<var>z(\^(?P<exp>\d+))?)?   # optional z or z^k
    $""",
    re.VERBOSE,
)


def _strip_outer_parens(text: str) -> str:
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        closes_early = False
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i < len(text) - 1:
                    closes_early = True
                    break
        if closes_early:
            break
        text = text[1:-1].strip()
    return text


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split on top-level + and -, keeping signs."""
    terms = []
    sign = 1
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and current.strip():
            terms.append((sign, current))
            sign = 1 if ch == "+" else -1
            current = ""
        elif depth == 0 and ch in "+-" and not current.strip():
            # leading or stacked sign
            if ch == "-":
                sign = -sign
        else:
            current += ch
    if current.strip():
        terms.append((sign, current))
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    return terms


def parse_poly(text: str) -> list[Fraction]:
    """Parse a polynomial in z to a low-to-high Fraction coefficient list."""
    body = _strip_outer_parens(text.replace(" ", ""))
    if not body:
        raise ParseError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    for sign, term in _split_terms(body):
        term = _strip_outer_parens(term)
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ParseError(f"cannot parse term {term!r}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("var"):
                exp = int(m.group("exp")) if m.group("exp") else 1
            else:
                exp = 0
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in coefficient {m.group('coef')!r}") from None
        except ValueError:
            # only the interpreter's int-string digit limit rejects a matched term
            raise ParseError(f"term of {len(term)} characters exceeds the "
                             f"{sys.get_int_max_str_digits()}-digit limit") from None
        if exp > MAX_DEGREE:
            raise ParseError(f"exponent {exp} exceeds the degree limit {MAX_DEGREE}")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
    degree = max(coeffs)
    return [coeffs.get(i, Fraction(0)) for i in range(degree + 1)]


def _top_level_map_slash(text: str) -> int | None:
    """Index of the '/' separating numerator from denominator, if present.

    A slash counts as the map separator when what follows (at top level)
    involves the variable or a parenthesized group; plain digit/digit slashes
    are rational coefficients.
    """
    depth = 0
    candidates = []
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            rest = text[i + 1 :]
            if "z" in rest or rest.lstrip().startswith("("):
                candidates.append(i)
    if not candidates:
        return None
    if len(candidates) > 1:
        raise ParseError(f"ambiguous map expression {text!r}; parenthesize")
    return candidates[0]


def parse_map(text: str) -> RationalMap:
    """Parse a map spec like "(z^2+1)/(z^2+3)", "z^2", or "5/z^2"."""
    body = text.replace(" ", "")
    if not body:
        raise ParseError("empty map expression")
    slash = _top_level_map_slash(body)
    if slash is None:
        num = parse_poly(body)
        den = [Fraction(1)]
    else:
        num = parse_poly(body[:slash])
        den = parse_poly(body[slash + 1 :])
    try:
        return RationalMap.from_fractions(num, den)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_point(text: str) -> P1Point:
    """Parse "inf", an integer, or a fraction num/den as a projective point."""
    body = text.strip().lower()
    if body in ("inf", "infinity", "oo"):
        return P1Point.infinity()
    try:
        frac = Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse point {text!r}") from exc
    return P1Point.of(frac.numerator, frac.denominator)
