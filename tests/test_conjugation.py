"""Moebius conjugation and normal forms against a dense reference.

The reference expands mu . phi . mu^-1 in full: every power of both linear
forms of mu^-1, a basis product for every exponent, then the matrix of mu,
over Fraction or QuadExtElem coefficients.  ``RationalMap.conjugate`` and
``to_normal_form``, which evaluate the map's homogeneous pair instead, must
agree with it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arbordyn.critical import (
    BICRITICAL,
    INVERSE_POWER,
    POWER,
    NormalForm,
    _orbit_step,
    critical_points,
    to_normal_form,
    verify_normal_form,
)
from arbordyn.parsing import parse_map
from arbordyn.quadext import QuadExtElem
from arbordyn.ratmap import MobiusTransform, RationalMap, _substitute


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def _scale(a, c):
    return [] if c == 0 else _trim([x * c for x in a])


def _mul(a, b):
    if not a or not b:
        return []
    out = [0 * (a[0] * b[0])] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _trim(out)


def dense_conjugate(pc, qc, d, mu):
    """Coefficient lists (low to high, trimmed) of mu . [P, Q] . mu^-1."""
    a, b, c, e = mu.entries()
    zero = 0 * a
    u = _trim([-b + zero, e + zero])  # mu^-1 on (Z, W): (eZ - bW, -cZ + aW)
    v = _trim([a + zero, -c + zero])
    upow, vpow = [[1]], [[1]]
    for _ in range(d):
        upow.append(_mul(upow[-1], u))
        vpow.append(_mul(vpow[-1], v))
    ps, qs = [], []
    for i in range(d + 1):
        basis = _mul(upow[i], vpow[d - i])
        if i < len(pc):
            ps = _add(ps, _scale(basis, pc[i]))
        if i < len(qc):
            qs = _add(qs, _scale(basis, qc[i]))
    return _add(_scale(ps, a), _scale(qs, b)), _add(_scale(ps, c), _scale(qs, e))


def map_of_pair(ps, qs):
    """The canonical RationalMap of a field pair that is rational up to a scalar."""
    pivot = ps[-1] if ps else qs[-1]
    rows = []
    for cs in (ps, qs):
        row = []
        for c in cs:
            ratio = c / pivot
            if isinstance(ratio, QuadExtElem):
                ratio = ratio.as_fraction()
            row.append(Fraction(ratio))
        rows.append(row)
    return RationalMap.from_fractions(*rows)


def coefficient(cs, i):
    return cs[i] if i < len(cs) else 0


small = st.integers(-6, 6)
entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def dense_maps(draw):
    d = draw(st.integers(2, 6))
    p = draw(st.lists(small, min_size=d + 1, max_size=d + 1))
    q = draw(st.lists(small, min_size=1, max_size=d + 1))
    try:
        return RationalMap.from_coeffs(p, q)
    except ValueError:
        assume(False)


@st.composite
def mobius(draw):
    entries = draw(st.lists(entry, min_size=4, max_size=4))
    assume(entries[0] * entries[3] != entries[1] * entries[2])
    return MobiusTransform.make(*entries)


@settings(max_examples=150, deadline=None)
@given(dense_maps(), mobius())
def test_conjugate_equals_dense_reference(phi, mu):
    pc, qc = phi.pc, phi.qc
    assert phi.conjugate(mu) == map_of_pair(*dense_conjugate(pc, qc, phi.d, mu))


def kind_by_stepping(phi):
    """The normal form's kind read by stepping both critical points once:
    both fixed is a power map, swapped an inverse power map."""
    data = critical_points(phi)
    step = _orbit_step(phi, data.field.s)
    l1, l2 = (pt.location for pt in data.points)
    v1, v2 = step(l1), step(l2)
    if v1 == l1 and v2 == l2:
        return POWER
    if v1 == l2 and v2 == l1:
        return INVERSE_POWER
    return BICRITICAL


def check_two_term(phi, field_kind=None):
    """The reference conjugate by the normal form's mu has only the Z^d and
    W^d terms, and they are M.Phi at (e, -c) and at (-b, a), the two
    evaluations the pipeline reads, in the ratios of the named form; the
    form's kind is the one read by stepping the critical points."""
    nf = to_normal_form(phi)
    if field_kind is not None:
        assert nf.field.kind == field_kind
    assert nf.kind == kind_by_stepping(phi)
    d, mu = nf.degree, nf.mu
    pc, qc = phi.pc, phi.qc
    ps, qs = dense_conjugate(pc, qc, d, mu)
    assert all(coefficient(cs, i) == 0 for cs in (ps, qs) for i in range(1, d))

    def after_mu(z, w):
        p, q = _substitute(pc, qc, z, w)
        return mu.a * p + mu.b * q, mu.c * p + mu.e * q

    c1, c2 = after_mu(mu.e, -mu.c)
    a, b = after_mu(-mu.b, mu.a)
    assert (coefficient(ps, d), coefficient(qs, d)) == (c1, c2)
    assert (coefficient(ps, 0), coefficient(qs, 0)) == (a, b)
    nc, dc = nf.form_pair()
    scale = c2 if c2 != 0 else b
    assert [c1, a, c2, b] == [scale * x for x in (nc[d], nc[0], dc[d], dc[0])]
    assert verify_normal_form(phi, nf)
    return nf


@st.composite
def two_term_conjugates(draw):
    """A rational conjugate of (z^d + a)/(z^d + b), c z^d or c/z^d."""
    d = draw(st.integers(2, 7))
    a, b = draw(st.lists(entry.filter(bool), min_size=2, max_size=2, unique=True))
    zeros = [0] * (d - 1)
    base = draw(st.sampled_from([
        ([a, *zeros, 1], [b, *zeros, 1]),
        ([0, *zeros, a], [1]),
        ([a], [0, *zeros, 1]),
    ]))
    return RationalMap.from_fractions(*base).conjugate(draw(mobius()))


@settings(max_examples=100, deadline=None)
@given(two_term_conjugates())
def test_rational_critical_field_reads_two_evaluations(phi):
    check_two_term(phi, "rational")


@settings(max_examples=150, deadline=None)
@given(st.lists(small, min_size=3, max_size=3), st.lists(small, min_size=3, max_size=3))
def test_degree_two_reads_two_evaluations(p, q):
    # every degree-2 map is bicritical; most of these have a quadratic field
    try:
        phi = RationalMap.from_coeffs(p, q)
    except ValueError:
        assume(False)
    check_two_term(phi)


def quadratic_field_conjugate(d, lam, s, sign):
    """mu^-1 . N . mu for mu = lam (z - sqrt s)/(z + sqrt s), a map over Q whose
    critical points are +-sqrt s.  N commutes with z -> lam^2/z, which makes
    the conjugate rational: N = (z^d + sign lam^(d+1))/(z^d + sign lam^(d-1)),
    or N = sign z^d when lam = 1."""
    one, root = QuadExtElem(1, 0, s), QuadExtElem(0, 1, s)
    mu = MobiusTransform.make(lam * one, -lam * root, one, root)
    zeros = [0] * (d - 1)
    if lam == 1:
        num, den = [0 * one, *zeros, sign * one], [one, *zeros, 0 * one]
    else:
        num = [sign * lam ** (d + 1) * one, *zeros, one]
        den = [sign * lam ** (d - 1) * one, *zeros, one]
    return map_of_pair(*dense_conjugate(num, den, d, mu.inverse()))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(-5, 3)]),
       st.sampled_from([-7, -3, -2, -1, 2, 3, 5, 6]), st.sampled_from([1, -1]))
def test_quadratic_critical_field_reads_two_evaluations(d, lam, s, sign):
    phi = quadratic_field_conjugate(d, lam, s, sign)
    nf = check_two_term(phi, "quadratic")
    assert nf.field.s == s


# each kind over Q and over a quadratic critical field
KIND_MAPS = [
    ("(z^2+2z+3)/(-2)", POWER, "rational"),
    ("(z^2+3)/(2z+3)", POWER, "quadratic"),
    ("(z^2+2z+3)/(-2z-1)", INVERSE_POWER, "rational"),
    ("(z^2+2z+3)/(3z^2-2z-1)", INVERSE_POWER, "quadratic"),
    ("(3z^2+3z+3)/(2z^2+3z+3)", BICRITICAL, "rational"),
    ("(3z^2+3z+3)/(z^2+2z+3)", BICRITICAL, "quadratic"),
    # one critical point maps to the other, which does not map back
    ("(z^2+1)/z^2", BICRITICAL, "rational"),
    ("1/(z^2+1)", BICRITICAL, "rational"),
]


@pytest.mark.parametrize("text, kind, field_kind", KIND_MAPS)
def test_kind_equals_stepping_the_critical_points(text, kind, field_kind):
    nf = check_two_term(parse_map(text), field_kind)
    assert nf.kind == kind


VERIFY_MAPS = [
    "(z^2-98)/z^2", "(z^2-3)/(z^2+3)", "(z^2-z-2)/(-2z^2+2z-2)", "(z^2+2)/(z^2+2z+2)",
    "(z^2+1)/(-2z-2)", "(z^2-3)/(2z-3)", "(z^2+2)/(2z)", "(z^2-4z+2)/(z^2-2z+2)",
    "(z^3+6z)/(3z^2+2)", "(z^2-2z+3)/(z^2+2z-1)", "(z^3+5)/(z^3+3)", "(z^7+2)/(z^7-1)",
    "z^3", "3/z^4", "(2z^3+1)/(z^3)",
]


def perturbations(nf):
    """Copies of nf with one of a, b, c or one entry of mu moved."""
    fields = dict(zip(nf._fields, nf._values()))
    for name in ("a", "b", "c"):
        if fields[name] is not None:
            yield NormalForm(**{**fields, name: fields[name] + 1})
    entries = list(nf.mu.entries())
    for i in range(4):
        moved = list(entries)
        moved[i] = moved[i] + 1
        yield NormalForm(**{**fields, "mu": MobiusTransform(*moved)})


@pytest.mark.parametrize("text", VERIFY_MAPS)
def test_verifier_rejects_every_perturbation(text):
    phi = parse_map(text)
    nf = to_normal_form(phi)
    assert verify_normal_form(phi, nf)
    moved = list(perturbations(nf))
    assert len(moved) >= 5
    for bad in moved:
        assert not verify_normal_form(phi, bad), bad
