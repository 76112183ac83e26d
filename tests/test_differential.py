"""The harness's independent checker as a differential gate.

Hypothesis draws parameters for the job constructors of perfbench/jobs.py,
each job runs in process through ``cli.main``, and perfbench/checker.py,
which imports nothing from arbordyn and recomputes every fact with its own
recursions, must accept the output.  A wrong number that still exits 0
fails here even where no digest is pinned.

Certify depths reach 21, ten levels into the residue band; the checker
rebuilds f_(depth+1) exactly, which at depth 22 already costs it about 2 s
per parameter, so deeper levels are left to tests/test_no_hang.py and to
the verdict checks of tests/test_galois.py.
"""

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from arbordyn.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_DIGIT_LIMIT = sys.get_int_max_str_digits()
import checker  # noqa: E402  (lifts the int-to-str digit limit for its own parsing)
import jobs  # noqa: E402

sys.set_int_max_str_digits(_DIGIT_LIMIT)

GATE = settings(max_examples=150, derandomize=True, deadline=None, database=None)
RHO = 1000


# A family parameter a = 2 (mod 4) with 6 <= |a| <= 998, or now and then any nonzero a.
FAMILY_A = st.one_of(st.integers(1, 249).map(lambda k: -(4 * k + 2)),
                     st.integers(-40, 40).filter(bool))


@st.composite
def even_maps(draw, bound: int = 9):
    """(z^2 + b)/(z^2 + c) with b != c, c != 0."""
    b = draw(st.integers(-bound, bound).filter(bool))
    c = draw(st.integers(-bound, bound).filter(lambda c: c not in (0, b)))
    return [b, 0, 1], [c, 0, 1]


@st.composite
def bicritical_conjugates(draw):
    """(z^2 + a)/(z^2 + b) conjugated by a Moebius map, as the workloads build them."""
    a = draw(st.integers(-9, 9).filter(bool))
    b = draw(st.integers(-9, 9).filter(lambda b: b != a))
    mu = draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(
        lambda m: m[0] * m[3] - m[1] * m[2] != 0 and m[2] != 0))
    return jobs.conjugate_bicritical(a, b, mu)


@st.composite
def orbit_jobs(draw):
    p, q = draw(st.one_of(even_maps(), FAMILY_A.map(lambda a: ([a, 0, 1], [0, 0, 1]))))
    start = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return jobs.orbit_job(p, q, start, draw(st.integers(1, 8)))


@st.composite
def critical_jobs(draw):
    p, q = draw(bicritical_conjugates())
    return jobs.critical_job(p, q, draw(st.sampled_from(["critical", "normal-form"])))


@st.composite
def sequence_jobs(draw):
    n, factor = draw(st.integers(1, 9)), draw(st.booleans())
    if draw(st.booleans()):
        return jobs.sequence_a_job(draw(FAMILY_A), min(n, 7) if factor else n,
                                   factor, RHO if factor else None)
    p, q = draw(even_maps(5))
    return jobs.sequence_map_job(p, q, min(n, 6) if factor else n, factor, RHO if factor else None)


@st.composite
def certify_jobs(draw):
    depth = draw(st.integers(1, 21))
    if draw(st.booleans()):
        return jobs.certify_a_job(draw(FAMILY_A), depth)
    m = draw(st.integers(-6, 6).filter(lambda m: abs(m) >= 2))
    return jobs.certify_m_job(m, depth)


@st.composite
def rigid_jobs(draw):
    p, q = draw(even_maps(5))
    exclude = jobs._even_map_exclude(p, q) if draw(st.booleans()) else []
    return jobs.rigid_job(p, q, draw(st.integers(1, 7)), exclude, RHO)


def problems(job: dict) -> list[str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(job["argv"])
    assert "Traceback" not in err.getvalue()
    sys.set_int_max_str_digits(0)  # the checker reads its own decimals; the CLI never may
    try:
        return checker.check_job(job, rc, out.getvalue(), err.getvalue())
    finally:
        sys.set_int_max_str_digits(_DIGIT_LIMIT)


@GATE
@given(st.one_of(orbit_jobs(), critical_jobs(), sequence_jobs(), rigid_jobs()))
def test_checker_accepts_every_job(job):
    assert problems(job) == [], job["argv"]


@GATE
@given(certify_jobs())
def test_checker_accepts_every_certificate(job):
    assert problems(job) == [], job["argv"]


def test_checker_rejects_a_flipped_deep_verdict():
    job = jobs.certify_a_job(-98, 14)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(job["argv"])
    text = out.getvalue()
    assert rc == 0 and checker.check_job(job, rc, text, "") == []
    head, verdict, tail = text.rpartition('"verdict": "maximal"')  # level 14, a residue level
    assert checker.check_job(job, rc, head + '"verdict": "unknown"' + tail, "") != []
