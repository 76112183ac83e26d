"""Independent checks of arbordyn CLI output.

Nothing here imports arbordyn: every fact is recomputed from the job's own
description (map coefficients, parameters) with Fraction arithmetic, the
origin-value and f recursions, trial division and Miller-Rabin written here.
The checks read facts, not layout: a key that is absent is not checked, an
integer may be carried as a JSON number, a decimal string or a 0x-hex
string, and anything else (a digest, say) is left to the facts that are
present.  ``check_job`` returns a list of problems; an empty list means the
output is accepted.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction

# Huge integers in payloads are parsed here, not in the program under test.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

DOCUMENTED_EXIT_CODES = (0, 1, 2, 3, 4, 5)
TRACEBACK_MARK = "Traceback (most recent call last)"

# Digest fields are recomputed only below this many bits (str() is quadratic).
DIGEST_CHECK_BITS = 60000
# composite/probable-prime cofactor labels are re-tested only below this size.
COFACTOR_CHECK_BITS = 8192


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Number theory
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC = 3317044064679887385961981  # bases up to 41 are a proof below this


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases: a proof below 3.3e24, strong evidence above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_certified_prime(n: int) -> bool:
    if n < _MR_DETERMINISTIC:
        return is_prime(n)
    try:
        import sympy
    except ImportError:
        return is_prime(n)
    return bool(sympy.isprime(n))


def valuation(n: int, p: int) -> int:
    n = abs(n)
    if n == 0:
        return 10 ** 9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def small_prime_factors(n: int, bound: int = 10 ** 6) -> tuple[list[int], int]:
    """Prime factors below bound, and the unfactored rest."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n and p < bound:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if 1 < n and (n < bound * bound):
        out.append(n)
        n = 1
    return out, n


_SQUARE_TEST_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_SQUARES_MOD = {m: {x * x % m for x in range(m)} for m in _SQUARE_TEST_MODULI}


def is_square(n: int) -> bool:
    if n < 0:
        return False
    for m, squares in _SQUARES_MOD.items():
        if n % m not in squares:
            return False
    k = math.isqrt(n)
    return k * k == n


def as_int(v):
    """An exactly carried integer, or None if the value is not one."""
    if isinstance(v, bool):
        return None
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        t = v.strip()
        try:
            if t.lower().lstrip("-").startswith("0x"):
                return int(t, 16)
            return int(t)
        except ValueError:
            return None
    return None


# ---------------------------------------------------------------------------
# Recursions
# ---------------------------------------------------------------------------


def origin_values(p: list[int], q: list[int], n: int) -> list[int]:
    """[p_k(0)] for k = 1..n by the homogeneous value recursion."""
    d = max(len(p), len(q)) - 1
    pc = p + [0] * (d + 1 - len(p))
    qc = q + [0] * (d + 1 - len(q))
    u, v = pc[0], qc[0]
    out = []
    for _ in range(n):
        out.append(u)
        upow = [1]
        vpow = [1]
        for _ in range(d):
            upow.append(upow[-1] * u)
            vpow.append(vpow[-1] * v)
        u, v = (sum(c * upow[i] * vpow[d - i] for i, c in enumerate(pc) if c),
                sum(c * upow[i] * vpow[d - i] for i, c in enumerate(qc) if c))
    return out


class FamilyCache:
    """f_n and theta_n of (z^2 + a)/z^2, extended on demand and shared across jobs."""

    def __init__(self):
        self._f: dict[int, list[int]] = {}
        self._theta: dict[int, dict[int, int]] = {}

    def f(self, a: int, n: int) -> int:
        fs = self._f.setdefault(a, [1, 1])
        while len(fs) < n:
            fs.append(fs[-1] * fs[-1] + a * fs[-2] ** 4)
        return fs[n - 1]

    def theta(self, a: int, n: int) -> int:
        """theta_n = f_n / prod(theta_d, d | n, d < n), by exact division."""
        cache = self._theta.setdefault(a, {})
        if n not in cache:
            num = self.f(a, n)
            den = 1
            for d in range(1, n):
                if n % d == 0:
                    den *= self.theta(a, d)
            value, rem = divmod(num, den)
            _require(rem == 0, f"own theta_{n} not integral")
            cache[n] = value
        return cache[n]


FAMILY = FamilyCache()


# ---------------------------------------------------------------------------
# Q(sqrt s) and P^1
# ---------------------------------------------------------------------------

INF = "inf"


class QS:
    """x + y sqrt(s) with Fraction x, y."""

    __slots__ = ("x", "y", "s")

    def __init__(self, x, y, s):
        self.x, self.y, self.s = Fraction(x), Fraction(y), s

    def _co(self, o):
        return o if isinstance(o, QS) else QS(o, 0, self.s)

    def __add__(self, o):
        o = self._co(o)
        return QS(self.x + o.x, self.y + o.y, self.s)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._co(o)
        return QS(self.x - o.x, self.y - o.y, self.s)

    def __rsub__(self, o):
        return self._co(o) - self

    def __mul__(self, o):
        o = self._co(o)
        return QS(self.x * o.x + self.s * self.y * o.y, self.x * o.y + self.y * o.x, self.s)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._co(o)
        norm = o.x * o.x - self.s * o.y * o.y
        if norm == 0:
            raise ZeroDivisionError
        return self * QS(o.x / norm, -o.y / norm, self.s)

    def __rtruediv__(self, o):
        return self._co(o) / self

    def is_zero(self):
        return self.x == 0 and self.y == 0

    def __eq__(self, o):
        if o == INF:
            return False
        o = self._co(o)
        return self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.x, self.y))


def _is_zero(v) -> bool:
    return v.is_zero() if isinstance(v, QS) else v == 0


def same_point(a, b) -> bool:
    if a == INF or b == INF:
        return a == INF and b == INF
    if isinstance(a, QS) or isinstance(b, QS):
        aa = a if isinstance(a, QS) else QS(a, 0, b.s)
        return aa == b
    return a == b


def parse_field_value(v):
    """JSON field value: "inf", "p/q", or {"x","y","s"}."""
    if isinstance(v, dict):
        return QS(Fraction(v["x"]), Fraction(v["y"]), int(v["s"]))
    if isinstance(v, str) and v.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise CheckError(f"unreadable field value {v!r}")


def poly_eval(cs, x):
    out = 0
    for c in reversed(cs):
        out = out * x + c
    return out


def map_eval(p: list, q: list, x):
    """phi(x) on P^1 for phi = p/q with coprime p, q."""
    if x == INF:
        dp, dq = _deg(p), _deg(q)
        if dp > dq:
            return INF
        if dp < dq:
            return Fraction(0)
        lead = p[dp] if isinstance(p[dp], QS) else Fraction(p[dp])
        return lead / q[dq]
    num, den = poly_eval(p, x), poly_eval(q, x)
    if _is_zero(den):
        return INF
    return num / den


def _deg(cs) -> int:
    d = len(cs) - 1
    while d > 0 and cs[d] == 0:
        d -= 1
    return d


def mobius_eval(m, x):
    a, b, c, e = m
    if x == INF:
        return INF if _is_zero(c) else a / c
    den = c * x + e
    if _is_zero(den):
        return INF
    return (a * x + b) / den


def height_bits(x) -> int:
    if x == INF:
        return 0
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _poly_deriv(cs):
    return [i * c for i, c in enumerate(cs)][1:] or [0]


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _poly_sub(f, g):
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]


def wronskian(p, q):
    return _poly_sub(_poly_mul(_poly_deriv(p), q), _poly_mul(p, _poly_deriv(q)))


def resultant_deg2(p, q) -> Fraction:
    """Resultant of the binary quadratic forms P(X,Y), Q(X,Y) (Sylvester)."""
    p = (p + [0, 0, 0])[:3]
    q = (q + [0, 0, 0])[:3]
    rows = [
        [p[2], p[1], p[0], 0],
        [0, p[2], p[1], p[0]],
        [q[2], q[1], q[0], 0],
        [0, q[2], q[1], q[0]],
    ]
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(4):
        piv = next((r for r in range(col, 4) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, 4):
            f = m[r][col] / m[col][col]
            for k in range(col, 4):
                m[r][k] -= f * m[col][k]
    return det


# ---------------------------------------------------------------------------
# Command checks
# ---------------------------------------------------------------------------


def _expect_rc(rc: int, wanted: int, what: str) -> None:
    _require(rc == wanted, f"exit code {rc}, expected {wanted} for {what}")


def check_orbit(job, rc, doc):
    f = job["facts"]
    _expect_rc(rc, 0, "orbit")
    rec = doc["orbit"]
    pts = [parse_field_value(x) for x in rec["points"]]
    cap = int(doc.get("config", {}).get("height_cap_bits", 4096))
    x = Fraction(f["start"])
    _require(same_point(pts[0], x), "orbit start differs")
    for i in range(1, len(pts)):
        x = map_eval(f["p"], f["q"], x)
        _require(same_point(pts[i], x), f"orbit point {i} differs from the recomputed value")
    status = rec.get("status")
    seen = [str(p) for p in pts]
    if status == "preperiodic":
        t, per = rec["preperiod"], rec["period"]
        _require(same_point(pts[-1], pts[t]) and len(pts) - 1 == t + per,
                 "preperiodic orbit does not close")
        _require(len(set(seen[:-1])) == len(seen) - 1, "orbit revisits before the reported cycle")
    elif status == "escaped":
        _require(height_bits(pts[-1]) > cap, "escaped orbit is below the height cap")
    elif status == "budget_exhausted":
        _require(len(pts) == f["steps"] + 1, "budget_exhausted orbit has the wrong length")
        _require(len(set(seen)) == len(seen), "budget_exhausted orbit revisits a point")
    else:
        raise CheckError(f"unknown orbit status {status!r}")


def _critical_points_ok(p, q, crit: dict) -> list:
    points = crit["points"]
    w = wronskian(p, q)
    d = max(_deg(p), _deg(q))
    locs = []
    for pt in points:
        loc = parse_field_value(pt["location"])
        if loc == INF:
            _require(_deg(w) < 2 * d - 2 or all(c == 0 for c in w), "infinity is not critical")
        else:
            _require(_is_zero(poly_eval(w, loc)), "reported critical point is not a root of the Wronskian")
        locs.append(loc)
    _require(sum(int(pt["index"]) - 1 for pt in points) == 2 * d - 2,
             "ramification indices do not sum to 2d - 2")
    _require(len(locs) != 2 or not same_point(locs[0], locs[1]), "critical points coincide")
    kind = crit.get("field", {}).get("kind")
    if kind == "rational":
        _require(all(not isinstance(x, QS) or x.y == 0 for x in locs), "rational field has irrational points")
    return locs


def _orbit_of(p, q, x, n):
    out = [x]
    for _ in range(n):
        x = map_eval(p, q, x)
        out.append(x)
    return out


def _check_relation(p, q, g1, g2, rel):
    kind = rel.get("kind")
    if kind == "trailing":
        n, m, lead = rel["n"], rel["m"], rel["lead"]
        a, b = (g1, g2) if lead == 1 else (g2, g1)
        _require(same_point(_orbit_of(p, q, a, n)[n], _orbit_of(p, q, b, m)[m]),
                 "trailing critical relation does not hold")
    elif kind == "collision":
        n = rel["n"]
        x1, x2 = _orbit_of(p, q, g1, n)[n], _orbit_of(p, q, g2, n)[n]
        _require(same_point(x1, x2), "critical collision does not hold")
        if rel.get("value") is not None:
            _require(same_point(parse_field_value(rel["value"]), x1), "collision value differs")
    elif kind == "single_orbit_preperiodic":
        t, per = rel["preperiod"], rel["period"]
        orb = _orbit_of(p, q, g1 if rel["lead"] == 1 else g2, t + per)
        _require(same_point(orb[t], orb[t + per]), "critical orbit is not preperiodic as claimed")


def check_critical(job, rc, doc):
    f = job["facts"]
    _expect_rc(rc, 0, "critical")
    locs = _critical_points_ok(f["p"], f["q"], doc["critical"])
    if len(locs) == 2 and "relation" in doc:
        _check_relation(f["p"], f["q"], locs[0], locs[1], doc["relation"])


def check_normal_form(job, rc, doc):
    f = job["facts"]
    _expect_rc(rc, 0, "normal-form")
    nf = doc["normal_form"]
    mu = tuple(parse_field_value(nf["mu"][k]) for k in ("a", "b", "c", "e"))
    d = int(nf["degree"])
    _require(d == max(_deg(f["p"]), _deg(f["q"])), "normal form has the wrong degree")
    kind = nf["kind"]
    if kind == "bicritical":
        a, b = parse_field_value(nf["a"]), parse_field_value(nf["b"])
        _require(not same_point(a, b), "bicritical normal form with a = b")
        num, den = [a] + [0] * (d - 1) + [1], [b] + [0] * (d - 1) + [1]
    elif kind == "power":
        num, den = [0] * d + [parse_field_value(nf["c"])], [1]
    elif kind == "inverse_power":
        num, den = [parse_field_value(nf["c"])], [0] * d + [1]
    else:
        raise CheckError(f"unknown normal form kind {kind!r}")
    # mu o phi = N o mu as maps of degree d: agreement at 2d + 3 points decides it
    for z in range(-d - 1, d + 2):
        z = Fraction(z, 1) + Fraction(1, 7)
        lhs = mobius_eval(mu, map_eval(f["p"], f["q"], z))
        rhs = map_eval(num, den, mobius_eval(mu, z))
        _require(same_point(lhs, rhs), "conjugator does not carry the map to its normal form")


def check_sequence(job, rc, doc):
    f = job["facts"]
    _expect_rc(rc, 0, "sequence")
    rows = doc["rows"]
    n = f["n"]
    status = doc.get("status")
    if status == "complete":
        _require(len(rows) == n, "complete sequence has the wrong number of rows")
    _require(len(rows) <= n, "more rows than requested")
    terms = origin_values(f["p"], f["q"], len(rows))
    a = f.get("a")
    thetas = {}
    for row in rows:
        k = int(row["n"])
        term = terms[k - 1]
        pn0 = as_int(row.get("pn0"))
        if pn0 is not None:
            _require(pn0 == term, f"p_{k}(0) differs from the recomputed value")
        if a is not None:
            fv = as_int(row.get("f"))
            if fv is not None:
                _require(fv == FAMILY.f(a, k), f"f_{k} differs from the recomputed value")
                _require(term == a ** (2 ** (k - 1)) * fv, f"p_{k}(0) != a^(2^(k-1)) f_{k}")
            th = as_int(row.get("theta"))
            if th is not None:
                _require(th == FAMILY.theta(a, k), f"theta_{k} differs from the recomputed value")
                thetas[k] = th
        if "factorization" in row:
            _check_factorization(row["factorization"], term, k)
    if f["factor"]:
        _require(all("factorization" in r for r in rows if terms[int(r["n"]) - 1] != 0),
                 "--factor rows lack a factorization")
    for k, th in thetas.items():
        prod = 1
        for d in range(1, k + 1):
            if k % d == 0 and d in thetas:
                prod *= thetas[d]
        if all(d in thetas for d in range(1, k + 1) if k % d == 0):
            _require(prod == FAMILY.f(a, k), f"product of theta_d over d | {k} is not f_{k}")


def _check_factorization(fac, term, k):
    sign = int(fac["sign"])
    cof = as_int(fac["cofactor"])
    _require(cof is not None, f"row {k}: cofactor not carried exactly")
    value = sign * cof
    last = 1
    for p, e in fac["factors"]:
        p, e = as_int(p), int(e)
        _require(p > last, f"row {k}: factors not strictly increasing")
        last = p
        _require(e >= 1 and is_certified_prime(p), f"row {k}: listed factor {p} is not prime")
        value *= p ** e
    _require(value == term, f"row {k}: factor product times cofactor is not the term")
    status = fac["cofactor_status"]
    if status == "unit":
        _require(cof == 1, f"row {k}: unit cofactor is {cof}")
    elif status == "probable_prime":
        if cof.bit_length() <= COFACTOR_CHECK_BITS:
            _require(is_prime(cof), f"row {k}: probable_prime cofactor is composite")
    elif status == "composite_unfactored":
        _require(cof > 1, f"row {k}: composite_unfactored cofactor is {cof}")
        if cof.bit_length() <= COFACTOR_CHECK_BITS:
            _require(not is_prime(cof), f"row {k}: composite_unfactored cofactor is prime")
    else:
        raise CheckError(f"row {k}: unknown cofactor status {status!r}")


def _witness_ok(wit: dict, v: int, label: str) -> None:
    x = as_int(wit.get("value"))
    if x is not None:
        _require(x == v, f"{label}: witness value differs")
    if "bits" in wit:
        _require(int(wit["bits"]) == v.bit_length(), f"{label}: witness bit length differs")
    if "negative" in wit:
        _require(bool(wit["negative"]) == (v < 0), f"{label}: witness sign differs")
    if "is_square" in wit:
        _require(bool(wit["is_square"]) == is_square(v), f"{label}: witness squareness differs")
    if "isqrt" in wit and as_int(wit["isqrt"]) is not None:
        _require(as_int(wit["isqrt"]) == math.isqrt(abs(v)), f"{label}: witness isqrt differs")
    if "sha256" in wit and v.bit_length() <= DIGEST_CHECK_BITS:
        text = str(abs(v))
        _require(wit["sha256"] == hashlib.sha256(text.encode()).hexdigest(),
                 f"{label}: witness digest differs")
        if "digits" in wit:
            _require(int(wit["digits"]) == len(text), f"{label}: witness digit count differs")


def _hypotheses(m: int):
    def best(targets, wanted):
        found = None
        for name, value in targets:
            if value in (0, 1, -1):
                continue
            primes, rest = small_prime_factors(value)
            _require(rest == 1, "own hypothesis search could not factor its targets")
            for p in primes:
                if wanted(p) and (found is None or p < found[0]):
                    found = (p, name)
        return found

    s1 = best([("m-1", m - 1), ("m", m), ("m+1", m + 1)], lambda p: p % 4 == 3)
    s2 = best([("2m-1", 2 * m - 1), ("2m+1", 2 * m + 1)], lambda p: p % 8 in (5, 7))
    return s1, s2


def check_certify(job, rc, doc):
    f = job["facts"]
    if "m" in f:
        m = f["m"]
        s1, s2 = _hypotheses(m)
        hyp = doc.get("hypotheses")
        if hyp is not None:
            _require((hyp.get("s1_witness"), hyp.get("s1_target")) == (s1 or (None, None)),
                     "S1 witness differs from the recomputed one")
            _require((hyp.get("s2_witness"), hyp.get("s2_target")) == (s2 or (None, None)),
                     "S2 witness differs from the recomputed one")
        if s1 is None or s2 is None:
            _expect_rc(rc, 4, "unmet hypotheses")
            _require(doc.get("overall") == "hypotheses_unmet", "unmet hypotheses not reported")
            return
        a = -2 * (2 * m * m - 1) ** 2
        par = doc.get("parametrization")
        if par is not None:
            _require(as_int(par.get("a")) == a, "parametrization a differs")
            if "alpha" in par:
                _require(Fraction(par["alpha"]) == Fraction(2 * m * m - 1, m), "alpha differs")
    else:
        a = f["a"]
    depth = f["depth"]
    cert = doc["certificate"]
    _require(as_int(cert.get("a", a)) == a and int(cert.get("depth", depth)) == depth,
             "certificate is for other parameters")
    if a % 4 != 2 or a > -3:
        _require(cert["overall"] == "hypotheses_unmet", "certificate outside its hypotheses")
        _expect_rc(rc, 4, "hypotheses_unmet")
        return
    levels = cert["levels"]
    _require(len(levels) == depth, "certificate has the wrong number of levels")
    irr_prev = None
    maximal = []
    for lv in levels:
        n = int(lv["n"])
        irr = lv["irreducibility"]
        if n == 1:
            irr_ok = not is_square(-a)
            _witness_ok(irr.get("witness", {}), -a, "level 1")
            want = "maximal" if irr_ok else "unknown"
        else:
            fv = FAMILY.f(a, n + 1)
            irr_ok = irr_prev and not is_square(fv)
            _witness_ok(irr.get("witness", {}), fv, f"level {n} irreducibility")
            th = FAMILY.theta(a, n + 1)
            nonsquare = th != 0 and not is_square(abs(th))
            wit = lv.get("theta") or {}
            _witness_ok(wit, th, f"level {n} theta")
            if "strict_bracket" in wit:
                _require(bool(wit["strict_bracket"]) == nonsquare, f"level {n}: bracket verdict differs")
            want = "maximal" if irr_prev and nonsquare else "unknown"
        _require((irr.get("status") == "certified") == irr_ok,
                 f"level {n}: irreducibility status differs from the recomputed one")
        _require(lv["verdict"] == want, f"level {n}: verdict {lv['verdict']!r}, recomputed {want!r}")
        if want == "maximal":
            maximal.append(n)
        irr_prev = irr_ok
    overall = "all_maximal" if len(maximal) == depth else "partial"
    _require(cert["overall"] == overall, f"overall {cert['overall']!r}, recomputed {overall!r}")
    if "maximal_levels" in cert:
        _require(list(cert["maximal_levels"]) == maximal, "maximal_levels differ")
    _expect_rc(rc, 0 if overall == "all_maximal" else 1, overall)


def check_rigid(job, rc, doc):
    f = job["facts"]
    terms = origin_values(f["p"], f["q"], f["n"])
    if any(t == 0 for t in terms):
        _expect_rc(rc, 1, "a vanishing term")
        return
    _require(doc is not None, f"exit code {rc} with no output")
    rep = doc["report"]
    excluded = set(f["exclude"])
    checked = [int(p) for p in rep["checked_primes"]]
    for p in checked:
        _require(is_certified_prime(p), f"checked prime {p} is not prime")
        _require(p not in excluded, f"excluded prime {p} was checked")
    own = set()
    for p in checked:
        vals = [valuation(t, p) for t in terms]
        n_terms = len(terms)
        for n in range(1, n_terms + 1):
            if vals[n - 1] > 0:
                for kn in range(2 * n, n_terms + 1, n):
                    if vals[kn - 1] != vals[n - 1]:
                        own.add((p, 1, (n, kn)))
        for m in range(1, n_terms + 1):
            for n in range(m + 1, n_terms + 1):
                if vals[m - 1] > 0 and vals[n - 1] > 0 and vals[math.gcd(m, n) - 1] <= 0:
                    own.add((p, 2, (m, n, math.gcd(m, n))))
    reported = {(int(v["prime"]), int(v["condition"]), tuple(v["indices"])) for v in rep["violations"]}
    _require(reported <= own, "a reported violation is not confirmed by recomputed valuations")
    _require(own <= reported, "a violation among the checked primes is not reported")
    status = "pass" if not own else "fail"
    _require(rep.get("status", status) == status, "rigidity status differs")
    _expect_rc(rc, 0 if status == "pass" else 5, f"rigidity {status}")
    bad = doc.get("bad_reduction_primes")
    if bad is not None and max(_deg(f["p"]), _deg(f["q"])) == 2:
        res = resultant_deg2(f["p"], f["q"])
        _require(res != 0 and res.denominator == 1, "own resultant is degenerate")
        primes, rest = small_prime_factors(res.numerator)
        for p in bad:
            _require(res.numerator % int(p) == 0, f"bad prime {p} does not divide the resultant")
        if rest == 1:
            _require(sorted(int(p) for p in bad) == sorted(primes), "bad-reduction primes differ")


CHECKS = {
    "orbit": check_orbit,
    "critical": check_critical,
    "normal-form": check_normal_form,
    "sequence": check_sequence,
    "certify": check_certify,
    "rigid-check": check_rigid,
}


def check_job(job: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one job's result; an empty list accepts it.

    Exit codes outside the README table and tracebacks are reported by the
    caller before this runs; here a job either emitted a JSON payload whose
    facts hold, or exited with a documented code and a one-line diagnostic
    that its inputs justify.
    """
    try:
        if not stdout.strip():
            # only a vanishing rigid-check term justifies an empty result here
            if job["kind"] == "rigid-check":
                check_rigid(job, rc, None)
                return []
            raise CheckError(f"exit code {rc} with no output")
        doc = json.loads(stdout)
        CHECKS[job["kind"]](job, rc, doc)
    except CheckError as exc:
        return [str(exc)]
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable payload: {type(exc).__name__}: {exc}"]
    return []
