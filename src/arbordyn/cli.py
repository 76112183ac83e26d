"""Command-line interface: reproducible, scriptable commands with JSON output.

Exit codes are a stable contract: 0 success/pass, 1 budget, partial
certificate or stdout closed early, 2 malformed command line (one "error:
<message>" line: an option missing, unknown or out of range, both or neither
of --a/--map, an unparsable map or point), 3 non-bicritical input, 4
hypotheses unmet, 5 rigidity violation, 6 internal error (any other
exception, reported as one "error: internal: <Type>: <message>" line);
``main`` alone maps exceptions to codes.
JSON goes to stdout (schema tag "arbordyn/3", keys sorted, no timestamps,
so identical inputs produce byte-identical output); diagnostics go to
stderr.  Every value is written by ``_record.plain``: integers wider than
DECIMAL_SAFE_BITS become "0x..." hex strings, and rationals "num/den" with
each part by the same rule, in JSON and text alike, so no wide integer is
ever converted to decimal.
Each command takes only the budget options it spends, each a row of
BUDGETS, and ``config`` in its JSON holds exactly their values; any other
budget option is unknown to it and exits 2.
Each command imports the modules it needs when it runs, so starting the
program loads only the parser and what it uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from ._record import fraction_text, int_text, plain
from .errors import (
    FactoringBudgetError,
    GrowthCapError,
    HypothesisError,
    NotBicriticalError,
)
from .factorint import (
    DEFAULT_RHO_BUDGET,
    DEFAULT_SEED,
    DEFAULT_TRIAL_BOUND,
    FactorBudget,
    factor_integer,
)
from .parsing import ParseError, parse_map, parse_point
from .ratmap import (
    DEFAULT_GROWTH_CAP_BITS,
    DEFAULT_HEIGHT_CAP_BITS,
    DEFAULT_MAX_STEPS,
)

SCHEMA = "arbordyn/3"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_BICRITICAL = 3
EXIT_HYPOTHESES = 4
EXIT_RIGIDITY = 5
EXIT_INTERNAL = 6


def _emit(payload: dict, args, text=None) -> None:
    """Print the payload as JSON, or as the lines ``text()`` builds for --output text.

    The payload may hold records and any other value ``plain`` writes;
    ``config`` holds the value of each budget option the command takes.
    """
    if args.output == "text" and text is not None:
        for line in text():
            print(line)
        return
    config = {key: getattr(args, key) for _, key, _, _ in BUDGETS if hasattr(args, key)}
    doc = {"schema": SCHEMA, "command": args.command, "config": config}
    doc.update(payload)
    print(json.dumps(plain(doc), sort_keys=True, indent=2))


def _text(v) -> str:
    """A field value as text: a Fraction by fraction_text, anything else by str."""
    return fraction_text(v) if isinstance(v, Fraction) else str(v)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_orbit(args) -> int:
    phi = parse_map(args.map)
    start = parse_point(args.start)
    rec = phi.orbit(start, args.orbit_max_steps, args.height_cap_bits)

    def text():
        lines = [f"orbit of {start} under {args.map}:"]
        lines += [f"  {i}: {pt}" for i, pt in enumerate(rec.points)]
        lines.append(f"status: {rec.status}"
                     + (f" (preperiod {rec.preperiod}, period {rec.period})"
                        if rec.status == "preperiodic" else ""))
        return lines

    _emit({"orbit": rec}, args, text)
    return EXIT_OK


def _relation_summary(rel) -> str:
    if rel.kind == "trailing":
        return f"trailing({rel.n}, {rel.m})"
    if rel.kind == "collision":
        return f"collision({rel.n}) at {_text(rel.value)}"
    if rel.kind == "single_orbit_preperiodic":
        return f"single_orbit_preperiodic({rel.preperiod}, {rel.period})"
    return f"none_found({rel.search_bound})"


def cmd_critical(args) -> int:
    from . import critical as crit

    phi = parse_map(args.map)
    budget = FactorBudget(args.trial_bound, args.rho_budget, args.seed)
    data = crit.critical_points(phi, budget)
    rel = crit.critical_orbit_relation(phi, args.bound, args.height_cap_bits, data)
    payload = {"critical": data, "relation": rel}

    def text():
        lines = ["critical points:"]
        lines += [f"  {pt.location_str()}  (e = {pt.index})" for pt in data.points]
        lines.append(f"field: {data.field.kind}"
                     + (f"(sqrt {data.field.s})" if data.field.s else ""))
        lines.append(f"orbit relation: {_relation_summary(rel)}")
        return lines

    _emit(payload, args, text)
    return EXIT_OK


def cmd_normal_form(args) -> int:
    from . import critical as crit

    phi = parse_map(args.map)
    budget = FactorBudget(args.trial_bound, args.rho_budget, args.seed)
    data = crit.critical_points(phi, budget)
    nf = crit.to_normal_form(phi, data)
    rel = crit.critical_orbit_relation(phi, args.bound, args.height_cap_bits, data)
    payload = {"normal_form": nf, "relation": rel}

    def text():
        if nf.kind == crit.BICRITICAL:
            summary = f"bicritical(a = {_text(nf.a)}, b = {_text(nf.b)})"
        elif nf.kind == crit.POWER:
            summary = f"power(c = {_text(nf.c)})"
        else:
            summary = f"inverse_power(c = {_text(nf.c)})"
        return [f"normal form: {summary}",
                f"conjugator mu: {nf.mu.to_dict()}",
                f"orbit relation: {_relation_summary(rel)}"]

    _emit(payload, args, text)
    return EXIT_OK


def cmd_sequence(args) -> int:
    from . import divisibility as divis

    phi = divis.main_family(args.a) if args.map is None else parse_map(args.map)
    # recognize the family (z^2+a)/z^2 to enable the f/theta columns
    pc, qc = phi.homogeneous_coeffs()
    family_a = pc[0] if qc == (0, 0, 1) and pc[1:] == (0, 1) else None
    values = phi.origin_values(args.n, args.growth_cap_bits)
    status = "growth_capped" if len(values) < args.n else "complete"
    rows = [{"n": idx, "pn0": u} for idx, (u, _) in enumerate(values, start=1)]
    if family_a is not None and rows:
        try:
            fs = divis.f_sequence(family_a, len(rows), args.growth_cap_bits)
            for idx, row in enumerate(rows, start=1):
                row["f"] = fs[idx - 1]
                row["theta"] = divis.theta(family_a, idx, fs)
        except GrowthCapError:
            status = "growth_capped"
    if args.factor:
        budget = FactorBudget(args.trial_bound, args.rho_budget, args.seed)
        for row in rows:
            if row["pn0"] != 0:
                fac = factor_integer(row["pn0"], budget)
                row["factorization"] = fac
                row["factor_string"] = fac.format()
    payload = {"a": family_a, "n": args.n, "rows": rows, "status": status}

    def text():
        lines = []
        for row in rows:
            cells = [f"n={row['n']}", f"p_n(0)={int_text(row['pn0'])}"]
            if "f" in row:
                cells.append(f"f={int_text(row['f'])}")
                cells.append(f"theta={int_text(row['theta'])}")
            if "factor_string" in row:
                cells.append(row["factor_string"])
            lines.append("  ".join(cells))
        return lines

    _emit(payload, args, text)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import galois

    payload: dict = {}
    hyp = param = cert = None

    def text():
        lines = []
        if hyp is not None:
            lines.append(
                f"m={args.m}: S1 witness {hyp.s1_witness} ({hyp.s1_target}), "
                f"S2 witness {hyp.s2_witness} ({hyp.s2_target})"
            )
        if param is not None:
            lines.append(f"a = {int_text(param.a)}, alpha = {fraction_text(param.alpha)}")
        if cert is None:
            lines.append("hypotheses unmet")
        else:
            lines.append(f"certificate: {cert.overall} "
                         f"(maximal levels {cert.maximal_levels})")
        return lines

    if args.m is not None:
        budget = FactorBudget(args.trial_bound, args.rho_budget, args.seed)
        hyp = galois.hypothesis_witnesses(args.m, budget)
        payload["hypotheses"] = hyp
        if not hyp.met:
            payload["overall"] = "hypotheses_unmet"
            _emit(payload, args, text)
            return EXIT_HYPOTHESES
        param = galois.alpha_parametrization(args.m)
        payload["parametrization"] = param
        a = param.a
    else:
        a = args.a
    cert = galois.maximality_certificate(
        a, args.depth, growth_cap_bits=args.growth_cap_bits)
    payload["certificate"] = cert
    payload["overall"] = cert.overall
    _emit(payload, args, text)
    if cert.overall == galois.ALL_MAXIMAL:
        return EXIT_OK
    if cert.overall == galois.HYPOTHESES_UNMET:
        return EXIT_HYPOTHESES
    return EXIT_FAIL


def cmd_rigid_check(args) -> int:
    from . import divisibility as divis
    from . import reduction

    phi = parse_map(args.map)
    warnings = []
    if phi.p.coeff(1) != 0 or phi.q.coeff(1) != 0:
        warnings.append(
            "hypothesis p'(0) = q'(0) = 0 fails; checking empirically anyway"
        )
    values = phi.origin_values(args.n, args.growth_cap_bits)
    if len(values) < args.n:
        return _fail(f"growth cap exceeded at term {len(values) + 1}: "
                     f"origin value wider than {args.growth_cap_bits} bits", EXIT_FAIL)
    terms = [u for u, _ in values]
    if any(t == 0 for t in terms):
        return _fail("a sequence term vanishes; rigidity undefined", EXIT_FAIL)
    budget = FactorBudget(args.trial_bound, args.rho_budget, args.seed)
    try:
        bad = list(reduction.bad_reduction_primes(phi, budget))
    except FactoringBudgetError:
        bad = None
    report = divis.verify_rigid_divisibility(terms, args.exclude, args.pool_depth, budget)
    payload = {
        "report": report,
        "bad_reduction_primes": bad,
        "warnings": warnings,
    }

    def text():
        lines = [f"terms: [{', '.join(int_text(t) for t in terms)}]"]
        if warnings:
            lines += [f"warning: {w}" for w in warnings]
        if bad is not None:
            lines.append(f"bad reduction primes: {bad}")
        lines.append(f"status: {report.status}")
        for v in report.violations:
            lines.append(f"  violation p={v.prime} condition {v.condition}: {v.detail}")
        return lines

    _emit(payload, args, text)
    return EXIT_OK if report.status == "pass" else EXIT_RIGIDITY


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ParseError (exit 2, one line) where argparse prints its usage."""

    def error(self, message):
        raise ParseError(message)


def _integer(need: str, ok):
    """An argparse type: an integer for which ``ok`` holds, else "need <need>"."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return value
    return parse


_POSITIVE = _integer("an integer >= 1", lambda v: v >= 1)
_NON_NEGATIVE = _integer("an integer >= 0", lambda v: v >= 0)


def _integer_list(text: str) -> list[int]:
    """An argparse type: comma-separated integers ("2,7"; empty items skipped)."""
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need comma-separated integers, got {text!r}") from None


# Budget options: (option, its key in "config" and argparse dest, default, type).
BUDGETS = (
    ("--steps", "orbit_max_steps", DEFAULT_MAX_STEPS, _POSITIVE),
    ("--height-cap-bits", "height_cap_bits", DEFAULT_HEIGHT_CAP_BITS, _POSITIVE),
    ("--growth-cap-bits", "growth_cap_bits", DEFAULT_GROWTH_CAP_BITS, _POSITIVE),
    ("--trial-bound", "trial_bound", DEFAULT_TRIAL_BOUND, _POSITIVE),
    ("--rho-budget", "rho_budget", DEFAULT_RHO_BUDGET, _POSITIVE),
    ("--seed", "seed", DEFAULT_SEED, int),
)
FACTORING = ("--trial-bound", "--rho-budget", "--seed")


def _add_options(sub, *budgets: str) -> None:
    """--output, and the named rows of BUDGETS."""
    sub.add_argument("--output", choices=("json", "text"), default="json")
    for option, key, default, kind in BUDGETS:
        if option in budgets:
            sub.add_argument(option, dest=key, default=default, type=kind)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="arbordyn",
        description="Exact arithmetic for bicritical rational maps over Q.",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("orbit", help="iterate a rational point exactly")
    s.add_argument("--map", required=True)
    s.add_argument("--start", required=True)
    _add_options(s, "--steps", "--height-cap-bits")
    s.set_defaults(func=cmd_orbit)

    s = subs.add_parser("critical", help="critical points and orbit relations")
    s.add_argument("--map", required=True)
    s.add_argument("--bound", type=_NON_NEGATIVE, default=12,
                   help="orbit-relation search depth")
    _add_options(s, "--height-cap-bits", *FACTORING)
    s.set_defaults(func=cmd_critical)

    s = subs.add_parser("normal-form", help="conjugate to a two-term normal form")
    s.add_argument("--map", required=True)
    s.add_argument("--bound", type=_NON_NEGATIVE, default=12)
    _add_options(s, "--height-cap-bits", *FACTORING)
    s.set_defaults(func=cmd_normal_form)

    s = subs.add_parser("sequence", help="origin iterate values and factorizations")
    one = s.add_mutually_exclusive_group(required=True)
    one.add_argument("--a", type=_integer("a nonzero integer", lambda v: v != 0),
                     help="family parameter for (z^2+a)/z^2")
    one.add_argument("--map")
    s.add_argument("--n", type=_POSITIVE, required=True)
    s.add_argument("--factor", action="store_true")
    _add_options(s, "--growth-cap-bits", *FACTORING)
    s.set_defaults(func=cmd_sequence)

    s = subs.add_parser("certify", help="arboreal maximality certificates")
    one = s.add_mutually_exclusive_group(required=True)
    one.add_argument("--m", type=_integer("an integer other than -1, 0, 1",
                                          lambda v: abs(v) >= 2))
    one.add_argument("--a", type=int)
    s.add_argument("--depth", type=_POSITIVE, required=True)
    _add_options(s, "--growth-cap-bits", *FACTORING)
    s.set_defaults(func=cmd_certify)

    s = subs.add_parser("rigid-check", help="rigid divisibility of p_n(0)")
    s.add_argument("--map", required=True)
    s.add_argument("--n", type=_POSITIVE, required=True)
    s.add_argument("--exclude", type=_integer_list, action="extend", default=[],
                   help="comma-separated primes to exclude (repeatable)")
    s.add_argument("--pool-depth", type=_NON_NEGATIVE, default=6,
                   help="fully factor terms up to this index for the prime pool")
    _add_options(s, "--growth-cap-bits", *FACTORING)
    s.set_defaults(func=cmd_rigid_check)

    return ap


# Options whose values may begin with "-" (a negative start such as -2/3, or
# a map such as -z^2/(z^2+1)), which argparse would otherwise read as options.
DASH_VALUE_OPTIONS = ("--start", "--map")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite "--start -2/3" as "--start=-2/3" for the DASH_VALUE_OPTIONS."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in DASH_VALUE_OPTIONS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_dash_values(argv))
        return args.func(args)
    except ParseError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except NotBicriticalError as exc:
        return _fail(str(exc), EXIT_NOT_BICRITICAL)
    except HypothesisError as exc:
        return _fail(str(exc), EXIT_HYPOTHESES)
    except (GrowthCapError, FactoringBudgetError) as exc:
        return _fail(str(exc), EXIT_FAIL)
    except BrokenPipeError:
        # stdout closed early (as by "| head"): send the flush at exit nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        return _fail(f"internal: {type(exc).__name__}: {message}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
