"""Command-line interface: reproducible, scriptable commands with JSON output.

Exit codes are a stable contract: 0 success/pass, 1 budget, partial
certificate, stdout closed early or interrupted, 2 malformed command line
(one "error: <message>" line: an option missing, unknown or out of range,
both or neither of --a/--map, an unparsable map or point), 3 non-bicritical
input, 4 hypotheses unmet, 5 rigidity violation, 6 internal error (any other
exception, reported as one "error: internal: <Type>: <message>" line);
``main`` alone maps exceptions to codes.
JSON goes to stdout (tagged SCHEMA, keys sorted, no timestamps, so
identical inputs produce byte-identical output); diagnostics go to
stderr.  Every value is written by ``_record.plain``: integers wider than
DECIMAL_SAFE_BITS become "0x..." hex strings, and rationals "num/den" with
each part by the same rule, in JSON and text alike, so no wide integer is
ever converted to decimal.
Each command takes only the budget options it spends, rows of BUDGETS, and
``config`` in its JSON holds exactly their values.  ``parse`` reads the
command line by the table COMMANDS alone, and each command imports the
modules it needs when it runs, so start-up loads neither argparse nor json.
When ``main`` owns the process (called with no ``argv``, as by the
``arbordyn`` script or ``python -m arbordyn.cli``), it first calls
``gc.freeze()``: every object that start-up made moves to the permanent
generation, which no collection visits, so the collection at interpreter
exit no longer walks them.  ``main(argv)``, as a library or test calls it,
leaves the collector as it is.
"""

from __future__ import annotations

import gc
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from ._record import fraction_text, int_text, json_text, plain
from .errors import FactoringBudgetError, NotBicriticalError
from .factorint import (
    DEFAULT_RHO_BUDGET,
    DEFAULT_SEED,
    DEFAULT_TRIAL_BOUND,
    FactorBudget,
    factor_each,
)
from .parsing import ParseError, parse_map, parse_point
from .ratmap import (
    DEFAULT_GROWTH_CAP_BITS,
    DEFAULT_HEIGHT_CAP_BITS,
    DEFAULT_MAX_STEPS,
)

SCHEMA = "arbordyn/6"

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
    config = {key: getattr(args, key) for _, key, *_ in BUDGETS if hasattr(args, key)}
    doc = {"schema": SCHEMA, "command": args.command, "config": config}
    doc.update(payload)
    print(json_text(plain(doc)))


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
    family_a = phi.pc[0] if phi.qc == (0, 0, 1) and phi.pc[1:] == (0, 1) else None
    values = phi.origin_values(args.n, args.growth_cap_bits)
    status = "growth_capped" if len(values) < args.n else "complete"
    rows = [{"n": idx, "pn0": u} for idx, (u, _) in enumerate(values, start=1)]
    if family_a is not None and rows:
        fs = divis.f_sequence(family_a, len(rows))  # |f_n| <= |p_n(0)|: under the same cap
        thetas = divis.theta(fs)
        defined = None not in thetas  # else some f_k vanishes, and theta_n is not defined
        for row, f, th in zip(rows, fs, thetas):
            row["f"] = f
            if defined:
                row["theta"] = th
    if args.factor:
        budget = FactorBudget(args.trial_bound, args.rho_budget, args.seed)
        nonzero = [row for row in rows if row["pn0"] != 0]
        for row, fac in zip(nonzero, factor_each([row["pn0"] for row in nonzero], budget)):
            row["factorization"] = fac
            row["factor_string"] = fac.format()
    payload = {"a": family_a, "n": args.n, "rows": rows, "status": status}

    def text():
        lines = []
        for row in rows:
            cells = [f"n={row['n']}", f"p_n(0)={int_text(row['pn0'])}"]
            if "f" in row:
                cells.append(f"f={int_text(row['f'])}")
            if "theta" in row:
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
    cert = galois.maximality_certificate(a, args.depth)
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
# The command line
# ---------------------------------------------------------------------------


def _checked(need: str, ok=lambda v: True, convert=int):
    """A converter: ``convert(text)`` if it succeeds and ``ok`` holds, else ValueError."""
    def check(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise ValueError(f"need {need}, got {text!r}")
    return check


_POSITIVE = _checked("an integer >= 1", lambda v: v >= 1)
_NON_NEGATIVE = _checked("an integer >= 0", lambda v: v >= 0)
# The largest certify --depth: a certificate's time and payload grow with
# the depth, and it takes no growth cap.
MAX_DEPTH = 1000

# An option is (flag, dest, convert, default, required, group).  ``convert``
# turns the token after the flag into the value (raising ValueError), or is
# None for a flag that stores True; a list value extends the option's value.
# At most one option of a group may be given, and one must if required.
_OUTPUT = ("--output", "output", _checked("json or text", lambda v: v in ("json", "text"), str),
           "json", False, None)
_MAP = ("--map", "map", str, None, True, None)
_N = ("--n", "n", _POSITIVE, None, True, None)
_BOUND = ("--bound", "bound", _NON_NEGATIVE, 12, False, None)

# Budget options; the dest is the option's key in "config".
BUDGETS = (
    ("--steps", "orbit_max_steps", _POSITIVE, DEFAULT_MAX_STEPS, False, None),
    ("--height-cap-bits", "height_cap_bits", _POSITIVE, DEFAULT_HEIGHT_CAP_BITS, False, None),
    ("--growth-cap-bits", "growth_cap_bits", _POSITIVE, DEFAULT_GROWTH_CAP_BITS, False, None),
    ("--trial-bound", "trial_bound", _POSITIVE, DEFAULT_TRIAL_BOUND, False, None),
    ("--rho-budget", "rho_budget", _POSITIVE, DEFAULT_RHO_BUDGET, False, None),
    ("--seed", "seed", _checked("an integer"), DEFAULT_SEED, False, None),
)
_STEPS, _HEIGHT, _GROWTH, *_FACTORING = BUDGETS

# Each command: the name of its function (looked up when the command runs),
# a line of help, and its options in the order help lists them.
COMMANDS = {
    "orbit": ("cmd_orbit", "iterate a rational point exactly",
              (_MAP, ("--start", "start", str, None, True, None), _OUTPUT, _STEPS, _HEIGHT)),
    "critical": ("cmd_critical", "critical points and orbit relations",
                 (_MAP, _BOUND, _OUTPUT, _HEIGHT, *_FACTORING)),
    "normal-form": ("cmd_normal_form", "conjugate to a two-term normal form",
                    (_MAP, _BOUND, _OUTPUT, _HEIGHT, *_FACTORING)),
    "sequence": ("cmd_sequence", "origin iterate values and factorizations", (
        ("--a", "a", _checked("a nonzero integer", lambda v: v != 0), None, True, "--a/--map"),
        ("--map", "map", str, None, True, "--a/--map"), _N,
        ("--factor", "factor", None, False, False, None), _OUTPUT, _GROWTH, *_FACTORING)),
    "certify": ("cmd_certify", "arboreal maximality certificates", (
        ("--m", "m", _checked("an integer other than -1, 0, 1", lambda v: abs(v) >= 2),
         None, True, "--m/--a"),
        ("--a", "a", _checked("an integer"), None, True, "--m/--a"),
        ("--depth", "depth", _checked(f"an integer from 1 to {MAX_DEPTH}",
                                      lambda v: 1 <= v <= MAX_DEPTH), None, True, None),
        _OUTPUT, *_FACTORING)),
    "rigid-check": ("cmd_rigid_check", "rigid divisibility of p_n(0)", (
        _MAP, _N, ("--exclude", "exclude", _checked(
            "comma-separated integers", convert=lambda t: [int(x) for x in t.split(",") if x]),
         [], False, None),
        ("--pool-depth", "pool_depth", _NON_NEGATIVE, 6, False, None),
        _OUTPUT, _GROWTH, *_FACTORING)),
}


def usage(command: str | None = None) -> str:
    """The -h/--help text: the commands, or one command's options."""
    if command is None:
        return "\n".join(["usage: arbordyn COMMAND [--OPTION VALUE]... | COMMAND --help"]
                         + [f"  {name:<12} {spec[1]}" for name, spec in COMMANDS.items()])
    lines = [f"usage: arbordyn {command} [--OPTION VALUE]...  ({COMMANDS[command][1]})"]
    for flag, _, convert, default, required, group in COMMANDS[command][2]:
        note = (f"one of {group}" if group else "required" if required
                else f"default {default}" if convert else "flag")
        lines.append(f"  {flag + (' VALUE' if convert else ''):<26} {note}")
    return "\n".join(lines)


def parse(argv: list[str]):
    """The command line as a namespace of the command and each option's dest.

    An option is named in full or by a unique prefix, with its value as the
    next token, whatever it begins with, or after "=".  Raises ParseError
    naming the option at fault; prints the help and returns None for --help.
    """
    if not argv:
        raise ParseError("the following arguments are required: command")
    command, *rest = argv
    if command == "-h" or len(command) > 2 and "--help".startswith(command):
        print(usage())
        return None
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise ParseError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    table = (("--help", None, None, None, False, None), *COMMANDS[command][2])
    given, extras, tokens = [], [], iter(rest)
    for token in tokens:  # first every option and its value, then their checks
        name, eq, value = ("--help" if token == "-h" else token).partition("=")
        found = [o for o in table if o[0] == name] or [
            o for o in table if name.startswith("--") and name != "--" and o[0].startswith(name)]
        if len(found) > 1:
            matches = ", ".join(o[0] for o in found)
            raise ParseError(f"ambiguous option: {token} could match {matches}")
        if found:
            given.append((found[0], value if eq else next(tokens, None) if found[0][2] else None))
        else:
            extras.append(token)
    args = SimpleNamespace(command=command, **{o[1]: o[3] for o in table[1:]})
    seen = {}
    for (flag, dest, convert, _, _, group), value in given:
        if convert is None and value is not None:
            raise ParseError(f"argument {flag}: ignored explicit argument {value!r}")
        if convert is not None and value is None:
            raise ParseError(f"argument {flag}: expected one argument")
        if dest is None:
            print(usage(command))
            return None
        try:
            value = True if convert is None else convert(value)
        except ValueError as exc:
            raise ParseError(f"argument {flag}: {exc}") from None
        if isinstance(value, list):
            value = getattr(args, dest) + value
        if seen.setdefault(group or flag, flag) != flag:
            raise ParseError(f"argument {flag}: not allowed with argument {seen[group]}")
        setattr(args, dest, value)
    missing = [o[0] for o in table if o[4] and not o[5] and o[0] not in seen]
    groups = [o[5].replace("/", " ") for o in table if o[4] and o[5] and o[5] not in seen]
    if missing or groups or extras:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}" if missing
                         else f"one of the arguments {groups[0]} is required" if groups
                         else f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    if argv is None:  # the process is ours: spare its exit the start-up objects
        gc.freeze()
        argv = sys.argv[1:]
    else:
        argv = list(argv)
    try:
        args = parse(argv)  # None once -h/--help has printed the help
        return EXIT_OK if args is None else globals()[COMMANDS[args.command][0]](args)
    except ParseError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except NotBicriticalError as exc:
        return _fail(str(exc), EXIT_NOT_BICRITICAL)
    except FactoringBudgetError as exc:
        return _fail(str(exc), EXIT_FAIL)
    except KeyboardInterrupt:
        return _fail("interrupted", EXIT_FAIL)
    except BrokenPipeError:
        # stdout closed early (as by "| head"): send the flush at exit nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        return _fail(f"internal: {type(exc).__name__}: {message}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
