"""Layer spans for arbordyn, recorded from outside the library.

As a program this is a drop-in for the ``arbordyn`` command that records a
span around every call of a public function or method of each arbordyn
module, keeps the spans in memory, and writes them to SPANS_FILE when the
command ends:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS_FILE JOB_ID -- <arbordyn args>

Stdout, stderr and the exit code are the command's own.  Modules bind each
other's functions with ``from ... import``, so a wrapper replaces every
binding of the same function object in every arbordyn module.

As a module (imported by run.py, without importing arbordyn) it turns the
span files of many jobs into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from types import FunctionType

LAYERS = ("parsing", "cli", "ratmap", "intpoly", "critical", "quadext", "fieldpoly",
          "reduction", "factorint", "ffpoly", "divisibility", "galois")

# Private names that get a span too: JSON emission is a layer of its own.
EXTRA_NAMES = {"cli": ("_emit",)}
# Operator methods are how quadext and intpoly do their work.
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__call__")

ORIGIN_SPANS = ("ratmap.RationalMap.origin_values", "ratmap.RationalMap.origin_values_capped",
                "ratmap.RationalMap.ladder_values")


# ---------------------------------------------------------------------------
# Child side: wrappers and span recording
# ---------------------------------------------------------------------------


def _max_bits(result) -> int:
    """Largest integer bit length in an origin-value result."""
    best = 0
    stack = [result]
    while stack:
        x = stack.pop()
        if isinstance(x, bool):
            continue
        if isinstance(x, int):
            best = max(best, x.bit_length())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "numerator"):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _factor_note(result):
    return getattr(result, "cofactor_status", None)


NOTES = {name: _max_bits for name in ORIGIN_SPANS}
NOTES["factorint.factor_integer"] = _factor_note


class Recorder:
    def __init__(self):
        self.clock = time.perf_counter_ns
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, fn, name):
        sid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [sid, t0, t1, parent, None]
            if note is not None:
                spans[idx][4] = note(out)
            return out

        return span


def install(recorder: Recorder) -> None:
    """Wrap every traced function and rebind it wherever arbordyn binds it."""
    modules = {layer: importlib.import_module(f"arbordyn.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__ and (
                    not name.startswith("_") or name in EXTRA_NAMES.get(layer, ())):
                replaced[obj] = recorder.wrap(obj, f"{layer}.{name}")
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                _wrap_class(recorder, obj, f"{layer}.{name}")
    for mod in [importlib.import_module("arbordyn")] + list(modules.values()):
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and obj in replaced:
                setattr(mod, name, replaced[obj])


def _wrap_class(recorder: Recorder, cls, prefix: str) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and attr not in DUNDERS:
            continue
        name = f"{prefix}.{attr}"
        if isinstance(val, staticmethod):
            setattr(cls, attr, staticmethod(recorder.wrap(val.__func__, name)))
        elif isinstance(val, classmethod):
            setattr(cls, attr, classmethod(recorder.wrap(val.__func__, name)))
        elif isinstance(val, FunctionType):
            setattr(cls, attr, recorder.wrap(val, name))


def _child_main(argv: list[str]) -> int:
    spans_file, job_id = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    import arbordyn.cli
    rec = Recorder()
    install(rec)
    try:
        return arbordyn.cli.main(cli_args)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"job": job_id, "names": rec.names,
                       "spans": [s for s in rec.spans if s is not None]}, fh)


# ---------------------------------------------------------------------------
# Parent side: aggregation
# ---------------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Aggregate:
    """Totals over the span files of one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.group_busy_ns: dict[str, int] = {}
        self.group_calls: dict[str, int] = {}
        self.factor_attempts = 0
        self.factor_complete = 0
        self.max_origin_bits = 0

    def add(self, doc: dict) -> None:
        names = doc["names"]
        spans = doc["spans"]
        name_of = [names[s[0]] for s in spans]
        layer_of = [_layer(n) for n in name_of]
        child_ns = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        for i, s in enumerate(spans):
            dur = s[2] - s[1]
            lay = layer_of[i]
            self.calls[lay] = self.calls.get(lay, 0) + 1
            self.self_ns[lay] = self.self_ns.get(lay, 0) + dur - child_ns[i]
            # busy: outermost span of this layer on its ancestor chain
            anc_layers, anc_names = set(), set()
            p = s[3]
            while p >= 0:
                anc_layers.add(layer_of[p])
                anc_names.add(name_of[p])
                p = spans[p][3]
            if lay not in anc_layers:
                self.busy_ns[lay] = self.busy_ns.get(lay, 0) + dur
            for g in GROUP_OF.get(name_of[i], ()):
                self.group_calls[g] = self.group_calls.get(g, 0) + 1
                if not anc_names.intersection(GROUPS[g]):
                    self.group_busy_ns[g] = self.group_busy_ns.get(g, 0) + dur
            if name_of[i] == "factorint.factor_integer" and s[4] is not None:
                self.factor_attempts += 1
                if s[4] != "composite_unfactored":
                    self.factor_complete += 1
            if name_of[i] in ORIGIN_SPANS and s[4] is not None:
                self.max_origin_bits = max(self.max_origin_bits, s[4])


# Metric group -> the span names it covers.
GROUPS = {
    "cli.emit": ("cli._emit",),
    "factorint.factor_integer": ("factorint.factor_integer",),
    "factorint.primes_below": ("factorint.primes_below",),
    "factorint.is_probable_prime": ("factorint.is_probable_prime",),
    "factorint.is_perfect_square": ("factorint.is_perfect_square",),
    "divisibility.f_sequence": ("divisibility.f_sequence",),
    "divisibility.theta": ("divisibility.theta",),
    "divisibility.verify_rigid_divisibility": ("divisibility.verify_rigid_divisibility",),
    "galois.integer_witness": ("galois.integer_witness",),
    "galois.maximality_certificate": ("galois.maximality_certificate",),
    "ratmap.origin_values": ORIGIN_SPANS,
    "intpoly.resultant": ("intpoly.resultant",),
    "critical.critical_points": ("critical.critical_points",),
    "critical.to_normal_form": ("critical.to_normal_form",),
    "reduction.bad_reduction_primes": ("reduction.bad_reduction_primes",),
}


GROUP_OF: dict[str, list[str]] = {}
for _g, _members in GROUPS.items():
    for _m in _members:
        GROUP_OF.setdefault(_m, []).append(_g)


def layer_metrics(agg: Aggregate) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from an Aggregate."""
    out: dict[str, tuple[float, str]] = {}
    s = 1e-9
    for lay in LAYERS:
        out[f"{lay}.calls"] = (agg.calls.get(lay, 0), "count")
        out[f"{lay}.busy_s"] = (agg.busy_ns.get(lay, 0) * s, "s")
        out[f"{lay}.self_s"] = (agg.self_ns.get(lay, 0) * s, "s")
    out["cli.emit_s"] = (agg.group_busy_ns.get("cli.emit", 0) * s, "s")
    for g in ("factorint.factor_integer", "factorint.is_probable_prime", "intpoly.resultant"):
        out[f"{g}.calls"] = (agg.group_calls.get(g, 0), "count")
    for g in GROUPS:
        if g != "cli.emit":
            out[f"{g}.busy_s"] = (agg.group_busy_ns.get(g, 0) * s, "s")
    ratio = agg.factor_complete / agg.factor_attempts if agg.factor_attempts else 1.0
    out["factorint.factor_integer.complete_ratio"] = (ratio, "ratio")
    out["ratmap.max_operand_bits"] = (agg.max_origin_bits, "bits")
    return out


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
