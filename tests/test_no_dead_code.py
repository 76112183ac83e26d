"""Every named definition in the library is used somewhere.

Each module-level function and class, and each non-dunder method, of
src/arbordyn must be referenced as an identifier in src/arbordyn, tests/ or
a code block of README.md: a name, an attribute, or an imported name.  Words
in strings, comments and docstrings do not count, nor does the definition.

Each name a module of src/arbordyn imports at module level must be used in
that module, unless the import is a deliberate re-export marked
``# noqa: F401``.

Each name in a ``__slots__`` tuple of src/arbordyn must be read as an
attribute (``obj.name`` in a load) in src/arbordyn or tests/; a slot that is
only ever set is stale.

Each module-level function and class of src/arbordyn must be reached from a
command: from the functions that cli.COMMANDS names, cli.main, and the
module-level statements, through the names each reached definition reads.
The exceptions, and why each stays, are the table AWAITING.  The paper's
claims that no command checks are tested through tests/paper_checks.py.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "arbordyn"

# Definitions that no command reaches yet, each kept for a reason: the open
# ROADMAP item that puts it on a command path or moves it into
# tests/paper_checks.py (as the congruence route of item 9 was moved), the
# verifier of a command's output, or the only caller of fieldpoly, the layer
# that perfbench/tracing.py must find a public function in.
AWAITING = {
    "verify_certificate": "ROADMAP item 3",
    "certificate_from_dict": "ROADMAP item 3",
    "orbit_mod_p": "ROADMAP item 5",
    "mod_p_irreducible_witness": "ROADMAP item 6",
    "verify_normal_form": "verifier",
    "ramification_index": "traced layer",
}
REASONS = {"ROADMAP item 3", "ROADMAP item 5", "ROADMAP item 6", "verifier", "traced layer"}


def defined_names(tree: ast.Module) -> set[str]:
    defs = (ast.FunctionDef, ast.ClassDef)
    names = set()
    for node in tree.body:
        if isinstance(node, defs):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, defs) and not item.name.startswith("__"))
    return names


def referenced_names(tree: ast.AST) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return refs


def readme_code() -> list[str]:
    """The README's fenced code blocks that parse as Python."""
    blocks = re.findall(r"^```\w*\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    out = []
    for block in blocks:
        try:
            ast.parse(block)
        except SyntaxError:
            continue
        out.append(block)
    return out


def test_every_definition_is_referenced():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    refs = Counter()
    for source in [path.read_text() for path in paths] + readme_code():
        refs.update(referenced_names(ast.parse(source)))
    names = set()
    for path in SRC.glob("*.py"):
        names |= defined_names(ast.parse(path.read_text()))
    assert sorted(name for name in names if not refs[name]) == []


def test_a_name_only_in_strings_does_not_count():
    source = '"""ghost is mentioned here."""\nx = "ghost"\n# ghost\nused.attr\n'
    refs = referenced_names(ast.parse(source))
    assert refs["ghost"] == 0 and refs["used"] == 1 and refs["attr"] == 1


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that it never
    reads, skipping ``__future__`` and statements marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read)


def test_every_import_is_used():
    unused = {path.name: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json\nfrom a import b, c as d\n"
              "from e import f  # noqa: F401\n"
              "json.dumps(d)\n")
    assert unused_imports(source) == ["b", "os"]


def slot_names(tree: ast.AST) -> set[str]:
    """The string names of every ``__slots__ = (...)`` assignment."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
                and isinstance(node.value, (ast.Tuple, ast.List))):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return names


def attributes_read(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_slot_is_read():
    slots, read = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= attributes_read(tree)
        if path.parent == SRC:
            slots |= slot_names(tree)
    assert slots
    assert sorted(slots - read) == []


def test_a_slot_only_set_is_stale():
    source = ('class A:\n    __slots__ = ("used", "stale")\n'
              '    def __init__(self):\n'
              '        object.__setattr__(self, "stale", None)\n'
              '        self.used = 1\n'
              '        print(self.used)\n')
    tree = ast.parse(source)
    assert slot_names(tree) == {"used", "stale"}
    assert slot_names(tree) - attributes_read(tree) == {"stale"}


def global_reads(node: ast.AST) -> set[str]:
    """The names ``node`` reads that may be module-level: every attribute, and
    every name it loads but binds nowhere inside (so not a parameter or local)."""
    attrs, loads, bound = set(), set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif isinstance(sub, ast.Name):
            (loads if isinstance(sub.ctx, ast.Load) else bound).add(sub.id)
    return attrs | (loads - bound)


def unreached(sources: dict[str, str], roots: set[str]) -> list[str]:
    """"module.name" of each top-level def and class in ``sources`` (module ->
    text) that no path reaches from ``roots``, the module-level statements
    (imports aside) and the module-level dunder hooks.  A name reaches every
    definition of that name, in any module."""
    defs: dict[str, list] = {}
    todo = set(roots)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((module, node))
                if node.name.startswith("__"):
                    todo.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= global_reads(node)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, node in defs.get(name, ()):
            todo |= global_reads(node) - reached
    return sorted(f"{module}.{name}" for name, found in defs.items() if name not in reached
                  for module, _ in found)


def test_every_definition_is_reached_by_a_command():
    from arbordyn.cli import COMMANDS

    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    roots = {spec[0] for spec in COMMANDS.values()} | {"main"}
    awaiting = {name.split(".")[1] for name in unreached(sources, roots)} & set(AWAITING)
    assert sorted(set(AWAITING) - awaiting) == []  # each is defined, and reached by no command
    assert set(AWAITING.values()) <= REASONS
    assert unreached(sources, roots | set(AWAITING)) == []


def test_a_definition_only_dead_code_reads_is_unreached():
    source = ('"""cmd ghost beta"""\n'
              'def cmd(x):\n    return helper(x).attr\n'
              'def helper(beta):\n    return beta\n'
              'def attr():\n    pass\n'
              'def beta():\n    pass\n'
              'def dead():\n    return ghost()\n'
              'def ghost():\n    return "cmd"\n'
              'TABLE = (listed,)\n'
              'def listed():\n    pass\n'
              'def __getattr__(name):\n    return hooked\n'
              'def hooked():\n    pass\n')
    assert unreached({"m": source}, {"cmd"}) == ["m.beta", "m.dead", "m.ghost"]
