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

Each module-level function and class of src/arbordyn, and each method of a
reached class, must be reached from a command: from the functions that
cli.COMMANDS names, cli.main, and the module-level statements, through the
names each reached definition reads.  A reached class reaches only its
decorators, bases, class-level statements and dunder methods; any other
method is reached only when a reached path reads its name.  The exceptions,
and why each stays, are the table AWAITING.  The paper's claims that no
command checks, and reference versions of steps that no command takes, are
tests/paper_checks.py.

The Python sample of README.md runs, and gives the values its comments show.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "arbordyn"

# Definitions that no command reaches yet, each kept until the open ROADMAP
# item named: items 5 and 11 put it on a command path (orbit_mod_p in
# rigid-check, verify_normal_form in the planned `arbordyn verify`), items 6
# and 16 move it into the tests or delete it.  The names only these read stay
# reached through them: ModOrbit, BadReductionError, IntPoly.reverse,
# NormalForm.form_pair, and the modules ffpoly and fieldpoly.
AWAITING = {
    "orbit_mod_p": "ROADMAP item 5",
    "mod_p_irreducible_witness": "ROADMAP item 6",
    "verify_normal_form": "ROADMAP item 11",
    "ramification_index": "ROADMAP item 16",
}
REASONS = {"ROADMAP item 5", "ROADMAP item 6", "ROADMAP item 11", "ROADMAP item 16"}

DEFS = (ast.FunctionDef, ast.ClassDef)


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, DEFS):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, DEFS) and not item.name.startswith("__"))
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


def class_reads(node: ast.ClassDef) -> set[str]:
    """What reaching a class reads: its decorators, bases and keywords, and
    its class-level statements; not its methods."""
    parts = node.decorator_list + node.bases + node.keywords
    parts += [item for item in node.body if not isinstance(item, DEFS)]
    return set().union(*map(global_reads, parts))


def unreached(sources: dict[str, str], roots: set[str]) -> list[str]:
    """"module.name" of each top-level def and class, and "module.Class.name"
    of each method of a reached class, in ``sources`` (module -> text) that no
    path reaches from ``roots`` and the module-level statements (imports
    aside).

    A name read on a reached path reaches every top-level definition of that
    name, in any module, and every method of that name in a reached class.
    Dunders need no read: a module's are reached with it, a class's with the
    class.  A reached class reaches only class_reads(class) beyond them.
    """
    defs = []  # (label, name, node, the label of its class or None)
    reads = set(roots)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, DEFS):
                label = f"{module}.{node.name}"
                defs.append((label, node.name, node, None))
                if isinstance(node, ast.ClassDef):
                    defs += [(f"{label}.{item.name}", item.name, item, label)
                             for item in node.body if isinstance(item, DEFS)]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reads |= global_reads(node)
    live = set()
    grew = True
    while grew:
        grew = False
        for label, name, node, owner in defs:
            if (label not in live and (owner is None or owner in live)
                    and (name in reads or name.startswith("__"))):
                live.add(label)
                reads |= class_reads(node) if isinstance(node, ast.ClassDef) else global_reads(node)
                grew = True
    return sorted(label for label, _, _, owner in defs
                  if label not in live and (owner is None or owner in live))


def test_every_definition_is_reached_by_a_command():
    from arbordyn.cli import COMMANDS

    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    roots = {spec[0] for spec in COMMANDS.values()} | {"main"}
    awaiting = {name.rsplit(".", 1)[1] for name in unreached(sources, roots)} & set(AWAITING)
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
              'def hooked():\n    pass\n'
              'class Box:\n    SIZE = sized()\n'
              '    def __init__(self):\n        self.v = inner()\n'
              '    def used(self):\n        return 1\n'
              '    def spare(self):\n        return 2\n'
              'def sized():\n    pass\n'
              'def inner():\n    pass\n'
              'def cmd2():\n    return Box().used()\n'
              'def dead2():\n    return Box().spare()\n'
              'class Shelf:\n    def used(self):\n        return 3\n')
    assert unreached({"m": source}, {"cmd", "cmd2"}) == [
        "m.Box.spare", "m.Shelf", "m.beta", "m.dead", "m.dead2", "m.ghost"]


def test_the_readme_sample_runs():
    shown, names = {}, {}
    for block in readme_code():
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):  # a line whose comment shows its value
                code = compile(ast.Expression(stmt.value), "README.md", "eval")
                shown[ast.unparse(stmt.value)] = eval(code, names)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), names)
    image = shown["phi(P1Point.of(0))"]  # the point at infinity of P^1(Q)
    assert image.is_infinity and str(image) == "inf"
    nf = names["nf"]
    assert (nf.kind, nf.a, nf.b) == ("bicritical", -98, 0)
    assert names["cert"].overall == "all_maximal"
    assert shown["verify_rigid_divisibility(terms, exclude=[2, 7]).status"] == "pass"
