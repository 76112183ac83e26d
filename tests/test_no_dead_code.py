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
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "arbordyn"


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
