"""Every named definition in the library is used somewhere.

Each module-level function and class, and each non-dunder method, of
src/arbordyn must occur at least twice across src/arbordyn, tests/ and
README.md; its own definition is one occurrence.
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


def test_every_definition_is_referenced():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    words = Counter()
    for path in paths + [ROOT / "README.md"]:
        words.update(re.findall(r"\w+", path.read_text()))
    names = set()
    for path in SRC.glob("*.py"):
        names |= defined_names(ast.parse(path.read_text()))
    assert sorted(name for name in names if words[name] < 2) == []
