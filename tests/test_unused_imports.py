"""Source guard: no module of the package imports a name it never uses.

No linter runs on this repository, and a deleted function easily leaves its
imports behind.  ``__init__.py`` is exempt: its imports are the re-exports.
"""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "jjaging"


def _annotation_names(node):
    """Names in an annotation, including those inside a string annotation."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield from _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each imported name that the module never references
    and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in imported.items()
                  if name not in used | exported)


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in SOURCES.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8   # the guard still sees the package
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_guard_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Sequence, Mapping\n"
        "from .model import AgingParams\n"
        "__all__ = ['AgingParams']\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [("Mapping", 3), ("os", 2)]
