"""Source guard: the package re-exports exactly each module's ``__all__``.

``jjaging/__init__.py`` imports the public names module by module.  A name
removed from a module's ``__all__`` but not from the re-exports (or the
reverse) leaves the two lists disagreeing about what is public.  The one
named exception is ``dataio.TOOL_VERSION``, re-exported as ``__version__``.
"""

import ast
import importlib
from pathlib import Path

import jjaging

INIT = Path(jjaging.__file__)
RENAMED = {("dataio", "TOOL_VERSION"): "__version__"}


def reexports() -> dict[str, set[str]]:
    """Module name -> the names ``__init__.py`` imports from it, by their
    names in the module."""
    found: dict[str, set[str]] = {}
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                assert RENAMED.get((node.module, alias.name), alias.name) == (
                    alias.asname or alias.name)
                found.setdefault(node.module, set()).add(alias.name)
    return found


def test_reexports_equal_each_modules_all():
    found = reexports()
    assert set(found) == {p.stem for p in INIT.parent.glob("*.py")
                          if "__all__" in p.read_text(encoding="utf-8")}
    for name, names in found.items():
        module = importlib.import_module(f"jjaging.{name}")
        public = set(module.__all__)
        assert len(public) == len(module.__all__), name
        assert names - {n for m, n in RENAMED if m == name} == public, name
        for n in public:
            assert getattr(jjaging, n) is getattr(module, n), (name, n)
    assert jjaging.__version__ is jjaging.dataio.TOOL_VERSION
