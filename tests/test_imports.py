"""No module of the package imports a name it does not use, unless the
name's own line carries `# noqa: F401`, and every name so marked is one that
the benchmark's tracer looks up there. `__init__.py` imports to re-export.
No test module imports a name it does not use, marked or not. Every private
name the package defines is used by the package, so a helper only tests call
lives in the tests."""
import ast
from pathlib import Path

import pytest

from test_trace_points import load_tracer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "causalbandit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
NOQA = "# noqa: F401"


def imports(source: str) -> list[tuple[str, bool]]:
    """Each imported name, and whether its own line carries the marker."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            out.append((alias.asname or alias.name.split(".")[0],
                        NOQA in lines[alias.lineno - 1]))
    return out


def unused_imports(source: str) -> list[str]:
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [name for name, marked in imports(source) if not marked and name not in used]


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` of each private module-level name or method defined in
    `sources` that no code there reads outside its own definition."""
    defined, used = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node] + [m for m in inner if isinstance(m, ast.FunctionDef)]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    names = [item.name]
                else:
                    targets = getattr(item, "targets", [getattr(item, "target", None)])
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined.extend((module, name, item.lineno, item.end_lineno)
                               for name in names if is_private(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.append((module, node.attr, node.lineno))
    return [f"{module}:{name}" for module, name, first, last in defined
            if not any(u == name and not (m == module and first <= line <= last)
                       for m, u, line in used)]


def test_the_private_name_check_finds_a_name_only_its_definition_reads():
    sources = {"a.py": "def _loop(n):\n    return _loop(n - 1)\n\n_KEPT = 1\n_LOST = 2\n\n"
                       "class Table:\n    def _spare(self):\n        return self._spare\n\n"
                       "    def _used(self):\n        return _KEPT\n",
               "b.py": "from a import Table\n\nTable()._used()\n"}
    assert unused_private_names(sources) == ["a.py:_loop", "a.py:_LOST", "a.py:_spare"]


def test_every_private_name_of_the_package_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_the_check_finds_an_unused_name():
    source = ("from .model import (  # noqa: F401\n    FREE,\n    as_rng,\n)\n"
              "from .inference import sample_batch  # noqa: F401\n"
              "import numpy as np\n\nrng = as_rng(np.int8(0))\n")
    assert unused_imports(source) == ["FREE"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_every_test_module_uses_its_imports(module):
    source = (TESTS / module).read_text()
    assert unused_imports(source) == [] and not any(marked for _, marked in imports(source))


def test_every_marked_import_is_a_trace_point():
    points = {(module, attribute) for module, attribute, _ in load_tracer().TRACE_POINTS}
    marked = {(module[:-3], name) for module in MODULES
              for name, noqa in imports((PACKAGE / module).read_text()) if noqa}
    assert marked and marked <= points
