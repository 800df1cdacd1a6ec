"""No module of the package imports a name it does not use, unless the
name's own line carries `# noqa: F401`, and every name so marked is one that
the benchmark's tracer looks up there. `__init__.py` imports to re-export.
No test module imports a name it does not use, marked or not."""
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
