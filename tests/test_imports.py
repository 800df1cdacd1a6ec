"""No module of the package imports a name it does not use, unless the
import's first line or the name's own line carries `# noqa: F401` (a name
that another module looks up there). `__init__.py` imports to re-export."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "causalbandit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
NOQA = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if NOQA not in lines[node.lineno - 1] and NOQA not in lines[alias.lineno - 1]:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_name():
    source = ("from .model import (\n    FREE,\n    as_rng,\n)\n"
              "from .inference import Environment  # noqa: F401\n"
              "import numpy as np\n\nrng = as_rng(np.int8(0))\n")
    assert unused_imports(source) == ["FREE"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
