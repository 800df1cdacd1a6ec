"""The README's "Library surface" example runs as written, so every name it
imports from the package's top level stays there, and every dotted name it
cites in backticks from the package still resolves."""
import contextlib
import dataclasses
import importlib
import io
import math
import pathlib
import re

import causalbandit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = {p.stem for p in pathlib.Path(causalbandit.__file__).parent.glob("*.py")}


def test_library_surface_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library surface"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from causalbandit import" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    regret, gamma = (float(line) for line in out.getvalue().split())
    assert 0.0 <= regret <= 1.0
    assert math.isfinite(gamma) and gamma > 0.0


def resolves(obj, parts) -> bool:
    """Whether the attribute path resolves; a dataclass field without a
    class attribute may end it."""
    for k, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            return (k == len(parts) - 1 and dataclasses.is_dataclass(obj)
                    and part in {f.name for f in dataclasses.fields(obj)})
    return True


def test_dotted_names_resolve():
    """A backticked dotted name whose head is a package module, such as
    `allocation.vote_share`, or a top-level export, such as
    `Phase1Result.reach`, names an attribute or a dataclass field. Other
    heads, such as `np.dot` or `pyproject.toml`, are not checked."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    checked, broken = [], []
    for span in re.findall(r"`([^`]+)`", text):
        for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            head, *parts = name.split(".")
            if head in MODULES:
                obj = importlib.import_module(f"causalbandit.{head}")
            elif hasattr(causalbandit, head):
                obj = getattr(causalbandit, head)
            else:
                continue
            checked.append(name)
            if not resolves(obj, parts):
                broken.append(name)
    assert len(checked) >= 15  # the pattern still finds the README's names
    assert broken == []
