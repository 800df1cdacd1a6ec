"""The README's "Library surface" example runs as written, so every name it
imports from the package's top level stays there."""
import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
