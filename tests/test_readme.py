"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_python(heading: str) -> str:
    """The first ```python block under the README's `## heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_library_quick_start_runs(capsys):
    exec(compile(fenced_python("Library quick start"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("utility: ")
    assert "burned km2: " in out and "savings USD: " in out
