"""The README's code runs as written."""

import json
import re
import shlex
from pathlib import Path

import firesat
from firesat.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The text under the README's `## heading`, up to the next one."""
    return README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def fenced(heading: str, language: str = "python") -> str:
    """The first ```language block under the README's `## heading`."""
    return re.search(rf"```{language}\n(.*?)```", section(heading), re.S)[1]


def test_library_quick_start_runs(capsys):
    exec(compile(fenced("Library quick start"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("utility: ")
    assert "burned km2: " in out and "savings USD: " in out


def test_cli_block_runs(tmp_path):
    out = str(tmp_path / "out")
    for line in fenced("CLI", "bash").splitlines():
        command, *argv = shlex.split(line, comments=True)
        assert command == "firesat"
        argv = [out if flag == "--out" else a for flag, a in zip(["", *argv], argv)]
        assert main(argv) == 0, line
    assert sorted(json.loads((tmp_path / "out" / "report.json").read_text())["sources"]) == [
        "campaign_optimized.json",
        "campaign_uniform.json",
        "capacity.json",
        "linkbudget.json",
        "plan_summary.json",
    ]


def test_library_layout_has_one_row_per_module():
    rows = re.findall(r"^\| `firesat\.(\w+)` \|", section("Library layout"), re.M)
    package = Path(firesat.__file__).parent
    assert sorted(rows) == sorted(p.stem for p in package.glob("*.py") if p.name != "__init__.py")
