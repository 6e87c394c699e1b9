"""The package's import layering: the region grid sits below every model
module, and only the entry points import the campaign."""

import ast
from pathlib import Path

import firesat

PACKAGE = Path(firesat.__file__).parent


def package_imports(path: Path) -> set[str]:
    """Names of the firesat modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from .x import y` names module x; `from . import x` names x.
            names = [node.module] if node.module else [alias.name for alias in node.names]
            names = [f"firesat.{name}" for name in names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
            if node.module == "firesat":
                names = [f"firesat.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("firesat."))
    return found


def test_grid_imports_only_errors_and_geo():
    assert package_imports(PACKAGE / "grid.py") <= {"errors", "geo"}


def test_only_entry_points_import_campaign():
    importers = {p.stem for p in PACKAGE.glob("*.py") if "campaign" in package_imports(p)}
    assert importers == {"cli", "__init__"}
