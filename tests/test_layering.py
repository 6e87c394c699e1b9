"""The package's layering: the region grid sits below every model module,
only the entry points import the campaign, and only `atomic` writes or
reads CSV and JSON itself."""

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


def data_file_calls(path: Path) -> set[str]:
    """The data-file primitives a source file names, imported or dotted."""
    primitives = {"csv.writer", "csv.DictReader", "json.dump", "atomic_write"}
    named = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            named.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            named.update(f"{node.module}.{alias.name}" for alias in node.names)
            named.update(alias.name for alias in node.names)
    return named & primitives


def test_only_atomic_writes_and_reads_data_files():
    users = {p.stem for p in PACKAGE.glob("*.py") if data_file_calls(p)}
    assert users == {"atomic"}
