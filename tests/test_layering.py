"""The package's layering: the region grid sits below every model module,
only the entry points import the campaign, no module imports the CLI, only
`atomic` writes or reads CSV and JSON itself, every module uses what it
imports, every public function and class has a caller, only the
campaign's search kernel draws sensors and searches for the nearest, the
link chain names no numpy function that rounds differently from `math`,
and the package imports nothing but the standard library, numpy and
itself."""

import ast
import re
import sys
from pathlib import Path

import firesat

PACKAGE = Path(firesat.__file__).parent
# The benchmark's files that call or wrap firesat functions by name.
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_FILES = [BENCH / "worker.py", BENCH / "tracing.py"]


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


def test_no_module_imports_cli():
    assert {p.stem for p in PACKAGE.glob("*.py") if "cli" in package_imports(p)} == set()


def data_file_calls(path: Path) -> set[str]:
    """The data-file primitives a source file names, imported or dotted."""
    primitives = {
        "csv.writer", "csv.reader", "csv.DictReader",
        "json.dump", "json.dumps", "json.load", "json.loads", "atomic_write",
        "np.loadtxt", "np.genfromtxt", "np.savetxt",
    }
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


# Imported only so that perfbench/tracing.py can wrap them by name where it
# looks them up (ROADMAP item 7); the modules themselves never use them.
TRACED_ONLY = {
    ("campaign", "GridFrame"),
    ("link_budget", "elevation_deg"),
    ("link_budget", "great_circle_km"),
    ("link_budget", "slant_range_km"),
}


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name a source file imports but never loads."""
    tree = ast.parse(path.read_text())
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    return sorted((line, name) for line, name in imported if name not in loaded)


def test_every_imported_name_is_used():
    found = {
        (p.stem, line, name)
        for p in PACKAGE.glob("*.py")
        if p.name != "__init__.py"
        for line, name in unused_imports(p)
    }
    unused = sorted(f"{m}:{line}:{name}" for m, line, name in found if (m, name) not in TRACED_ONLY)
    assert unused == []
    assert {(m, name) for m, _, name in found} == TRACED_ONLY


# Public names that no command reaches yet, and why each stays.
UNREACHED = {
    ("placement", "read_placement_json"): "ROADMAP item 8: `capacity --placement FILE` will read it",
}


def loaded(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """(name, node) of each name or attribute a source tree loads."""
    return [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def unreached_public_names() -> set[tuple[str, str]]:
    """(module, name) of each public top-level function or class that no
    module but `__init__` loads outside its own body, and that the
    benchmark's files do not name."""
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    loads = [load for tree in trees.values() for load in loaded(tree)]
    bench = "\n".join(p.read_text() for p in BENCH_FILES)
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = set(map(id, ast.walk(node)))
                called = any(name == node.name and id(load) not in own for name, load in loads)
                if not called and not re.search(rf"\b{node.name}\b", bench):
                    found.add((module, node.name))
    return found


def test_every_public_name_has_a_caller():
    assert sorted(unreached_public_names()) == sorted(UNREACHED)


def callers_of(names: set[str]) -> dict[str, set[str]]:
    """For each name, the `module.function` of every top-level function or
    class in the package whose body calls it, `module.<module>` for a call
    outside any."""
    found = {name: set() for name in names}
    for p in PACKAGE.glob("*.py"):
        for node in ast.parse(p.read_text()).body:
            where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in names:
                        found[name].add(f"{p.stem}.{where}")
    return found


def test_search_kernel_alone_draws_and_searches():
    # A change to the draw or the search stays inside campaign._nearest_by_trial,
    # and run_campaign resolves all trials at once, with no loop or running sum.
    kernel = {"campaign._nearest_by_trial"}
    assert callers_of({"_draw", "_lower_nearest"}) == {"_draw": kernel, "_lower_nearest": kernel}
    tree = ast.parse((PACKAGE / "campaign.py").read_text())
    (run,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_campaign"]
    assert [type(n).__name__ for n in ast.walk(run) if isinstance(n, (ast.For, ast.While, ast.AugAssign))] == []


# The scalar link chain and fading model. numpy's exp, log10, sin/cos, tanh
# and integer powers differ from math's in the last bit, so these functions
# may name only the numpy arithmetic that rounds as Python's does (ROADMAP
# "What stays scalar").
EXACT_CHAIN = {
    "geo": {"_view", "_haversine_km", "_geocentric_angle_rad", "_slant_range_km", "_elevation_deg"},
    "link_budget": {"antenna_gain_dbi", "_j01_asymptotic", "j1_j3", "beam_rolloff_factor", "fspl_db",
                    "_link_terms", "snr_db", "fading_params", "fading_pdf", "_hyp1f1_m1",
                    "_log_hyp1f1_m1_large"},
}
EXACT_NUMPY = {"add", "multiply", "empty", "arange", "errstate", "float64"}


def test_exact_chain_names_only_exact_numpy():
    found = {}
    for module, names in EXACT_CHAIN.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        # A name imported from numpy would escape the np.<name> check below.
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module
                    and n.module.split(".")[0] == "numpy"], module
        functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert names <= functions.keys(), f"{module}: {sorted(names - functions.keys())} moved"
        for name in names:
            numpy_names = {
                n.attr for n in ast.walk(functions[name])
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in ("np", "numpy")
            }
            if numpy_names - EXACT_NUMPY:
                found[f"{module}.{name}"] = sorted(numpy_names - EXACT_NUMPY)
    assert found == {}


def test_imports_only_stdlib_numpy_and_firesat():
    allowed = set(sys.stdlib_module_names) | {"numpy", "firesat"}
    found = {}
    for p in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], f"{p.name}:{node.lineno}")
    assert {top: where for top, where in found.items() if top not in allowed} == {}
