"""The packaging metadata against the package: the tests import the package
from its source tree, so only these check what `pip install` ships."""

import importlib
from pathlib import Path, PurePosixPath

import pytest

import firesat
import firesat.cli

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(firesat.__file__).parent


def metadata() -> dict:
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)


def test_console_script_resolves_to_cli_main():
    module, _, name = metadata()["project"]["scripts"]["firesat"].partition(":")
    assert getattr(importlib.import_module(module), name) is firesat.cli.main


def test_every_data_file_matches_a_package_data_glob():
    globs = metadata()["tool"]["setuptools"]["package-data"]["firesat"]
    files = [p.relative_to(PACKAGE).as_posix() for p in sorted((PACKAGE / "data").rglob("*")) if p.is_file()]
    assert files
    assert [f for f in files if not any(PurePosixPath(f).match(glob) for glob in globs)] == []
