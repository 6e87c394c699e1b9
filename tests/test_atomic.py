"""Output files are replaced atomically: a writer that fails part-way leaves
the previous file as it was and no temporary file behind."""

import os
import re
from types import SimpleNamespace

import pytest

from firesat.atomic import atomic_write, read_json, write_csv, write_json
from firesat.campaign import (
    CampaignResult,
    CampaignTotals,
    FireOutcome,
    write_campaign_json,
    write_fires_csv,
)
from firesat.errors import ValidationError
from firesat.grid import COLUMNS
from firesat.ingest import write_fires_catalog_csv, write_regions_csv
from firesat.placement import write_placement_csv, write_placement_json

OLD = "previous run\n"


class Interrupted(Exception):
    pass


def interrupted_after(*items):
    """Iterable that yields `items`, then raises Interrupted."""
    yield from items
    raise Interrupted


def failing_column():
    """Grid column whose values raise Interrupted after the first."""
    return SimpleNamespace(tolist=lambda: interrupted_after(1.0))


def totals() -> CampaignTotals:
    return CampaignTotals(*[0.0] * 9)


def result(seed=7, fires=()) -> CampaignResult:
    return CampaignResult("optimized", seed, 1, 0, 0, fires, totals())


OUTCOME = FireOutcome(0, 0, 1.0, 1.0, 0.5, 0.2, 3.0, False)

# Each writer with an input that makes it fail after it has started writing.
FAILING_WRITES = {
    "write_placement_csv": lambda path: write_placement_csv(
        SimpleNamespace(counts=interrupted_after(3, 4)), path
    ),
    "write_placement_json": lambda path: write_placement_json(
        SimpleNamespace(budget=2, deployed=2, counts=[1, object()]), path
    ),
    "write_campaign_json": lambda path: write_campaign_json(result(seed=object()), path),
    "write_fires_csv": lambda path: write_fires_csv(
        result(fires=interrupted_after(OUTCOME)), path
    ),
    "write_json": lambda path: write_json(path, {"a": 1, "b": object()}),
    "write_csv": lambda path: write_csv(path, ["a"], interrupted_after([1])),
    "write_regions_csv": lambda path: write_regions_csv(
        SimpleNamespace(**{name: failing_column() for name in COLUMNS}), path
    ),
    "write_fires_catalog_csv": lambda path: write_fires_catalog_csv(
        interrupted_after(), path
    ),
}


@pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
def test_failed_write_keeps_old_file(tmp_path, writer):
    path = tmp_path / "out.csv"
    path.write_text(OLD)
    with pytest.raises((Interrupted, TypeError)):  # a deleted writer's AttributeError fails
        FAILING_WRITES[writer](path)
    assert path.read_text() == OLD
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_write_creates_no_file(tmp_path):
    with pytest.raises(Interrupted):
        with atomic_write(tmp_path / "new.txt") as f:
            f.write("partial")
            raise Interrupted
    assert os.listdir(tmp_path) == []


def test_write_replaces_content(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text(OLD)
    with atomic_write(path, newline="") as f:
        f.write("a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_file_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w") as f:
        f.write("x")
    atomic = tmp_path / "atomic.txt"
    with atomic_write(atomic) as f:
        f.write("x")
    assert os.stat(atomic).st_mode == os.stat(plain).st_mode


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1E999"])
def test_read_json_rejects_non_finite_numbers(tmp_path, token):
    # Python's json module reads NaN and Infinity, which are not JSON, and
    # turns a number past the float range into an infinity.
    path = tmp_path / "in.json"
    path.write_text(f'{{"a": [1, 2.5, {token}]}}')
    message = f"{path}: not valid JSON: {token} is not a finite number"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        read_json(path)
