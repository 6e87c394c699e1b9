"""`plan` and `simulate` on corrupted region and fire files, and every
command that reads the config on extreme config values: each run exits 0, 2
or 3, a failed run prints one error line, no run leaves a half-written
output behind, and no output of a run that exits 0 holds a non-finite number."""

import contextlib
import csv
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from firesat.cli import main
from firesat.config import RunConfig
from firesat.geo import GeoPoint
from firesat.grid import FireEvent, RegionGrid
from firesat.ingest import write_fires_catalog_csv, write_regions_csv

from conftest import sample_config_text

SIDE = 5  # cells per grid row and column


@pytest.fixture(scope="module")
def clean_files() -> dict[str, bytes]:
    """A small valid region grid and fire catalog, as file bytes."""
    rng = np.random.default_rng(3)
    n = SIDE * SIDE
    lat = 36.0 + 0.09 * (np.arange(n) // SIDE)
    lon = -120.0 + 0.11 * (np.arange(n) % SIDE)
    grid = RegionGrid(
        lat, lon, rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 0.5, n),
        rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n), rng.uniform(0.1, 2.0, n),
        cell_area_km2=100.0,
    )
    fires = [
        FireEvent(fid, GeoPoint(float(lat[cell]), float(lon[cell])), cell, float(area))
        for fid, (cell, area) in enumerate(zip(range(0, n, 3), rng.uniform(1.0, 300.0, n)))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        write_regions_csv(grid, Path(tmp) / "regions.csv")
        write_fires_catalog_csv(fires, Path(tmp) / "fires.csv")
        return {name: (Path(tmp) / name).read_bytes() for name in ("regions.csv", "fires.csv")}


@st.composite
def corruptions(draw, data: bytes) -> bytes:
    """`data` after one to three of: truncation, stray non-UTF-8 bytes, a
    byte-order mark, CRLF line ends, a repeated header line."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "bytes", "bom", "crlf", "header"]))
        if kind == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        elif kind == "bytes":
            at = draw(st.integers(0, len(data)))
            stray = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]))
            data = data[:at] + stray + data[at:]
        elif kind == "bom":
            data = b"\xef\xbb\xbf" + data
        elif kind == "crlf":
            data = data.replace(b"\n", b"\r\n")
        else:
            header = data.split(b"\n", 1)[0] + b"\n"
            data = header + data
    return data


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["regions.csv", "fires.csv"]), st.data())
def test_corrupted_inputs_fail_cleanly(clean_files, target, data):
    files = dict(clean_files)
    files[target] = data.draw(corruptions(files[target]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in files.items():
            (root / name).write_bytes(content)
        config = root / "config.cfg"
        config.write_text(sample_config_text())
        for argv in (
            ["plan", "--budget", "20"],
            ["simulate", "--budget", "20", "--trials", "2"],
        ):
            out = root / f"out_{argv[0]}"
            code, err = run([*argv, "--config", str(config), "--out", str(out)])
            assert code in (0, 2, 3)
            written = sorted(p.name for p in out.iterdir())
            assert not [name for name in written if name.startswith(".")]
            if code:
                assert len(err.splitlines()) == 1 and "error: " in err
                assert written == []


# Every config key read as a number, and the values each is set to in turn;
# None drops the key.
NUMERIC_KEYS = [f.metadata["key"] for f in fields(RunConfig) if not f.type.startswith("Path")]
EXTREME_VALUES = ["nan", "inf", "1e308", "-1e308", "0", "-1", "word", None]
CONFIG_COMMANDS = (
    ["linkbudget", "--lat", "37", "--lon", "-120"],
    ["capacity"],
    ["plan"],
    ["simulate"],
)

# (key, value, command) runs that must warn, and the warning they give.
EXPECTED_WARNINGS = {
    ("traffic.sessions_per_day", "0", "capacity"):
        "^zero session rate supports unboundedly many devices; returning cap$",
}


def config_with(text: str, key: str, value: str | None) -> str:
    """`text` with `key` set to `value`, or without `key` when value is None."""
    lines = [line for line in text.splitlines() if line.partition("=")[0].strip() != key]
    if value is not None:
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_root(clean_files, tmp_path_factory) -> Path:
    """The clean data files, beside which each test writes its config."""
    root = tmp_path_factory.mktemp("config_fuzz")
    for name, content in clean_files.items():
        (root / name).write_bytes(content)
    return root


def non_finite(path: Path) -> set[str]:
    """The non-finite numbers written in a JSON or CSV output file."""
    found: set[str] = set()
    with open(path, newline="") as f:
        if path.suffix == ".json":
            json.load(f, parse_constant=found.add)  # called for Infinity, -Infinity, NaN
        else:
            found.update(cell for row in csv.reader(f) for cell in row)
            found &= {"inf", "-inf", "nan"}
    return found


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_extreme_config_values_fail_cleanly(fuzz_root, key):
    base = config_with(config_with(sample_config_text(), "plan.budget", "20"), "campaign.trials", "2")
    config = fuzz_root / f"{key}.cfg"
    for i, value in enumerate(EXTREME_VALUES):
        config.write_text(config_with(base, key, value))
        for argv in CONFIG_COMMANDS:
            out = fuzz_root / f"out_{key}_{i}_{argv[0]}"
            out.mkdir()
            warning = EXPECTED_WARNINGS.get((key, value, argv[0]))
            with pytest.warns(UserWarning, match=warning) if warning else contextlib.nullcontext():
                code, err = run([*argv, "--config", str(config), "--out", str(out)])
            case = f"{key} = {value}: {argv[0]} exited {code}: {err}"
            assert code in (0, 2, 3), case
            assert code == 0 or (len(err.splitlines()) == 1 and "error: " in err), case
            assert not [p.name for p in out.iterdir() if p.name.startswith(".")], case
            if code == 0:
                assert not {p.name: non_finite(p) for p in out.iterdir() if non_finite(p)}, case
