"""`plan` and `simulate` on corrupted region and fire files: each run exits
0, 2 or 3, a failed run prints one error line, and no run leaves a
half-written output behind."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from firesat.cli import main
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
