"""The column-wise CSV reader against the row-by-row reference.

Every data file is read by `firesat.atomic.read_csv`: rows whose field count
differs from the header's are rejected, and errors name the physical line a
row starts on. Apart from those two, region ingest must give the reference's
grid bit for bit, or its error text.
"""

import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from firesat.cli import main
from firesat.errors import ValidationError
from firesat.ingest import REGION_FIELDS, ingest_fires, ingest_regions
from firesat.link_budget import load_mcs_table
from firesat.placement import read_placement_csv

import ingest_reference
from conftest import CFG, DATA_DIR, sample_config_text

AREA = CFG.cell_area_km2
HEADER = ",".join(REGION_FIELDS) + "\n"
GOOD = "0,36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n"


def error_of(fn, *args) -> str:
    with pytest.raises(ValidationError) as info:
        fn(*args)
    return str(info.value)


class TestFieldCount:
    def test_extra_region_field_rejected(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + GOOD + "1,36.0,-120.0,1,000.5,0.1,0.0,0.5,0.5\n")
        # The reference loads it, every value after biomass shifted one column.
        assert len(ingest_reference.ingest_regions(path, AREA)) == 2
        assert error_of(ingest_regions, path, AREA) == f"{path}:3: expected 8 fields, got 9"

    def test_short_region_row_rejected(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + "0,36.0,-120.0\n")
        assert error_of(ingest_regions, path, AREA) == f"{path}:2: expected 8 fields, got 3"

    def test_extra_placement_field_rejected(self, tmp_path):
        path = tmp_path / "placement.csv"
        path.write_text("region_id,n_sensors\n0,5,7\n")
        assert error_of(read_placement_csv, path) == f"{path}:2: expected 2 fields, got 3"

    def test_extra_mcs_field_rejected(self, tmp_path):
        path = tmp_path / "mcs.csv"
        path.write_text("min_snr_db,mcs_level,ru_per_20_bytes\n-0.45,5,3,1\n")
        assert error_of(load_mcs_table, path) == f"{path}:2: expected 3 fields, got 4"

    def test_extra_field_exits_2(self, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text(HEADER + "0,36.0,-120.0,1,000.5,0.1,0.0,0.5,0.5\n")
        (tmp_path / "fires.csv").write_text("fire_id,lat,lon,recorded_area_km2\n")
        config = tmp_path / "config.cfg"
        config.write_text(sample_config_text())
        assert main(["plan", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {regions}:2: expected 8 fields, got 9\n"


class TestPrecedence:
    def test_fire_point_checked_before_its_area(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv", AREA)
        path = tmp_path / "fires.csv"
        path.write_text("fire_id,lat,lon,recorded_area_km2\n\n0,100.0,-120.0,abc\n")
        assert error_of(ingest_fires, path, grid) == f"{path}:3: latitude 100.0 outside [-90, 90]"
        path.write_text("fire_id,lat,lon,recorded_area_km2\n0,x,-120.0,abc\n")
        assert error_of(ingest_fires, path, grid) == (
            f"{path}:2: malformed row: could not convert string to float: 'x'"
        )

    FIRE = "fire_id,lat,lon,recorded_area_km2\n0,37.156387,-118.339823,117.386489\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,37.39624,-118.432896,abc", "malformed row: could not convert string to float: 'abc'"),
            ("0,100.0,-118.432896,39.436035", "latitude 100.0 outside [-90, 90]"),
            ("0,37.39624,-118.432896,39.436035,1", "expected 4 fields, got 5"),
        ],
        ids=["area", "point", "width"],
    )
    def test_fire_row_fault_wins_over_its_repeated_id(self, tmp_path, row, message):
        grid = ingest_regions(DATA_DIR / "regions.csv", AREA)
        path = tmp_path / "fires.csv"
        path.write_text(self.FIRE + row + "\n")
        assert error_of(ingest_fires, path, grid) == f"{path}:3: {message}"

    def test_earlier_duplicate_wins_over_later_malformed_row(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + GOOD + GOOD + "x" + GOOD)
        assert error_of(ingest_regions, path, AREA) == f"{path}:3: duplicate region id 0"

    def test_earlier_malformed_row_wins_over_later_duplicate(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + GOOD + "x" + GOOD + GOOD)
        assert error_of(ingest_regions, path, AREA) == (
            f"{path}:3: malformed row: invalid literal for int() with base 10: 'x0'"
        )


    def test_earlier_malformed_row_wins_over_a_later_undecodable_byte(self, tmp_path):
        # The bad byte lies past the first 8 KB of text but in the same chunk
        # of rows, so the row-by-row reader saw the malformed row first.
        path = tmp_path / "regions.csv"
        rows = [f"{i},36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n" for i in range(400)]
        rows[1] = "1,36.0,-120.0,bad,0.1,0.0,0.5,0.5\n"
        path.write_bytes((HEADER + "".join(rows)).encode() + b"\xff\n")
        expected = f"{path}:3: malformed row: could not convert string to float: 'bad'"
        assert error_of(ingest_reference.ingest_regions, path, AREA) == expected
        assert error_of(ingest_regions, path, AREA) == expected

    def test_placement_gap_wins_over_a_later_malformed_row(self, tmp_path):
        path = tmp_path / "placement.csv"
        path.write_text("region_id,n_sensors\n1,1\nx,1\n")
        assert error_of(read_placement_csv, path) == (
            f"{path}:2: region ids must be consecutive from 0"
        )

    def test_mcs_row_check_wins_over_a_later_malformed_row(self, tmp_path):
        path = tmp_path / "mcs.csv"
        path.write_text("min_snr_db,mcs_level,ru_per_20_bytes\nnan,5,3\nx,1,1\n")
        assert error_of(load_mcs_table, path) == f"{path}:2: min_snr_db must be finite, got nan"

    @pytest.mark.parametrize(
        "reader, text, reason",
        [
            (read_placement_csv, "region_id,n_sensors\n0,1\n1,x\n",
             "invalid literal for int() with base 10: 'x'"),
            (load_mcs_table, "min_snr_db,mcs_level,ru_per_20_bytes\n-0.45,5,3\nx,6,2\n",
             "could not convert string to float: 'x'"),
        ],
        ids=["placement", "mcs"],
    )
    def test_every_reader_names_a_malformed_row(self, tmp_path, reader, text, reason):
        path = tmp_path / "data.csv"
        path.write_text(text)
        assert error_of(reader, path) == f"{path}:3: malformed row: {reason}"


class TestPhysicalLine:
    def test_blank_lines_count(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + GOOD + "\n\n" + "1,36.1,-120.0,oops,0.1,0.0,0.5,0.5\n")
        assert error_of(ingest_regions, path, AREA).startswith(f"{path}:5: malformed row: ")
        assert error_of(ingest_reference.ingest_regions, path, AREA).startswith(f"{path}:3: ")

    def test_quoted_line_breaks_count(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(
            HEADER + '0,36.0,-120.0,"1.0\n\n",0.1,0.0,0.5,0.5\n'
            "1,36.1,-120.0,1.0,0.1,0.0,0.5,bad\n"
        )
        assert error_of(ingest_regions, path, AREA).startswith(f"{path}:5: malformed row: ")

    def test_row_with_quoted_line_break_named_by_its_first_line(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + GOOD + '1,36.1,-120.0,"1.0\nx",0.1,0.0,0.5,0.5\n')
        assert error_of(ingest_regions, path, AREA) == (
            f"{path}:3: malformed row: could not convert string to float: '1.0\\nx'"
        )

    def test_duplicate_id_names_its_line(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + GOOD + "\r\n" + GOOD)
        assert error_of(ingest_regions, path, AREA) == f"{path}:4: duplicate region id 0"

    def test_placement_gap_names_its_line(self, tmp_path):
        path = tmp_path / "placement.csv"
        path.write_text("region_id,n_sensors\n\n0,1\n2,1\n")
        assert error_of(read_placement_csv, path) == (
            f"{path}:4: region ids must be consecutive from 0"
        )

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_lines_from_a_pipe(self):
        # A pipe can be read only once: the line must come from that one pass.
        text = HEADER + GOOD + "\n\n" + "1,36.1,-120.0,oops,0.1,0.0,0.5,0.5\n"
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode())
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            assert error_of(ingest_regions, path, AREA).startswith(f"{path}:5: malformed row: ")
        finally:
            os.close(read_end)

    def test_oversized_field_names_its_line(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + GOOD + 'x"' + "a" * 140_000 + "\n")
        assert error_of(ingest_regions, path, AREA).startswith(f"{path}:3: field larger than field limit")


# Sizes around the reader's chunk of 1024 rows.
SIZES = [1, 2, 7, 1023, 1024, 1025, 2049]

CORRUPTIONS = [
    "none", "bad_float", "empty_float", "bad_id", "float_id", "duplicate_id", "gap",
    "extra_field", "short_row", "out_of_range", "non_finite", "undecodable", "header",
]


def region_values(rng: np.random.Generator, n: int) -> list[list[float]]:
    """Valid column values of n regions, with some signed and subnormal zeros."""
    values = np.column_stack(
        [
            rng.uniform(-89.0, 89.0, n),
            rng.uniform(-400.0, 400.0, n),
            rng.uniform(0.0, 3.0, n),
            rng.uniform(-0.1, 0.6, n),
            rng.uniform(0.0, 2.0, n),
            rng.uniform(0.0, 1.0, n),
            rng.uniform(0.0, 3.0, n),
        ]
    ).tolist()
    for row in values:
        if rng.random() < 0.05:
            row[int(rng.integers(0, 7))] = float(rng.choice([-0.0, 0.0, 5e-324, 2.2e-310]))
    return values


def fmt_float(x: float, style: int) -> str:
    return [repr(x), f"{x:.17e}", f" {x!r} ", f"{x:.6g}"][style]


def fmt_id(i: int, style: int) -> str:
    return [str(i), f"+{i}", f" {i}", f"{i:04d}"][style]


@st.composite
def region_files(draw):
    """(bytes, physical line of each data row, corruption, corrupted row) of a region CSV."""
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    quote = draw(st.booleans())
    style = draw(st.integers(0, 3))
    ids = rng.permutation(n).tolist() if draw(st.booleans()) else list(range(n))
    rows = [
        [fmt_id(rid, style)] + [fmt_float(x, style) for x in values]
        for rid, values in zip(ids, region_values(rng, n))
    ]
    corruption = draw(st.sampled_from(CORRUPTIONS))
    k = draw(st.integers(0, n - 1))
    field = draw(st.integers(1, 7))
    header = list(REGION_FIELDS)
    if corruption == "bad_float":
        rows[k][field] = "1.5x"
    elif corruption == "empty_float":
        rows[k][field] = ""
    elif corruption == "bad_id":
        rows[k][0] = "seven"
    elif corruption == "float_id":
        rows[k][0] = "1.0"
    elif corruption == "duplicate_id" and n > 1:
        rows[k][0] = rows[(k + 1) % n][0]
    elif corruption == "gap":
        rows[k][0] = str(n + 3)
    elif corruption == "extra_field":
        rows[k].insert(field, "0.5")
    elif corruption == "short_row":
        del rows[k][field:]
    elif corruption == "out_of_range":
        rows[k][field] = {1: "90.5", 6: "1.5"}.get(field, "-1.0")
    elif corruption == "non_finite":
        rows[k][field] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif corruption == "header":
        header[field] = "x"
    # Runs of blank lines before some rows; a run of 2 047 holds a whole chunk.
    blanks = draw(
        st.dictionaries(st.integers(0, n), st.sampled_from([1, 2, 2047]), max_size=3)
    )
    lines, row_lines = [",".join(header)], []
    for i, row in enumerate(rows):
        lines.extend([""] * blanks.get(i, 0))
        if quote:
            row = [f'"{v}"' for v in row]
        lines.append(",".join(row))
        row_lines.append(len(lines))
    lines.extend([""] * blanks.get(n, 0))
    data = (newline.join(lines) + newline).encode()
    if corruption == "undecodable":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + b"\xff" + data[at:]
    return data, row_lines, corruption, k


def outcome(fn, path):
    try:
        return fn(path, AREA), None
    except ValidationError as exc:
        return None, str(exc)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(region_files())
def test_region_ingest_matches_reference(tmp_path_factory, case):
    data, row_lines, corruption, k = case
    path = tmp_path_factory.mktemp("regions") / "regions.csv"
    path.write_bytes(data)
    grid, error = outcome(ingest_regions, path)
    ref_grid, ref_error = outcome(ingest_reference.ingest_regions, path)
    if error is None and ref_error is None:
        for name in REGION_FIELDS[1:]:
            assert getattr(grid, name).tobytes() == getattr(ref_grid, name).tobytes()
        assert grid.cell_area_km2 == ref_grid.cell_area_km2
        return
    assert error is not None
    width = re.fullmatch(rf"{re.escape(str(path))}:(\d+): expected 8 fields, got (\d+)", error)
    if width:
        # The reference loads an extra field silently and fails a short row on None.
        assert corruption in ("extra_field", "short_row")
        assert int(width[1]) == row_lines[k]
        if corruption == "short_row":
            assert "NoneType" in ref_error
        return
    # The reference counts data rows from 2; the reader names physical lines.
    numbered = re.match(rf"{re.escape(str(path))}:(\d+): ", ref_error)
    if numbered:
        line = row_lines[int(numbered[1]) - 2]
        ref_error = f"{path}:{line}: " + ref_error[numbered.end():]
    assert error == ref_error


class TestBlankRuns:
    """A chunk of blank lines ends no file early: any run of 2 047 holds one."""

    RUN = "\n" * 2047

    def test_regions_after_a_long_blank_run(self, tmp_path):
        rows = [f"{i},36.0,-120.{i},1.0,0.1,0.0,0.5,0.5\n" for i in range(6)]
        path = tmp_path / "regions.csv"
        path.write_text(HEADER + "".join(rows[:3]) + self.RUN + "".join(rows[3:]))
        grid = ingest_regions(path, AREA)
        assert len(grid) == 6
        assert grid.lon.tobytes() == ingest_reference.ingest_regions(path, AREA).lon.tobytes()

    def test_placement_after_a_long_blank_run(self, tmp_path):
        path = tmp_path / "placement.csv"
        path.write_text("region_id,n_sensors\n0,1\n1,2\n" + self.RUN + "2,3\n3,4\n")
        assert read_placement_csv(path).counts == (1, 2, 3, 4)


def test_chunk_boundary_error_names_its_line(tmp_path):
    rows = [f"{i},36.0,-120.0,1.0,0.1,0.0,0.5,0.5" for i in range(1030)]
    rows[1024] = rows[1024].replace("0.1", "?")
    path = tmp_path / "regions.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n")
    assert error_of(ingest_regions, path, AREA) == (
        f"{path}:1026: malformed row: could not convert string to float: '?'"
    )
