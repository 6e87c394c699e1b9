import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import firesat
from firesat.cli import build_parser, main
from firesat.config import CONFIG_KEYS
from firesat.grid import GridFrame

from conftest import DATA_DIR

CONFIG = str(DATA_DIR / "sample_config.cfg")


def run(*argv) -> int:
    return main(list(argv))


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestPlan:
    def test_zero_budget_zero_utility(self, tmp_path):
        out = tmp_path / "out"
        assert run("plan", "--config", CONFIG, "--out", str(out), "--budget", "0") == 0
        summary = json.loads((out / "plan_summary.json").read_text())
        assert summary["schemes"]["optimized"]["utility"] == 0.0
        assert summary["schemes"]["uniform"]["utility"] == 0.0

    def test_optimized_dominates_uniform(self, tmp_path):
        out = tmp_path / "out"
        assert run("plan", "--config", CONFIG, "--out", str(out), "--budget", "20000") == 0
        summary = json.loads((out / "plan_summary.json").read_text())
        assert (
            summary["schemes"]["optimized"]["utility"]
            >= summary["schemes"]["uniform"]["utility"]
        )
        for scheme in ("optimized", "uniform"):
            assert (out / f"placement_{scheme}.csv").is_file()
            assert (out / f"heatmap_{scheme}.csv").is_file()

    def test_longer_deadline_polarizes_allocation(self, tmp_path):
        out4 = tmp_path / "t4"
        out8 = tmp_path / "t8"
        assert run("plan", "--config", CONFIG, "--out", str(out4), "--scheme", "optimized") == 0
        assert (
            run(
                "plan", "--config", CONFIG, "--out", str(out8),
                "--scheme", "optimized", "--t-hours", "8",
            )
            == 0
        )
        s4 = json.loads((out4 / "plan_summary.json").read_text())["schemes"]["optimized"]
        s8 = json.loads((out8 / "plan_summary.json").read_text())["schemes"]["optimized"]
        assert s8["max_per_region"] > s4["max_per_region"]
        assert s8["nonzero_regions"] <= s4["nonzero_regions"]

    def test_heatmap_covers_grid(self, tmp_path):
        out = tmp_path / "out"
        assert run("plan", "--config", CONFIG, "--out", str(out), "--budget", "100") == 0
        lines = (out / "heatmap_optimized.csv").read_text().splitlines()
        assert lines[0] == "region_id,row,col,n_sensors"
        assert len(lines) == 1 + 11000


class TestLinkBudget:
    def test_center_device(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "linkbudget", "--config", CONFIG, "--out", str(out),
            "--lat", "37.2", "--lon", "-122.1", "--reference-snr-db", "5.55",
        )
        assert code == 0
        payload = json.loads((out / "linkbudget.json").read_text())
        assert abs(payload["linear"]["snr_db"] - 5.55) < 0.5
        assert payload["linear"]["mcs_level"] == 11
        assert "db_scaled" in payload
        assert abs(payload["deviation_db"]["linear"]) < 0.5

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reference_snr_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        code = run(
            "linkbudget", "--config", CONFIG, "--out", str(out),
            "--lat", "37.2", "--lon", "-122.1", f"--reference-snr-db={value}",
        )
        assert code == 2
        assert "error: --reference-snr-db must be finite" in capsys.readouterr().err
        assert not (out / "linkbudget.json").exists()

    def test_recomposition_identity_in_output(self, tmp_path):
        out = tmp_path / "out"
        assert run(
            "linkbudget", "--config", CONFIG, "--out", str(out),
            "--lat", "33.5", "--lon", "-116.6",
        ) == 0
        payload = json.loads((out / "linkbudget.json").read_text())
        for key in ("linear", "db_scaled"):
            r = payload[key]
            recomposed = (
                r["tx_power_dbm"]
                + r["antenna_gain_dbi"]
                + r["beam_gain_dbi"]
                - r["fspl_db"]
                + r["other_losses_db"]
                - r["noise_power_dbm"]
            )
            assert abs(r["snr_db"] - recomposed) < 1e-9

    def test_below_horizon_exit_code(self, tmp_path):
        code = run(
            "linkbudget", "--config", CONFIG, "--out", str(tmp_path / "o"),
            "--lat", "0.0", "--lon", "60.0",
        )
        assert code == 2


class TestCapacity:
    @pytest.mark.parametrize(
        "budget,bw_mhz,cost_musd",
        [(10**5, 41.76, 25.056), (10**6, 416.7, 250.02)],
    )
    def test_golden_numbers(self, tmp_path, budget, bw_mhz, cost_musd):
        out = tmp_path / "out"
        assert run("capacity", "--config", CONFIG, "--out", str(out), "--budget", str(budget)) == 0
        payload = json.loads((out / "capacity.json").read_text())
        worst = payload["worst_case"]
        assert worst["report_duration_ms"] == 1096.0
        assert worst["devices_per_carrier_exception"] == 432
        assert worst["bandwidth_hz"] == bw_mhz * 1e6
        assert worst["bandwidth_cost_usd"] == cost_musd * 1e6

    def test_single_device(self, tmp_path):
        out = tmp_path / "out"
        assert run("capacity", "--config", CONFIG, "--out", str(out), "--budget", "1") == 0
        payload = json.loads((out / "capacity.json").read_text())
        assert payload["worst_case"]["bandwidth_hz"] == 180_000.0

    def test_carrier_count_is_exact_past_float_precision(self, tmp_path):
        # 17514414707169443 whole carriers; a float quotient gives one fewer.
        out = tmp_path / "out"
        assert run("capacity", "--config", CONFIG, "--out", str(out), "--budget", "7566227153497199278") == 0
        payload = json.loads((out / "capacity.json").read_text())
        assert payload["worst_case"]["bandwidth_hz"] == 3.1525946472905e21

    # SHA-256 of capacity.json at each budget. A change of the sizing model
    # re-records them on purpose; any other change must leave the bytes as
    # they are.
    CAPACITY_SHA256 = {
        "1": "1f1a6328a15a61883f7a2988cec0b01e3e97a04133f2a474c6c464dfb8c805d9",
        "100000": "f4346237df05ab6444c14fde7cfaed2d297c691f6328fe395d86c8b13b4b3270",
        "1000000": "1f02c8d33d2fbb31ed39477e5cf27c7a0664bfc912bdb6fdc126de2655220ad9",
        "7566227153497199278": "81cc2ab5ec686a897fdae523f2ec661a79c13554bcf22ad996569dfe8e57d60b",
    }

    @pytest.mark.parametrize("budget", sorted(CAPACITY_SHA256, key=int))
    def test_capacity_bytes_are_recorded(self, tmp_path, budget):
        out = tmp_path / "out"
        assert run("capacity", "--config", CONFIG, "--out", str(out), "--budget", budget) == 0
        digest = hashlib.sha256((out / "capacity.json").read_bytes()).hexdigest()
        assert digest == self.CAPACITY_SHA256[budget]

class TestSimulate:
    def test_zero_sensor_baseline(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "simulate", "--config", CONFIG, "--out", str(out),
            "--budget", "0", "--trials", "1", "--scheme", "optimized",
        )
        assert code == 0
        payload = json.loads((out / "campaign_optimized.json").read_text())
        assert payload["totals"]["burned_km2"] == payload["totals"]["baseline_burned_km2"]

    def test_sweep_emits_figure_csvs(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "simulate", "--config", CONFIG, "--out", str(out),
            "--trials", "2", "--sweep", "1000,2000", "--scheme", "optimized",
        )
        assert code == 0
        for name in (
            "fig3a_utility.csv",
            "fig4b_burned_area.csv",
            "fig4c_carbon.csv",
            "fig4d_savings.csv",
        ):
            assert (out / name).is_file()
        lines = (out / "fig4d_savings.csv").read_text().splitlines()
        assert lines[0] == "budget,scheme,savings_case_a_usd,savings_case_b_usd"
        assert len(lines) == 3
        # plain decimal literals only, parseable back to floats
        for name in ("fig3a_utility.csv", "fig4b_burned_area.csv", "fig4d_savings.csv"):
            body = (out / name).read_text()
            assert "np.float" not in body
            for row in body.splitlines()[1:]:
                float(row.split(",")[-1])

    # SHA-256 of each figure CSV of a two-budget sweep of both schemes. A change
    # of the campaign model (ROADMAP item 2) re-records them on purpose; any
    # other change must leave the sweep's bytes as they are.
    SWEEP_SHA256 = {
        "fig3a_utility.csv": "bae27d7f085207b427e715dd237cb22f04e664882f9064c0d840aa4a7e8b3722",
        "fig4b_burned_area.csv": "c539faacc20f9dc4a150c5f2730980ee92f14eb95395a29c9e52f892a75dfb6a",
        "fig4c_carbon.csv": "c059812d5aebef651d07ac244c53c7bb2b6be989d673facaf235e6bb8b46d01f",
        "fig4d_savings.csv": "94ce2fd096f717f6cb162951c32d8565e1597f4b5e66583a6074fef924128df5",
    }

    def test_sweep_bytes_are_recorded(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            "simulate", "--config", CONFIG, "--out", str(out),
            "--trials", "2", "--sweep", "1000,100000", "--scheme", "both",
        )
        assert code == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("fig*.csv")}
        assert digests == self.SWEEP_SHA256

    def test_sweep_builds_fire_geometry_once(self, tmp_path, monkeypatch):
        # The catalog's candidate cells and its baseline disks are found once
        # per (grid, catalog), not once per campaign.
        calls = []
        disks = GridFrame.disks
        monkeypatch.setattr(GridFrame, "disks", lambda self, *a: calls.append(1) or disks(self, *a))
        code = run(
            "simulate", "--config", CONFIG, "--out", str(tmp_path / "out"),
            "--trials", "1", "--sweep", "1000,2000,5000", "--scheme", "both",
        )
        assert code == 0
        assert len(calls) == 2


    @pytest.mark.parametrize(
        "sweep,token",
        [
            ("1e5,abc", "'abc'"),
            ("1000,1000", "'1000'"),
            ("1e3,1000", "'1000'"),
            ("1000,-5", "'-5'"),
            ("1000,2.5", "'2.5'"),
            ("nan", "'nan'"),
            ("inf", "'inf'"),
            (" , ", "' , '"),
            ("", "''"),
            ("1000,1e16", "'1e16'"),
            ("9007199254740993.0", "'9007199254740993.0'"),
            # A float would round either to a whole number.
            ("1000.0000000000000001", "'1000.0000000000000001'"),
            ("4503599627370496.5", "'4503599627370496.5'"),
            ("snan", "'snan'"),
            ("1e999999999", "'1e999999999'"),
            # Past Python's limit on the digits of an int string.
            pytest.param("1" + "0" * 4400, f"'1{'0' * 4400}' has too many digits", id="4401-digits"),
        ],
    )
    def test_bad_sweep_exits_2_naming_token(self, tmp_path, capsys, sweep, token):
        out = tmp_path / "out"
        code = run("simulate", "--config", CONFIG, "--out", str(out), "--sweep", sweep)
        assert code == 2
        assert token in capsys.readouterr().err
        assert not list(out.glob("fig*.csv"))

    def test_budget_beside_sweep_exits_2_naming_both(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("simulate", "--config", CONFIG, "--out", str(out), "--budget", "5", "--sweep", "1000")
        assert code == 2
        err = capsys.readouterr().err
        assert "--budget" in err and "--sweep" in err
        assert not out.exists()

    def test_single_run_equals_a_one_budget_sweep(self, tmp_path):
        argv = ["--config", CONFIG, "--trials", "2", "--scheme", "both"]
        single, sweep = tmp_path / "single", tmp_path / "sweep"
        assert run("simulate", "--out", str(single), "--budget", "1000", *argv) == 0
        assert run("simulate", "--out", str(sweep), "--sweep", "1000", *argv) == 0

        def cell(name, scheme):
            """The first value column of the sweep row for `scheme` at K = 1000."""
            rows = [r.split(",") for r in (sweep / name).read_text().splitlines()]
            return float(next(r[2] for r in rows if r[:2] == ["1000", scheme]))

        for scheme in ("optimized", "uniform"):
            totals = json.loads((single / f"campaign_{scheme}.json").read_text())["totals"]
            assert cell("fig4b_burned_area.csv", scheme) == totals["burned_km2"]
            assert cell("fig4c_carbon.csv", scheme) == totals["carbon_ton"]
            assert cell("fig4d_savings.csv", scheme) == totals["savings_usd"]


class TestOutputFormats:
    """Formats derived from dataclass fields, spelled out here so that a new
    field changes a gated output only together with this test."""

    def test_campaign_json_and_fires_csv(self, tmp_path):
        argv = ["--budget", "10", "--trials", "1", "--scheme", "optimized"]
        assert run("simulate", "--config", CONFIG, "--out", str(tmp_path), *argv) == 0
        payload = json.loads((tmp_path / "campaign_optimized.json").read_text())
        assert sorted(payload) == [
            "budget", "n_fires", "scheme", "seed", "sensors_deployed", "totals", "trials",
        ]
        assert sorted(payload["totals"]) == [
            "bandwidth_cost_usd",
            "baseline_burned_km2",
            "baseline_carbon_ton",
            "burned_km2",
            "carbon_reduction_ton",
            "carbon_revenue_usd",
            "carbon_ton",
            "device_cost_usd",
            "savings_usd",
        ]
        header = (tmp_path / "fires_optimized.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "fire_id",
            "region_id",
            "recorded_area_km2",
            "detection_rate",
            "detection_time_h",
            "burned_km2",
            "carbon_ton",
        ]

    def test_linkbudget_json(self, tmp_path):
        argv = ["--lat", "36.0", "--lon", "-119.0"]
        assert run("linkbudget", "--config", CONFIG, "--out", str(tmp_path), *argv) == 0
        payload = json.loads((tmp_path / "linkbudget.json").read_text())
        for mode in ("linear", "db_scaled"):
            assert sorted(payload[mode]) == [
                "antenna_gain_dbi",
                "beam_center_distance_km",
                "beam_gain_dbi",
                "elevation_deg",
                "fspl_db",
                "mcs_level",
                "mode",
                "noise_power_dbm",
                "other_losses_db",
                "slant_range_km",
                "snr_db",
                "tx_power_dbm",
            ]


class TestReport:
    def test_aggregates_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run("capacity", "--config", CONFIG, "--out", str(out)) == 0
        assert run("report", "--out", str(out)) == 0
        payload = json.loads((out / "report.json").read_text())
        assert "capacity.json" in payload["sources"]

    @pytest.mark.parametrize(
        "body",
        ["{bad", "[1, 2]", "\"text\"", "", '{"a": NaN}', '{"a": [-Infinity]}', '{"a": 1e400}',
         # Nesting past the JSON decoder's recursion limit.
         pytest.param("[" * 100_000 + "]" * 100_000, id="deeply-nested")],
    )
    def test_corrupt_source_exits_2_naming_file(self, tmp_path, capsys, body):
        out = tmp_path / "out"
        out.mkdir()
        (out / "campaign_optimized.json").write_text(body)
        assert run("report", "--out", str(out)) == 2
        assert "campaign_optimized.json" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_empty_dir_fails_validation(self, tmp_path):
        out = tmp_path / "nothing"
        out.mkdir()
        assert run("report", "--out", str(out)) == 2

    def test_missing_dir_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "absent"
        assert run("report", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: output directory not found: {out}\n"
        assert not out.exists()


class TestDeterminism:
    def test_reruns_byte_identical(self, tmp_path):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(
                "plan", "--config", CONFIG, "--out", str(out), "--budget", "2000",
            ) == 0
            assert run(
                "simulate", "--config", CONFIG, "--out", str(out),
                "--budget", "2000", "--trials", "2", "--seed", "77",
            ) == 0
            assert run("capacity", "--config", CONFIG, "--out", str(out)) == 0
            assert run(
                "linkbudget", "--config", CONFIG, "--out", str(out),
                "--lat", "37.2", "--lon", "-122.1",
            ) == 0
            assert run("report", "--out", str(out)) == 0
            runs.append(tree_bytes(out))
        assert runs[0].keys() == runs[1].keys()
        for name in runs[0]:
            assert runs[0][name] == runs[1][name], f"{name} differs between reruns"


# Dests of the flags that set no config key.
NON_OVERRIDE_DESTS = {"help", "config", "out", "scheme", "mode", "lat", "lon", "reference_snr_db", "sweep"}


def test_override_flags_name_config_keys():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for p in commands.choices.values() for a in p._actions if a.option_strings}
    assert dests - NON_OVERRIDE_DESTS <= CONFIG_KEYS
    assert dests & CONFIG_KEYS == {"seed", "plan.budget", "plan.t_hours", "campaign.trials"}


class TestValidationExitCodes:
    def test_missing_config(self, tmp_path):
        assert run("plan", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)) == 2

    def test_bad_budget(self, tmp_path):
        assert run(
            "plan", "--config", CONFIG, "--out", str(tmp_path), "--budget", "-5",
        ) == 2

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["plan", "--t-hours", "nan"], "plan.t_hours"),
            (["plan", "--t-hours", "inf"], "plan.t_hours"),
            (["simulate", "--seed", "-1"], "seed"),
        ],
    )
    def test_bad_override_exits_2(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert run(*argv, "--config", CONFIG, "--out", str(out)) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--budget", "0"],
            ["linkbudget", "--lat", "37.2", "--lon", "-122.1"],
            ["capacity", "--budget", "0"],
            ["simulate", "--budget", "0", "--trials", "1"],
            ["simulate", "--sweep", "100", "--trials", "1"],
        ],
        ids=["plan", "linkbudget", "capacity", "simulate", "sweep"],
    )
    @pytest.mark.parametrize(
        "key",
        ["econ.carbon_price_usd_per_ton", "econ.device_cost_case_a_usd",
         "econ.device_cost_case_b_usd", "econ.usd_per_hz"],
    )
    def test_negative_economics_exits_2_naming_key(self, tmp_path, capsys, key, argv):
        config = TestNoTraceback.config_with(tmp_path)
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = -1", config.read_text(), flags=re.M)
        assert text != config.read_text()
        config.write_text(text)
        out = tmp_path / "out"
        assert run(*argv, "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {key} must be >= 0\n"
        assert not out.exists()

    def test_carrier_narrower_than_a_resource_unit_exits_2(self, tmp_path, capsys):
        # 1e-12 / 3.75 passes the divisibility tolerance but holds no subcarrier.
        config = TestNoTraceback.config_with(tmp_path)
        key = "radio.carrier_bw_khz"
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = 1e-12", config.read_text(), flags=re.M)
        assert text != config.read_text()
        config.write_text(text)
        out = tmp_path / "out"
        assert run("capacity", "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: carrier_bw_khz must be at least ru_bw_khz\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan"],
            ["linkbudget", "--lat", "37.2", "--lon", "-122.1"],
            ["capacity"],
            ["simulate"],
        ],
    )
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert run(*argv, "--config", CONFIG, "--out", str(out)) == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("row", ["nan,5,3", "inf,11,1", "1.0,5,0", "1.0,5,-3"])
    @pytest.mark.parametrize(
        "argv", [["linkbudget", "--lat", "37.2", "--lon", "-122.1"], ["capacity"]]
    )
    def test_bad_mcs_table_exits_2(self, tmp_path, capsys, argv, row):
        table = tmp_path / "mcs.csv"
        table.write_text(f"min_snr_db,mcs_level,ru_per_20_bytes\n{row}\n")
        config = tmp_path / "run.cfg"
        config.write_text(
            (DATA_DIR / "sample_config.cfg")
            .read_text()
            .replace("= regions.csv", f"= {DATA_DIR / 'regions.csv'}")
            .replace("= fires.csv", f"= {DATA_DIR / 'fires.csv'}")
            .replace("= mcs_table.csv", f"= {table}")
        )
        out = tmp_path / "out"
        assert run(*argv, "--config", str(config), "--out", str(out)) == 2
        assert f"{table}:2:" in capsys.readouterr().err
        assert not out.exists()


class TestNoTraceback:
    """Inputs that once escaped main() as a traceback with exit 1."""

    @staticmethod
    def config_with(tmp_path, **files) -> Path:
        """The sample config, reading `files` (by sample file name) instead."""
        text = (DATA_DIR / "sample_config.cfg").read_text()
        for name in ("regions.csv", "fires.csv", "mcs_table.csv"):
            text = text.replace(f"= {name}", f"= {files.get(name, DATA_DIR / name)}")
        config = tmp_path / "run.cfg"
        config.write_text(text)
        return config

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("regions.csv", ["plan", "--budget", "10"]),
            ("fires.csv", ["simulate", "--budget", "10", "--trials", "1"]),
            ("mcs_table.csv", ["capacity"]),
            ("sample_config.cfg", ["plan", "--budget", "10"]),
            ("regions.csv", ["simulate", "--budget", "10", "--trials", "1"]),
        ],
    )
    def test_undecodable_input_exits_2_naming_file(self, tmp_path, capsys, name, argv):
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe" + (DATA_DIR / name).read_bytes())
        config = bad if name.endswith(".cfg") else self.config_with(tmp_path, **{name: bad})
        out = tmp_path / "out"
        assert run(*argv, "--config", str(config), "--out", str(out)) == 2
        assert f"error: {bad}: cannot decode as text" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_mcs_table_path_exits_2(self, tmp_path, capsys):
        config = self.config_with(tmp_path, **{"mcs_table.csv": ""})
        assert "paths.mcs_table = \n" in config.read_text()
        out = tmp_path / "out"
        assert run("capacity", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: paths.mcs_table: configured file does not exist: {tmp_path}\n"
        assert not out.exists()

    def test_campaign_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        empty = np.empty

        def bounded_empty(shape, *args, **kwargs):
            # Refuses what the real call could only overcommit, never allocating it.
            if math.prod(np.atleast_1d(shape).tolist()) > 10**8:
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", bounded_empty)
        argv = ["--budget", "1000000000000", "--trials", "1", "--scheme", "uniform"]
        assert run("simulate", "--config", CONFIG, "--out", str(tmp_path), *argv) == 2
        err = capsys.readouterr().err
        assert "error: out of memory for 1000000000000 sensors: " in err
        # 16 bytes for each of the 153 954 404 741 rows of cells near a fire.
        assert "needs 2463270475856 bytes" in err

    def test_header_only_fires_exits_2(self, tmp_path, capsys):
        fires = tmp_path / "fires.csv"
        fires.write_text("fire_id,lat,lon,recorded_area_km2\n")
        config = self.config_with(tmp_path, **{"fires.csv": fires})
        out = tmp_path / "out"
        assert run("simulate", "--config", str(config), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {fires}: no fire rows found\n"
        assert not out.exists()

    HUGE = str(10**23)

    @pytest.mark.parametrize(
        "argv, message",
        [
            # The int64 sum of 10^20 sensor counts wraps; numpy cannot index
            # even the draw of the cells near a fire, 1.5e19 rows.
            (["simulate", "--scheme", "uniform", "--budget", "99999999999999999999", "--trials", "1"],
             "out of memory for 99999999999999999999 sensors: "
             "each trial's draw needs 246327047565437658080 bytes"),
            (["plan", "--budget", HUGE], f"budget {HUGE}: a region's share does not fit an int64"),
            (["simulate", "--scheme", "uniform", "--budget", HUGE],
             f"budget {HUGE}: a region's share does not fit an int64"),
            # A --sweep budget keeps every digit, as --budget does.
            (["simulate", "--scheme", "uniform", "--sweep", HUGE, "--trials", "1"],
             f"budget {HUGE}: a region's share does not fit an int64"),
            # Two budgets one apart past 2**53 stay distinct; the first's draw
            # is past any address space, so numpy refuses it without allocating.
            (["simulate", "--scheme", "uniform", "--sweep", "9007199254740993,9007199254740992",
              "--trials", "1"],
             "out of memory for 9007199254740993 sensors: "
             "each trial's draw needs 22187167992539392 bytes"),
        ],
        ids=["simulate-1e20", "plan-1e23", "simulate-1e23", "sweep-1e23", "sweep-2**53+1"],
    )
    def test_huge_budget_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(*argv, "--config", CONFIG, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # Past the float range: no float64 can hold it.
    HUGER = str(10**400)

    def test_huge_budget_optimized_plan_deploys_what_pays(self, tmp_path):
        for budget in (self.HUGE, self.HUGER):
            assert run("plan", "--scheme", "optimized", "--budget", budget,
                       "--config", CONFIG, "--out", str(tmp_path)) == 0
            summary = json.loads((tmp_path / "plan_summary.json").read_text())
            assert summary["schemes"]["optimized"]["deployed"] == 3381170

    @pytest.mark.parametrize("budget", [["--budget", HUGER], ["--sweep", HUGER]], ids=["budget", "sweep"])
    def test_huge_budget_optimized_simulate_deploys_what_pays(self, tmp_path, budget):
        assert run("simulate", "--scheme", "optimized", *budget, "--trials", "1",
                   "--config", CONFIG, "--out", str(tmp_path)) == 0
        if budget[0] == "--budget":
            summary = json.loads((tmp_path / "campaign_optimized.json").read_text())
            assert summary["sensors_deployed"] == 3381170
            assert summary["budget"] == 10**400
        else:
            row = (tmp_path / "fig4d_savings.csv").read_text().splitlines()[1]
            assert row.startswith(f"{self.HUGER},optimized,")

    def test_huge_capacity_budget_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("capacity", "--budget", self.HUGER, "--config", CONFIG, "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            f"numeric error: {self.HUGER} sensors at 432 per carrier overflow a float\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_overflowing_deadline_exits_3(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--config", CONFIG, "--out", str(out), "--t-hours", "1e308"]
        assert run(*argv) == 3
        assert "numeric error: burned area overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--budget", "20", "--trials", "2"], ["--budget", "1000", "--trials", "2"]])
    def test_overflowing_carbon_exits_3(self, tmp_path, capsys, argv):
        # A 1e308 km2 cell lets the uniform scheme's burned areas and carbon
        # sum past the float range; numpy's overflow warning stays silent.
        config = self.config_with(tmp_path)
        config.write_text(config.read_text().replace(
            "grid.cell_area_km2 = 100.0", "grid.cell_area_km2 = 1e308"))
        out = tmp_path / "out"
        assert run("simulate", "--config", str(config), "--out", str(out), *argv) == 3
        err = capsys.readouterr().err
        assert err == (
            "numeric error: burned area or carbon overflows a float "
            "at grid.cell_area_km2 = 1e+308 and largest recorded_area_km2 = 538.807332\n"
        )
        assert not out.exists()

    SIMULATE = ["simulate", "--budget", "1000", "--trials", "2"]

    @pytest.mark.parametrize(
        "key, argv, message",
        [
            ("econ.carbon_price_usd_per_ton", SIMULATE, "savings overflow a float: carbon revenue inf USD"),
            ("econ.device_cost_case_a_usd", SIMULATE, ", device cost inf USD"),
            ("econ.usd_per_hz", SIMULATE, " Hz at 1e+308 USD/Hz: spectrum cost not finite"),
            ("radio.carrier_bw_khz", SIMULATE, "1 carriers of 1e+308 kHz: bandwidth not finite"),
            ("econ.usd_per_hz", ["capacity"], "41760000.0 Hz at 1e+308 USD/Hz: spectrum cost not finite"),
            ("econ.device_cost_case_b_usd", ["simulate", "--sweep", "100,1000", "--trials", "2"],
             ", device cost inf USD"),
            ("device.carrier_hz", ["linkbudget", "--lat", "37", "--lon", "-120"],
             "free-space path loss over 37288.55212658563 km overflows a float at 4 pi carrier_hz = inf Hz"),
        ],
        ids=["simulate-carbon-price", "simulate-device-cost-a", "simulate-usd-per-hz",
             "simulate-carrier-bw", "capacity-usd-per-hz", "sweep-device-cost-b", "linkbudget-carrier"],
    )
    def test_overflowing_money_or_path_loss_exits_3(self, tmp_path, capsys, key, argv, message):
        # Each product overflows where it is formed, before any file is written.
        config = self.config_with(tmp_path)
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = 1e308", config.read_text(), flags=re.M)
        assert text != config.read_text()
        config.write_text(text)
        out = tmp_path / "out"
        assert run(*argv, "--config", str(config), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1 and message in err, err
        assert not out.exists()

    @pytest.mark.parametrize("zero_biomass", [False, True])
    def test_overflowing_recorded_area_exits_3(self, tmp_path, capsys, zero_biomass):
        # A 1.7e308 km2 recorded area times 1.2 is inf, so its baseline carbon
        # is inf, or nan (inf * 0) where every cell's biomass is 0; numpy
        # stays silent on both.
        fires = tmp_path / "fires.csv"
        fires.write_text("fire_id,lat,lon,recorded_area_km2\n0,32.444966,-124.693438,1.7e308\n")
        files = {"fires.csv": fires}
        if zero_biomass:
            header, *rows = (DATA_DIR / "regions.csv").read_text().splitlines()
            regions = tmp_path / "regions.csv"
            regions.write_text("\n".join([header] + [
                ",".join(f[:3] + ["0.0"] + f[4:]) for f in (r.split(",") for r in rows)]) + "\n")
            files["regions.csv"] = regions
        config = self.config_with(tmp_path, **files)
        if zero_biomass:
            config.write_text(config.read_text().replace(
                "grid.cell_area_km2 = 100.0", "grid.cell_area_km2 = 1e308"))
        area = "1e+308" if zero_biomass else "100.0"
        out = tmp_path / "out"
        argv = ["--budget", "20", "--trials", "2", "--scheme", "uniform"]
        # Uniform placement weighs biomass, so an all-zero grid gets no sensors.
        no_sensors = pytest.warns(UserWarning, match="no region has positive biomass")
        with no_sensors if zero_biomass else contextlib.nullcontext():
            assert run("simulate", "--config", str(config), "--out", str(out), *argv) == 3
        assert capsys.readouterr().err == (
            "numeric error: burned area or carbon overflows a float "
            f"at grid.cell_area_km2 = {area} and largest recorded_area_km2 = 1.7e+308\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "error",
        [
            PermissionError(13, "Permission denied"),
            FileNotFoundError(2, "No such file or directory"),
            OSError(30, "Read-only file system"),
            OSError("no errno"),
        ],
    )
    def test_out_mkdir_failure_exits_2_naming_path(self, tmp_path, capsys, monkeypatch, error):
        def refuse(self, *args, **kwargs):
            raise error

        monkeypatch.setattr(Path, "mkdir", refuse)
        out = tmp_path / "a" / "out"
        assert run("capacity", "--config", CONFIG, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: --out {out}: cannot create directory: " in err
        assert (error.strerror or str(error)) in err


def test_sample_dataset_regenerates_byte_identical(tmp_path):
    # Run as documented, so the fire-model parameters come from the sample config.
    src = str(Path(firesat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "firesat.sample_data", str(tmp_path)], env=env,
                   capture_output=True, check=True)
    for name in ("regions.csv", "fires.csv"):
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes()
