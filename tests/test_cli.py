import json
from pathlib import Path

import pytest

from firesat.cli import main
from firesat.sample_data import generate_sample_dataset

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
        ],
    )
    def test_bad_sweep_exits_2_naming_token(self, tmp_path, capsys, sweep, token):
        out = tmp_path / "out"
        code = run("simulate", "--config", CONFIG, "--out", str(out), "--sweep", sweep)
        assert code == 2
        assert token in capsys.readouterr().err
        assert not list(out.glob("fig*.csv"))


class TestReport:
    def test_aggregates_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run("capacity", "--config", CONFIG, "--out", str(out)) == 0
        assert run("report", "--out", str(out)) == 0
        payload = json.loads((out / "report.json").read_text())
        assert "capacity.json" in payload["sources"]

    @pytest.mark.parametrize("body", ["{bad", "[1, 2]", "\"text\"", ""])
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
        assert not any(out.iterdir())


def test_sample_dataset_regenerates_byte_identical(tmp_path):
    paths = generate_sample_dataset(tmp_path)
    assert paths["regions"].read_bytes() == (DATA_DIR / "regions.csv").read_bytes()
    assert paths["fires"].read_bytes() == (DATA_DIR / "fires.csv").read_bytes()
