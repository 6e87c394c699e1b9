import pytest

from firesat.config import load_config, parse_kv_file
from firesat.errors import ValidationError
from firesat.ingest import (
    ingest_fires,
    ingest_regions,
    write_fires_catalog_csv,
    write_regions_csv,
)

from conftest import DATA_DIR

SAMPLE_CONFIG = DATA_DIR / "sample_config.cfg"


class TestRegionIngestion:
    def test_packaged_dataset_loads(self):
        grid = ingest_regions(DATA_DIR / "regions.csv")
        assert len(grid) == 11000

    def test_round_trip(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv")
        path = tmp_path / "copy.csv"
        write_regions_csv(grid, path)
        again = ingest_regions(path)
        assert again == grid
        assert ingest_regions(path, cell_area_km2=50.0) != grid
        assert path.read_bytes() == (DATA_DIR / "regions.csv").read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            ingest_regions(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n")
        with pytest.raises(ValidationError):
            ingest_regions(path)

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n"
            "0,36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n"
            "0,36.1,-120.0,1.0,0.1,0.0,0.5,0.5\n"
        )
        with pytest.raises(ValidationError, match="duplicate region id 0"):
            ingest_regions(path)

    def test_gap_in_ids_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n"
            "0,36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n"
            "2,36.1,-120.0,1.0,0.1,0.0,0.5,0.5\n"
        )
        with pytest.raises(ValidationError, match="not contiguous"):
            ingest_regions(path)

    def test_error_reports_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n"
            "0,36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n"
            "1,36.1,-120.0,oops,0.1,0.0,0.5,0.5\n"
        )
        with pytest.raises(ValidationError, match=":3:"):
            ingest_regions(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lat", "90.5"),
            ("lat", "nan"),
            ("lon", "inf"),
            ("biomass", "-0.1"),
            ("biomass", "nan"),
            ("soil_moisture", "inf"),
            ("lightning", "-1.0"),
            ("lightning", "-inf"),
            ("p_human", "1.5"),
            ("p_human", "nan"),
            ("spread_rate", "-0.2"),
            ("spread_rate", "inf"),
        ],
    )
    def test_bad_value_names_file_region_and_field(self, tmp_path, field, value):
        row = dict(id="1", lat="36.1", lon="-120.0", biomass="1.0", soil_moisture="0.1",
                   lightning="0.0", p_human="0.5", spread_rate="0.5")
        row[field] = value
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n"
            "0,36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n" + ",".join(row.values()) + "\n"
        )
        with pytest.raises(ValidationError) as info:
            ingest_regions(path)
        assert str(info.value).startswith(f"{path}: region 1: {field} ")


class TestFireIngestion:
    def test_packaged_catalog_loads(self):
        grid = ingest_regions(DATA_DIR / "regions.csv")
        fires = ingest_fires(DATA_DIR / "fires.csv", grid)
        assert len(fires) == 255
        for f in fires[:20]:
            assert 0 <= f.region_id < len(grid)

    def test_round_trip(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv")
        fires = ingest_fires(DATA_DIR / "fires.csv", grid)
        path = tmp_path / "fires.csv"
        write_fires_catalog_csv(fires, path)
        assert path.read_bytes() == (DATA_DIR / "fires.csv").read_bytes()
        assert ingest_fires(path, grid) == fires

    def test_outside_grid_rejected(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv")
        path = tmp_path / "far.csv"
        path.write_text("fire_id,lat,lon,recorded_area_km2\n0,10.0,10.0,5.0\n")
        with pytest.raises(ValidationError, match=":2:"):
            ingest_fires(path, grid)

    def test_duplicate_fire_id_rejected(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv")
        lat, lon = grid.lat[5000], grid.lon[5000]
        path = tmp_path / "dup.csv"
        path.write_text(
            "fire_id,lat,lon,recorded_area_km2\n"
            f"3,{lat},{lon},5.0\n"
            f"3,{lat},{lon},6.0\n"
        )
        with pytest.raises(ValidationError, match="duplicate fire id 3"):
            ingest_fires(path, grid)

    @pytest.mark.parametrize("area", ["nan", "inf", "-1.0"])
    def test_bad_recorded_area_rejected(self, tmp_path, area):
        grid = ingest_regions(DATA_DIR / "regions.csv")
        path = tmp_path / "area.csv"
        path.write_text(f"fire_id,lat,lon,recorded_area_km2\n3,{grid.lat[5000]},{grid.lon[5000]},{area}\n")
        with pytest.raises(ValidationError) as info:
            ingest_fires(path, grid)
        assert str(info.value).startswith(f"{path}:2: fire 3: recorded_area_km2 ")


class TestConfig:
    def test_sample_config_loads(self):
        cfg = load_config(SAMPLE_CONFIG)
        assert cfg.budget == 100000
        assert cfg.seed == 1234
        assert cfg.regions_csv.is_file()
        assert cfg.t_hours == 4.0

    def test_parse_kv_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this line has no equals\n")
        with pytest.raises(ValidationError):
            parse_kv_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ValidationError):
            parse_kv_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        text = SAMPLE_CONFIG.read_text() + "\nnot.a.key = 5\n"
        path = tmp_path / "cfg.cfg"
        path.write_text(text.replace("regions.csv", str(DATA_DIR / "regions.csv")))
        with pytest.raises(ValidationError, match="unknown config keys"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "cfg.cfg"
        path.write_text("seed = 1\n")
        with pytest.raises(ValidationError, match="missing required key"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        lines = []
        for line in SAMPLE_CONFIG.read_text().splitlines():
            if line.startswith("paths.regions"):
                line = "paths.regions = does_not_exist.csv"
            elif line.startswith("paths."):
                key, _, val = line.partition("=")
                line = f"{key}= {DATA_DIR / val.strip()}"
            lines.append(line)
        path = tmp_path / "cfg.cfg"
        path.write_text("\n".join(lines))
        with pytest.raises(ValidationError, match="does not exist"):
            load_config(path)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys: plan.budgte"):
            load_config(SAMPLE_CONFIG, {"plan.budgte": 7})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["file", "override"])
    def test_non_finite_float_rejected(self, tmp_path, source, value):
        path, overrides = SAMPLE_CONFIG, {"plan.t_hours": float(value)}
        if source == "file":
            path, overrides = tmp_path / "cfg.cfg", None
            text = SAMPLE_CONFIG.read_text()
            assert "plan.t_hours = 4\n" in text
            path.write_text(text.replace("plan.t_hours = 4\n", f"plan.t_hours = {value}\n"))
        with pytest.raises(ValidationError, match="plan.t_hours must be finite"):
            load_config(path, overrides)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            load_config(SAMPLE_CONFIG, {"seed": -1})

    def test_overrides(self):
        cfg = load_config(SAMPLE_CONFIG, {"plan.budget": 7, "seed": 99})
        assert cfg.budget == 7
        assert cfg.seed == 99

    def test_relative_paths_resolve_against_config_dir(self):
        cfg = load_config(SAMPLE_CONFIG)
        assert cfg.regions_csv.parent == SAMPLE_CONFIG.parent
