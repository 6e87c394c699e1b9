import inspect
from dataclasses import MISSING, asdict, fields, replace
from operator import attrgetter

import pytest

from firesat.campaign import EconomicsParams, run_campaign
from firesat.capacity import RadioTiming, TrafficModel
from firesat.config import CONFIG_KEYS, RunConfig, load_config, parse_kv_file
from firesat.errors import ValidationError
from firesat.fire_model import FireModelParams
from firesat.geo import SatelliteConfig
from firesat.link_budget import DeviceConfig, snr_db
from firesat.ingest import (
    ingest_fires,
    ingest_regions,
    write_fires_catalog_csv,
    write_regions_csv,
)

from conftest import CFG, DATA_DIR

SAMPLE_CONFIG = DATA_DIR / "sample_config.cfg"


class TestRegionIngestion:
    def test_packaged_dataset_loads(self):
        grid = ingest_regions(DATA_DIR / "regions.csv", CFG.cell_area_km2)
        assert len(grid) == 11000

    def test_round_trip(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv", CFG.cell_area_km2)
        path = tmp_path / "copy.csv"
        write_regions_csv(grid, path)
        again = ingest_regions(path, CFG.cell_area_km2)
        assert again == grid
        assert ingest_regions(path, cell_area_km2=50.0) != grid
        assert path.read_bytes() == (DATA_DIR / "regions.csv").read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            ingest_regions(path, CFG.cell_area_km2)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n")
        with pytest.raises(ValidationError):
            ingest_regions(path, CFG.cell_area_km2)

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n"
            "0,36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n"
            "0,36.1,-120.0,1.0,0.1,0.0,0.5,0.5\n"
        )
        with pytest.raises(ValidationError, match="duplicate region id 0"):
            ingest_regions(path, CFG.cell_area_km2)

    def test_gap_in_ids_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n"
            "0,36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n"
            "2,36.1,-120.0,1.0,0.1,0.0,0.5,0.5\n"
        )
        with pytest.raises(ValidationError, match="not contiguous"):
            ingest_regions(path, CFG.cell_area_km2)

    def test_error_reports_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,lat,lon,biomass,soil_moisture,lightning,p_human,spread_rate\n"
            "0,36.0,-120.0,1.0,0.1,0.0,0.5,0.5\n"
            "1,36.1,-120.0,oops,0.1,0.0,0.5,0.5\n"
        )
        with pytest.raises(ValidationError, match=":3:"):
            ingest_regions(path, CFG.cell_area_km2)

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
            ingest_regions(path, CFG.cell_area_km2)
        assert str(info.value).startswith(f"{path}: region 1: {field} ")


class TestFireIngestion:
    def test_packaged_catalog_loads(self):
        grid = ingest_regions(DATA_DIR / "regions.csv", CFG.cell_area_km2)
        fires = ingest_fires(DATA_DIR / "fires.csv", grid)
        assert len(fires) == 255
        for f in fires[:20]:
            assert 0 <= f.region_id < len(grid)

    def test_round_trip(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv", CFG.cell_area_km2)
        fires = ingest_fires(DATA_DIR / "fires.csv", grid)
        path = tmp_path / "fires.csv"
        write_fires_catalog_csv(fires, path)
        assert path.read_bytes() == (DATA_DIR / "fires.csv").read_bytes()
        assert ingest_fires(path, grid) == fires

    def test_outside_grid_rejected(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv", CFG.cell_area_km2)
        path = tmp_path / "far.csv"
        path.write_text("fire_id,lat,lon,recorded_area_km2\n0,10.0,10.0,5.0\n")
        with pytest.raises(ValidationError, match=":2:"):
            ingest_fires(path, grid)

    def test_duplicate_fire_id_rejected(self, tmp_path):
        grid = ingest_regions(DATA_DIR / "regions.csv", CFG.cell_area_km2)
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
        grid = ingest_regions(DATA_DIR / "regions.csv", CFG.cell_area_km2)
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
        with pytest.raises(ValidationError, match="missing required key") as info:
            load_config(path)
        assert str(info.value).endswith(f"keys: {', '.join(sorted(CONFIG_KEYS - {'seed'}))}")

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_every_key_is_required(self, tmp_path, key):
        lines = SAMPLE_CONFIG.read_text().splitlines()
        kept = [line for line in lines if line.partition("=")[0].strip() != key]
        assert len(kept) == len(lines) - 1
        path = tmp_path / "cfg.cfg"
        path.write_text("\n".join(kept))
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: missing required keys: {key}"

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

    def test_timing_is_one_validated_instance_per_ru_count(self):
        cfg = load_config(SAMPLE_CONFIG)
        fresh = load_config(SAMPLE_CONFIG)
        assert cfg.timing() is cfg.timing(cfg.rus_per_report)
        five = cfg.timing(rus_per_report=5)
        assert cfg.timing(5) is five
        assert five == replace(fresh.timing(), rus_per_report=5)
        assert five.rus_per_report == 5 and cfg.timing().rus_per_report == cfg.rus_per_report
        for _ in range(2):  # a rejected count is never kept
            with pytest.raises(ValidationError, match="rus_per_report"):
                cfg.timing(0)
        # The memo is no field: equality, hashing and asdict see the config alone.
        assert cfg == fresh and hash(cfg) == hash(fresh) and asdict(cfg) == asdict(fresh)


# Each RunConfig builder, and the config key and value that feed each field
# of the model it builds. Every value differs from every other and from the
# sample config's, and each model is valid.
BUILDERS = {
    "fire_params": (RunConfig.fire_params, {
        "theta_wilt": ("fire.theta_wilt", 0.11),
        "theta_field": ("fire.theta_field", 0.42),
        "b_low": ("fire.b_low", 0.13),
        "b_up": ("fire.b_up", 1.7),
        "beta_e": ("fire.beta_e", 0.29),
        "l_low": ("fire.l_low", 0.03),
        "l_up": ("fire.l_up", 0.77),
    }),
    "satellite": (RunConfig.satellite, {
        "sub_satellite_lon": ("satellite.sub_satellite_lon", -120.5),
        "beam_center.lat": ("satellite.beam_center_lat", 36.5),
        "beam_center.lon": ("satellite.beam_center_lon", -119.5),
        "beam_radius_km": ("satellite.beam_radius_km", 900.5),
        "g_s_max_dbi": ("satellite.g_s_max_dbi", 27.5),
        "altitude_km": ("satellite.altitude_km", 35000.5),
    }),
    "device": (RunConfig.device, {
        "tx_power_dbm": ("device.tx_power_dbm", 21.5),
        "g_t_max_dbi": ("device.g_t_max_dbi", 6.5),
        "off_boresight_deg": ("device.off_boresight_deg", 45.5),
        "carrier_hz": ("device.carrier_hz", 1.6e9),
        "noise_power_dbm": ("device.noise_power_dbm", -160.5),
        "other_losses_db": ("device.other_losses_db", -8.5),
    }),
    "timing": (RunConfig.timing, {
        "rtt_ms": ("radio.rtt_ms", 480.0),
        "ru_time_ms": ("radio.ru_time_ms", 31.0),
        "ru_bw_khz": ("radio.ru_bw_khz", 2.5),
        "carrier_bw_khz": ("radio.carrier_bw_khz", 250.0),
        "rus_per_report": ("radio.rus_per_report", 5),
        "tx_attempts": ("radio.tx_attempts", 2),
    }),
    "traffic": (RunConfig.traffic, {
        "payload_bytes": ("traffic.payload_bytes", 44),
        "reference_period_s": ("traffic.reference_period_s", 12.5),
        "sessions_per_day": ("traffic.sessions_per_day", 9.5),
    }),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_takes_every_field_from_its_config_key(name):
    values = [value for _, feeds in BUILDERS.values() for _, value in feeds.values()]
    assert len(set(values)) == len(values)
    assert not set(values) & set(asdict(load_config(SAMPLE_CONFIG)).values())
    build, feeds = BUILDERS[name]
    cfg = load_config(SAMPLE_CONFIG, {key: value for key, value in feeds.values() if key})
    model = build(cfg)
    assert {f.name for f in fields(model)} == {attr.split(".")[0] for attr in feeds}
    for attr, (key, value) in feeds.items():
        assert attrgetter(attr)(model) == value, f"{key} does not reach {attr}"


# Model fields fed by a RunConfig field of another name.
RENAMED = {"device_cost_usd": "device_cost_case_a_usd"}


def test_no_model_default_restates_a_config_key():
    """A value a config key sets is written in the config file alone: no model
    field and no function argument it feeds declares a default."""
    config_fields = {f.name for f in fields(RunConfig)}
    fed = [
        (f"{model.__name__}.{f.name}", f)
        for model in (FireModelParams, SatelliteConfig, DeviceConfig, RadioTiming, TrafficModel,
                      EconomicsParams)
        for f in fields(model)
        if RENAMED.get(f.name, f.name) in config_fields
    ]
    assert len(fed) == 28  # fire 7, satellite 4, device 6, radio 6, traffic 3, economics 2
    assert [name for name, f in fed if f.default is not MISSING or f.default_factory is not MISSING] == []
    for function, names in ((run_campaign, ("trials", "seed")), (ingest_regions, ("cell_area_km2",)),
                            (snr_db, ("mcs_table",))):
        parameters = inspect.signature(function).parameters
        defaulted = [n for n in names if parameters[n].default is not inspect.Parameter.empty]
        assert defaulted == [], f"{function.__name__} gives a default to {defaulted}"
