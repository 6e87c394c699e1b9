import json
import math

import numpy as np
import pytest

from firesat.campaign import (
    EconomicsParams,
    baseline_outcomes,
    carbon_emission_ton,
    run_campaign,
    scatter_sensors,
    simulate_fire,
    write_campaign_json,
    write_fires_csv,
)
from firesat.errors import ValidationError
from firesat.geo import GeoPoint
from firesat.grid import FireEvent
from firesat.placement import Placement

from conftest import grid_of, region_for


def small_grid(n_side=4, spread=0.6, biomass=1.0):
    """Square n_side x n_side grid of 10 km cells around (36N, 120W)."""
    regions = []
    for r in range(n_side):
        for c in range(n_side):
            i = r * n_side + c
            env = region_for(i, 0.5, 0.5)
            regions.append(
                dict(
                    env,
                    lat=36.0 + (r + 0.5) * 0.09,
                    lon=-120.0 + (c + 0.5) * 0.11,
                    biomass=biomass,
                    lightning=0.0,
                    p_human=0.5,
                    spread_rate=spread,
                )
            )
    return grid_of(regions, 100.0)


def frame_point(frame, region_idx, dx=0.0, dy=0.0):
    """GeoPoint at an offset (km) from a region center."""
    cx, cy = frame.centers_xy[region_idx]
    lat = frame.ref_lat + (cy + dy) / (math.pi / 180.0 * 6371.0)
    lon = frame.ref_lon + (cx + dx) / ((math.pi / 180.0 * 6371.0) * math.cos(math.radians(frame.ref_lat)))
    return GeoPoint(lat, lon)


class TestGridFrame:
    def test_locate_round_trip(self):
        grid = small_grid()
        frame = grid.frame
        for idx in (0, 5, 15):
            assert frame.locate(GeoPoint(grid.lat[idx], grid.lon[idx])) == idx

    def test_locate_rejects_outside(self):
        grid = small_grid()
        frame = grid.frame
        with pytest.raises(ValidationError):
            frame.locate(GeoPoint(50.0, -120.0))

    def test_rows_cols(self):
        grid = small_grid()
        rows, cols = grid.frame.rows_cols()
        assert rows.tolist() == [r for r in range(4) for _ in range(4)]
        assert cols.tolist() == [c for _ in range(4) for c in range(4)]

    def test_intersecting_mask_point(self):
        grid = small_grid()
        frame = grid.frame
        cx, cy = frame.centers_xy[5]
        mask = frame.intersecting_mask(float(cx), float(cy), 0.0)
        assert mask[5]
        assert mask.sum() == 1


class TestScatter:
    def test_zero_counts_no_points(self):
        grid = small_grid()
        placement = Placement((0,) * 16, budget=0)
        assert scatter_sensors(placement, grid, seed=1).shape == (0, 2)

    def test_points_stay_in_cells(self):
        grid = small_grid()
        counts = [3] * 16
        placement = Placement(tuple(counts), budget=48)
        pos = scatter_sensors(placement, grid, seed=5)
        frame = grid.frame
        reps = np.repeat(np.arange(16), counts)
        assert np.all(np.abs(pos - frame.centers_xy[reps]) <= 5.0 + 1e-12)

    def test_mean_converges_to_center(self):
        grid = small_grid(n_side=1)
        placement = Placement((10**5,), budget=10**5)
        pos = scatter_sensors(placement, grid, seed=9)
        frame = grid.frame
        err = np.abs(pos.mean(axis=0) - frame.centers_xy[0])
        assert np.all(err <= 0.01 * frame.side_km)

    def test_deterministic(self):
        grid = small_grid()
        placement = Placement((2,) * 16, budget=32)
        a = scatter_sensors(placement, grid, seed=3)
        b = scatter_sensors(placement, grid, seed=3)
        assert np.array_equal(a, b)


class TestSimulateFire:
    def test_sensor_at_ignition_point(self):
        grid = small_grid()
        frame = grid.frame
        point = frame_point(frame, 5, 0.0, 0.0)
        event = FireEvent(0, point, 5, recorded_area_km2=50.0)
        sensors = np.array([frame.project(point)])
        record = simulate_fire(event, sensors, grid)
        assert record.detected
        assert record.detection_time_h == 0.0
        assert record.burned_km2 == 0.0

    def test_nearest_sensor_at_two_km(self):
        grid = small_grid(spread=0.5)
        frame = grid.frame
        point = frame_point(frame, 5)
        event = FireEvent(0, point, 5, recorded_area_km2=50.0)
        fx, fy = frame.project(point)
        sensors = np.array([[fx + 2.0, fy], [fx + 4.0, fy]])
        record = simulate_fire(event, sensors, grid)
        assert record.detected
        assert record.burned_km2 == pytest.approx(4.0 * math.pi, rel=1e-9)
        assert record.detection_time_h == pytest.approx(4.0, rel=1e-9)

    def test_carbon_formula(self):
        assert carbon_emission_ton(1.0, 1.0) == pytest.approx(120.0, rel=1e-12)
        grid = small_grid(biomass=1.0)
        frame = grid.frame
        point = frame_point(frame, 5)
        event = FireEvent(0, point, 5, recorded_area_km2=1.0)
        record = simulate_fire(event, np.empty((0, 2)), grid)
        assert not record.detected
        assert record.burned_km2 == 1.0
        assert record.carbon_ton == pytest.approx(120.0, rel=1e-12)

    def test_undetected_falls_back_to_catalog_area(self):
        grid = small_grid()
        frame = grid.frame
        point = frame_point(frame, 5)
        event = FireEvent(0, point, 5, recorded_area_km2=234.5)
        fx, fy = frame.project(point)
        far = math.sqrt(100.0 / math.pi) + 0.1
        record = simulate_fire(event, np.array([[fx + far, fy]]), grid)
        assert not record.detected
        assert record.burned_km2 == 234.5

    def test_zero_spread_degenerate(self):
        grid = small_grid(spread=0.0)
        frame = grid.frame
        point = frame_point(frame, 5)
        event = FireEvent(0, point, 5, recorded_area_km2=90.0)
        fx, fy = frame.project(point)
        record = simulate_fire(event, np.array([[fx + 1.0, fy]]), grid)
        assert record.degenerate
        assert not record.detected
        assert record.burned_km2 == 0.0

    def test_burned_bounded_by_cell_or_catalog(self):
        grid = small_grid()
        frame = grid.frame
        rng = np.random.default_rng(2)
        for _ in range(50):
            idx = int(rng.integers(0, 16))
            point = frame_point(frame, idx, float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
            event = FireEvent(0, point, idx, recorded_area_km2=float(rng.uniform(0, 400)))
            sensors = rng.uniform(-20, 60, size=(int(rng.integers(0, 8)), 2))
            record = simulate_fire(event, sensors, grid)
            assert record.burned_km2 <= max(event.recorded_area_km2, grid.cell_area_km2) + 1e-9
            assert record.carbon_ton >= 0.0


class TestRunCampaign:
    def make_catalog(self, grid, frame, n=6):
        rng = np.random.default_rng(4)
        events = []
        for k in range(n):
            idx = int(rng.integers(0, len(grid)))
            point = frame_point(frame, idx, float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
            events.append(FireEvent(k, point, idx, recorded_area_km2=float(rng.uniform(5, 300))))
        return events

    def test_zero_sensors_equals_catalog_baseline(self):
        grid = small_grid()
        frame = grid.frame
        catalog = self.make_catalog(grid, frame)
        econ = EconomicsParams(200.0, 10.0, 5000.0)
        placement = Placement((0,) * 16, budget=0)
        result = run_campaign(grid, placement, catalog, econ, trials=3, seed=8)
        assert result.totals.burned_km2 == sum(e.recorded_area_km2 for e in catalog)
        assert result.totals.burned_km2 == result.totals.baseline_burned_km2
        assert result.totals.carbon_ton == result.totals.baseline_carbon_ton
        assert result.totals.savings_usd == -5000.0

    def test_totals_equal_sum_of_fires(self):
        grid = small_grid()
        frame = grid.frame
        catalog = self.make_catalog(grid, frame)
        placement = Placement((4,) * 16, budget=64)
        result = run_campaign(grid, placement, catalog, EconomicsParams(), trials=5, seed=8)
        assert result.totals.burned_km2 == sum(o.burned_km2 for o in result.fires)
        assert result.totals.carbon_ton == sum(o.carbon_ton for o in result.fires)

    def test_savings_recompose(self):
        grid = small_grid()
        frame = grid.frame
        catalog = self.make_catalog(grid, frame)
        econ = EconomicsParams(150.0, 25.0, 1.2e6)
        placement = Placement((4,) * 16, budget=64)
        result = run_campaign(grid, placement, catalog, econ, trials=5, seed=8)
        t = result.totals
        expected = t.carbon_reduction_ton * 150.0 - 64 * 25.0 - 1.2e6
        assert t.savings_usd == pytest.approx(expected, rel=1e-6)

    def test_deterministic(self):
        grid = small_grid()
        frame = grid.frame
        catalog = self.make_catalog(grid, frame)
        placement = Placement((3,) * 16, budget=48)
        a = run_campaign(grid, placement, catalog, EconomicsParams(), trials=4, seed=13)
        b = run_campaign(grid, placement, catalog, EconomicsParams(), trials=4, seed=13)
        assert a == b

    def test_empty_catalog_warns(self):
        grid = small_grid()
        placement = Placement((1,) * 16, budget=16)
        with pytest.warns(UserWarning):
            result = run_campaign(grid, placement, [], EconomicsParams(), trials=2, seed=1)
        assert result.totals.burned_km2 == 0.0

    def test_more_sensors_burn_less_on_average(self):
        grid = small_grid()
        frame = grid.frame
        catalog = self.make_catalog(grid, frame, n=12)
        small = Placement((2,) * 16, budget=32)
        big = Placement((12,) * 16, budget=192)
        r_small = run_campaign(grid, small, catalog, EconomicsParams(), trials=20, seed=3)
        r_big = run_campaign(grid, big, catalog, EconomicsParams(), trials=20, seed=3)
        assert r_big.totals.burned_km2 <= r_small.totals.burned_km2

    def test_writers(self, tmp_path):
        grid = small_grid()
        frame = grid.frame
        catalog = self.make_catalog(grid, frame)
        placement = Placement((2,) * 16, budget=32)
        result = run_campaign(grid, placement, catalog, EconomicsParams(), trials=2, seed=6)
        write_campaign_json(result, tmp_path / "c.json")
        write_fires_csv(result, tmp_path / "f.csv")
        payload = json.loads((tmp_path / "c.json").read_text())
        assert payload["totals"]["burned_km2"] == result.totals.burned_km2
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert len(lines) == 1 + len(catalog)
        assert "np.float" not in (tmp_path / "f.csv").read_text()
        # result fields stay plain Python floats for lossless serialization
        assert type(result.totals.burned_km2) is float
        assert all(type(o.burned_km2) is float for o in result.fires)


def test_baseline_outcomes_use_recorded_area():
    grid = small_grid()
    frame = grid.frame
    point = frame_point(frame, 5)
    events = [FireEvent(0, point, 5, recorded_area_km2=77.0)]
    records = baseline_outcomes(events, grid)
    assert records[0].burned_km2 == 77.0
    assert records[0].carbon_ton == pytest.approx(carbon_emission_ton(77.0, 1.0), rel=1e-12)
