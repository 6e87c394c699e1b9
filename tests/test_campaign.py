import json
import math
import time

import numpy as np
import pytest

from firesat import campaign
from firesat.campaign import (
    EconomicsParams,
    baseline_outcomes,
    carbon_emission_ton,
    run_campaign,
    write_campaign_json,
    write_fires_csv,
)
from firesat.errors import ValidationError
from firesat.geo import GeoPoint
from firesat.grid import FireEvent
from firesat.placement import Placement

from conftest import ECON, grid_of, region_for

from campaign_reference import project_point, scatter_sensors, simulate_fire


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
            xy = project_point(frame, GeoPoint(grid.lat[idx], grid.lon[idx]))
            assert frame.locate_xy([xy]).tolist() == [idx]

    def test_locate_rejects_outside(self):
        grid = small_grid()
        frame = grid.frame
        assert frame.locate_xy([project_point(frame, GeoPoint(50.0, -120.0))]).tolist() == [-1]

    def test_rows_cols(self):
        grid = small_grid()
        rows, cols = grid.frame.rows_cols()
        assert rows.tolist() == [r for r in range(4) for _ in range(4)]
        assert cols.tolist() == [c for _ in range(4) for c in range(4)]

    def test_intersecting_mask_point(self):
        grid = small_grid()
        frame = grid.frame
        cx, cy = frame.centers_xy[5]
        gap_sq, cells = frame.disks([(cx, cy)], 0.0)
        assert cells.tolist() == [[5]]
        assert gap_sq.tolist() == [[0.0]]


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
        sensors = np.array([project_point(frame, point)])
        record = simulate_fire(event, sensors, grid)
        assert record.detected
        assert record.detection_time_h == 0.0
        assert record.burned_km2 == 0.0

    def test_nearest_sensor_at_two_km(self):
        grid = small_grid(spread=0.5)
        frame = grid.frame
        point = frame_point(frame, 5)
        event = FireEvent(0, point, 5, recorded_area_km2=50.0)
        fx, fy = project_point(frame, point)
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
        fx, fy = project_point(frame, point)
        far = math.sqrt(100.0 / math.pi) + 0.1
        record = simulate_fire(event, np.array([[fx + far, fy]]), grid)
        assert not record.detected
        assert record.burned_km2 == 234.5

    def test_zero_spread_degenerate(self):
        grid = small_grid(spread=0.0)
        frame = grid.frame
        point = frame_point(frame, 5)
        event = FireEvent(0, point, 5, recorded_area_km2=90.0)
        fx, fy = project_point(frame, point)
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
        result = run_campaign(grid, placement, catalog, ECON, trials=5, seed=8)
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
        a = run_campaign(grid, placement, catalog, ECON, trials=4, seed=13)
        b = run_campaign(grid, placement, catalog, ECON, trials=4, seed=13)
        assert a == b

    def test_empty_catalog_warns(self):
        grid = small_grid()
        placement = Placement((1,) * 16, budget=16)
        with pytest.warns(UserWarning):
            result = run_campaign(grid, placement, [], ECON, trials=2, seed=1)
        assert result.totals.burned_km2 == 0.0

    def test_empty_catalog_skips_the_trial_loop(self, monkeypatch):
        # Its (trials, fires) array has 0 bytes; no trial draws or searches.
        def no_draw(*args):
            raise AssertionError("a trial drew sensors")

        monkeypatch.setattr(campaign, "_draw", no_draw)
        grid = small_grid()
        placement = Placement((1,) * 16, budget=16)
        start = time.perf_counter()
        with pytest.warns(UserWarning, match="^empty fire catalog; campaign totals are zero$"):
            result = run_campaign(grid, placement, [], ECON, trials=10**7, seed=1)
        assert time.perf_counter() - start < 5.0
        assert result.trials == 10**7 and result.fires == ()
        t = result.totals
        assert (t.burned_km2, t.carbon_ton, t.baseline_burned_km2, t.baseline_carbon_ton,
                t.carbon_reduction_ton, t.carbon_revenue_usd) == (0.0,) * 6

    def test_more_sensors_burn_less_on_average(self):
        grid = small_grid()
        frame = grid.frame
        catalog = self.make_catalog(grid, frame, n=12)
        small = Placement((2,) * 16, budget=32)
        big = Placement((12,) * 16, budget=192)
        r_small = run_campaign(grid, small, catalog, ECON, trials=20, seed=3)
        r_big = run_campaign(grid, big, catalog, ECON, trials=20, seed=3)
        assert r_big.totals.burned_km2 <= r_small.totals.burned_km2

    @pytest.mark.parametrize(
        "counts, trials, error",
        [((3,) * 16, 0, "trials must be >= 1"), ((3,) * 15, 2, "placement length does not match grid size")],
        ids=["no-trials", "short-placement"],
    )
    def test_bad_arguments_rejected(self, counts, trials, error):
        grid = small_grid()
        catalog = self.make_catalog(grid, grid.frame)
        with pytest.raises(ValidationError, match=f"^{error}$"):
            run_campaign(grid, Placement(counts, 48), catalog, ECON, trials=trials, seed=0)

    def test_draw_out_of_memory_is_a_validation_error(self, monkeypatch):
        def no_memory(shape, *args, **kwargs):
            raise MemoryError

        grid = small_grid()
        catalog = self.make_catalog(grid, grid.frame)
        monkeypatch.setattr(np, "empty", no_memory)
        # A trial draws only the 33 rows of the 11 cells near a fire, 16 bytes each.
        with pytest.raises(ValidationError, match="^out of memory for 48 sensors: .* 528 bytes$"):
            run_campaign(grid, Placement((3,) * 16, 48), catalog, ECON, trials=2, seed=0)

    def test_unindexable_draw_is_out_of_memory(self, monkeypatch):
        # numpy refuses a shape past what it can index with ValueError, not MemoryError.
        def too_big(shape, *args, **kwargs):
            raise ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than "
                             "the maximum possible size.")

        grid = small_grid()
        catalog = self.make_catalog(grid, grid.frame)
        monkeypatch.setattr(np, "empty", too_big)
        with pytest.raises(ValidationError, match="^out of memory for 48 sensors: .* 528 bytes$"):
            run_campaign(grid, Placement((3,) * 16, 48), catalog, ECON, trials=2, seed=0)

    def test_negative_seed_is_not_out_of_memory(self):
        grid = small_grid()
        catalog = self.make_catalog(grid, grid.frame)
        with pytest.raises(ValidationError, match="^seed must be an integer >= 0, got -1$"):
            run_campaign(grid, Placement((3,) * 16, 48), catalog, ECON, trials=2, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7", None])
    def test_non_integer_seed_rejected(self, seed):
        grid = small_grid()
        catalog = self.make_catalog(grid, grid.frame)
        with pytest.raises(ValidationError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            run_campaign(grid, Placement((3,) * 16, 48), catalog, ECON, trials=2, seed=seed)

    def test_numpy_integer_seed_runs_as_its_int(self):
        grid = small_grid()
        catalog = self.make_catalog(grid, grid.frame)
        placement = Placement((3,) * 16, 48)
        assert (run_campaign(grid, placement, catalog, ECON, trials=2, seed=np.int64(5))
                == run_campaign(grid, placement, catalog, ECON, trials=2, seed=5))

    @pytest.mark.parametrize("region_id", [-1, 2, 1.0, None])
    def test_region_id_outside_the_grid_rejected(self, region_id):
        # Region 1 cannot spread: read as region -1, the fire in region 0 would burn nothing.
        grid = grid_of([dict(region_for(0, 0.5, 0.5), spread_rate=0.6, lat=36.0, lon=-120.0),
                        dict(region_for(1, 0.5, 0.5), spread_rate=0.0, lat=36.0, lon=-119.89)], 100.0)
        fire = FireEvent(3, GeoPoint(36.0, -120.0), region_id, recorded_area_km2=10.0)
        with pytest.raises(ValidationError,
                           match=rf"^fire 3: region_id {region_id!r} is not a region of the grid, 0 to 1$"):
            run_campaign(grid, Placement((1, 1), 2), [fire], ECON, trials=2, seed=0)
        with pytest.raises(ValidationError, match="^fire 3: region_id "):
            baseline_outcomes([fire], grid)
        placed = FireEvent(3, GeoPoint(36.0, -120.0), 0, recorded_area_km2=10.0)
        assert run_campaign(grid, Placement((0, 0), 0), [placed], ECON, trials=2, seed=0).totals.burned_km2 == 10.0

    def test_gather_out_of_memory_is_a_validation_error(self, monkeypatch):
        class NoGather(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray):  # a gather; slices still draw
                    raise MemoryError
                return super().__getitem__(key)

            def take(self, *args, **kwargs):  # the gather kernel's row gather
                raise MemoryError

        empty = np.empty
        grid = small_grid()
        catalog = self.make_catalog(grid, grid.frame)

        def gather_fails(shape, *args, **kwargs):
            a = empty(shape, *args, **kwargs)
            return a.view(NoGather) if a.ndim == 2 else a  # the (rows, 2) draw buffer only

        monkeypatch.setattr(np, "empty", gather_fails)
        with pytest.raises(ValidationError, match="^out of memory for 48 sensors: "):
            run_campaign(grid, Placement((3,) * 16, 48), catalog, ECON, trials=2, seed=0)

    def test_writers(self, tmp_path):
        grid = small_grid()
        frame = grid.frame
        catalog = self.make_catalog(grid, frame)
        placement = Placement((2,) * 16, budget=32)
        result = run_campaign(grid, placement, catalog, ECON, trials=2, seed=6)
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
    burned, carbon = baseline_outcomes(events, grid)
    assert burned.tolist() == [77.0]
    assert carbon[0] == pytest.approx(carbon_emission_ton(77.0, 1.0), rel=1e-12)


def test_baseline_outcomes_are_read_only():
    grid = small_grid()
    events = [FireEvent(0, frame_point(grid.frame, 5), 5, recorded_area_km2=77.0)]
    burned, carbon = baseline_outcomes(events, grid)
    with pytest.raises(ValueError):
        burned[0] = 1.0
    with pytest.raises(ValueError):
        carbon[0] = 1.0


def test_catalog_state_is_kept_per_catalog_value():
    # The placement-independent state is kept per catalog value: an equal
    # catalog shares it, one that differs in a recorded area gets its own.
    grid = small_grid()
    frame = grid.frame
    first = [FireEvent(0, frame_point(frame, 5), 5, 77.0), FireEvent(1, frame_point(frame, 10), 10, 3.0)]
    second = [first[0], FireEvent(1, frame_point(frame, 10), 10, 250.0)]
    placement = Placement((1,) * len(grid), budget=len(grid))
    runs = [run_campaign(grid, placement, catalog, ECON, trials=2, seed=7)
            for catalog in (first, list(first), second)]
    assert baseline_outcomes(list(first), grid)[0] is baseline_outcomes(first, grid)[0]
    fresh = small_grid()
    for got, want in zip(baseline_outcomes(second, grid), baseline_outcomes(second, fresh)):
        assert got.tolist() == want.tolist()
    assert baseline_outcomes(second, grid)[0].tolist() == [77.0, 250.0]
    assert runs[0] == runs[1]
    assert runs[2] == run_campaign(fresh, placement, second, ECON, trials=2, seed=7)
