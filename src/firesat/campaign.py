"""Seeded Monte Carlo simulation of a fire season against an ignition catalog.

Sensors are scattered uniformly inside their assigned cells, each cataloged
fire grows as a circle from its ignition point until the circle first touches
a sensor, and burned area converts to carbon and money. Distances are taken
in the grid's planar frame (RegionGrid.frame).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .atomic import write_csv, write_json
from .errors import NumericError, ValidationError
# GridFrame stays reachable as campaign.GridFrame, where perfbench/tracing.py
# wraps its biomass_avg.
from .grid import FireEvent, GridFrame, RegionGrid, blocks_of_runs
from .placement import Placement

@dataclass(frozen=True)
class EconomicsParams:
    """Monetary coefficients for the savings computation."""

    carbon_price_usd_per_ton: float
    device_cost_usd: float
    bandwidth_cost_usd: float

    def __post_init__(self):
        if not all(getattr(self, f.name) >= 0 for f in fields(self)):  # NaN fails too
            raise ValidationError("economic parameters must be >= 0")

    def money(self, reduction_ton: float, deployed: int) -> tuple[float, float, float]:
        """Carbon revenue, device cost and savings, in USD, of a carbon
        reduction by `deployed` sensors; NumericError unless all are finite."""
        revenue = reduction_ton * self.carbon_price_usd_per_ton
        device_cost = deployed * self.device_cost_usd
        savings = revenue - device_cost - self.bandwidth_cost_usd
        # An inf or nan revenue or cost leaves the savings inf or nan.
        if not math.isfinite(savings):
            raise NumericError(f"savings overflow a float: carbon revenue {revenue} USD, device "
                               f"cost {device_cost} USD, bandwidth cost {self.bandwidth_cost_usd} USD")
        return revenue, device_cost, savings


@dataclass(frozen=True)
class FireOutcome:
    """Per-fire outcome averaged over all trials."""

    fire_id: int
    region_id: int
    recorded_area_km2: float
    detection_rate: float
    detection_time_h: float | None
    burned_km2: float
    carbon_ton: float
    degenerate: bool


@dataclass(frozen=True)
class CampaignTotals:
    burned_km2: float
    carbon_ton: float
    baseline_burned_km2: float
    baseline_carbon_ton: float
    carbon_reduction_ton: float
    carbon_revenue_usd: float
    device_cost_usd: float
    bandwidth_cost_usd: float
    savings_usd: float


@dataclass(frozen=True)
class CampaignResult:
    scheme: str
    seed: int
    trials: int
    budget: int
    sensors_deployed: int
    fires: tuple[FireOutcome, ...]
    totals: CampaignTotals


def carbon_emission_ton(burned_km2: float, biomass_avg: float) -> float:
    """Carbon emitted by a burned area: area x 1.2 x average biomass x 100."""
    return burned_km2 * 1.2 * biomass_avg * 100.0


def _fire_state(grid: RegionGrid, catalog: list[FireEvent]) -> tuple[np.ndarray, ...]:
    """The catalog's placement-independent arrays on the grid, read-only: the
    projected ignitions, spread rates, the disks() rows (gap_sq, cells) of the
    candidate cells within r_max, and the no-detection burned area and carbon.
    Built once per catalog value and kept in grid.memo: the grid's columns are
    read-only and each FireEvent is frozen."""
    key = ("fire_state", tuple(catalog))
    state = grid.memo.get(key)
    if state is None:
        for e in catalog:
            if not (isinstance(e.region_id, (int, np.integer)) and 0 <= e.region_id < len(grid)):
                raise ValidationError(f"fire {e.id}: region_id {e.region_id!r} is not a region "
                                      f"of the grid, 0 to {len(grid) - 1}")
        frame = grid.frame
        fires = np.array([(e.ignition.lat, e.ignition.lon, e.recorded_area_km2) for e in catalog],
                         dtype=np.float64).reshape(len(catalog), 3)
        xy = frame.project_columns(fires[:, 0], fires[:, 1])
        burned = fires[:, 2].copy()
        radius = np.sqrt(burned / math.pi)
        r_max = math.sqrt(grid.cell_area_km2 / math.pi)
        # A huge cell area or recorded area overflows a carbon to inf, or to nan
        # over a zero biomass mean; run_campaign checks its totals instead.
        with np.errstate(over="ignore", invalid="ignore"):
            carbon = carbon_emission_ton(burned, frame.disk_biomass(*frame.disks(xy, radius), radius))
        state = grid.memo[key] = (xy, grid.spread_rate[[e.region_id for e in catalog]],
                                  *frame.disks(xy, r_max * (1.0 + 1e-9)), burned, carbon)
        for a in state:
            a.flags.writeable = False
    return state


def baseline_outcomes(catalog: list[FireEvent], grid: RegionGrid) -> tuple[np.ndarray, np.ndarray]:
    """No-detection outcomes: every fire burns its cataloged area.

    Returns each fire's burned area and carbon, the latter over the mean
    biomass of the cells its burned circle touches; both read-only.
    """
    return _fire_state(grid, catalog)[4:]


# Slack, in km, on the distance within which phase 2 looks for a nearer
# sensor. Sensor positions and cell gaps carry absolute rounding errors near
# 1e-13 km, far below it.
_SLACK_KM = 1e-6


class _Pairs(NamedTuple):
    """(fire, candidate cell with sensors) pairs in fire order: pair p covers
    rows[p] rows of a trial's packed draw from row first[p], for the cell
    centred at center[p] whose square lies gap_sq[p] (squared) from fire
    fire[p] at xy[p]."""

    fire: np.ndarray
    gap_sq: np.ndarray
    first: np.ndarray
    rows: np.ndarray
    center: np.ndarray
    xy: np.ndarray

    def take(self, keep: np.ndarray) -> _Pairs:
        return _Pairs(*(a[keep] for a in self))


def _draw_plan(counts: np.ndarray, used: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Which rows of its full draw a trial draws: those of the `used` cells,
    packed in cell order. The full draw is
    default_rng([seed, trial]).random((deployed, 2)), and cell k owns its
    rows cumsum(counts)[k-1] to cumsum(counts)[k].

    Returns each cell's first packed row and the segments (skip, lo, hi): a
    segment advances the stream by `skip` outputs, then draws packed rows lo
    to hi. Taken in cell order, the cells holding sensors form runs of used
    and unused cells, and each used run is one contiguous stretch of the full
    draw. A double is one 64-bit output, so row r starts at output 2r.
    """
    packed = np.where(used, counts, 0)
    first = np.cumsum(packed) - packed
    held = np.flatnonzero(counts)
    edges = np.flatnonzero(np.diff(used[held], prepend=False, append=False)).tolist()
    # Python ints: an int64 sum of counts could wrap, and PCG64.advance
    # overflows on a numpy int.
    ends = [0, *accumulate(counts[held].tolist())]
    segments = []
    at = lo = 0
    for a, b in zip(edges[::2], edges[1::2]):
        hi = lo + ends[b] - ends[a]
        segments.append((2 * (ends[a] - at), lo, hi))
        at, lo = ends[b], hi
    return first, segments


def _draw(unit: np.ndarray, segments: list[tuple[int, int, int]], seed: int, trial: int) -> None:
    """Fill `unit` with the packed rows of trial `trial`'s full draw,
    default_rng([seed, trial]).random((deployed, 2)), segment by segment."""
    bits = np.random.PCG64(np.random.SeedSequence([seed, trial]))
    draw = np.random.Generator(bits).random
    for skip, lo, hi in segments:
        bits.advance(skip)
        draw(out=unit[lo:hi])


def _lower_nearest(nearest_sq: np.ndarray, unit: np.ndarray, side: float, pairs: _Pairs) -> None:
    """Lower each fire's nearest_sq to the squared distance of every sensor
    of its pairs' cells, gathering the trial's draw `unit` one block of
    blocks_of_runs at a time."""
    for a, b, local, rows_of_draw in blocks_of_runs(pairs.first, pairs.rows):
        rows = pairs.rows[a:b]
        # take copies the same rows as unit[rows_of_draw], about ten times faster.
        d = unit.take(rows_of_draw, axis=0)
        del rows_of_draw  # blocks_of_runs holds no copy: freed before the temporaries below
        d -= 0.5
        d *= side
        d += np.repeat(pairs.center[a:b], rows, axis=0)
        d -= np.repeat(pairs.xy[a:b], rows, axis=0)
        d *= d
        np.minimum.at(nearest_sq, pairs.fire[a:b], np.minimum.reduceat(d[:, 0] + d[:, 1], local))


def _nearest_by_trial(grid: RegionGrid, placement: Placement, catalog: list[FireEvent],
                      trials: int, seed: int) -> np.ndarray:
    """Each trial's nearest-sensor distance from each fire, as a C-ordered
    (trials, fires) array: exact wherever it is at most r_max =
    sqrt(cell area / pi), inf where no candidate cell holds a sensor.

    Trial t's sensors are the full draw default_rng([seed, t]).random((deployed, 2)):
    cell k's sensors are its rows cumsum(counts)[k-1] to cumsum(counts)[k],
    a row u placing one at the cell's centre plus (u - 0.5) * side. A sensor
    never leaves its cell's square, so a trial draws only the rows of the
    occupied candidate cells of _fire_state (see _draw_plan). It gathers in
    two phases: each fire's occupied candidates at its smallest gap, then
    only those others whose square lies within the nearest distance found
    plus _SLACK_KM. Positions and squared distances use the same elementwise
    arithmetic as a KD-tree over all sensors, and a minimum does not depend
    on order, so a distance within r_max matches the tree's bit for bit.
    """
    frame = grid.frame
    fire_xy, _, gap_sq, cells = _fire_state(grid, catalog)[:4]
    try:
        counts = np.asarray(placement.counts, dtype=np.int64)
    except OverflowError:
        i, n = next((i, n) for i, n in enumerate(placement.counts) if n > np.iinfo(np.int64).max)
        raise ValidationError(f"region {i}: sensor count {n} does not fit an int64") from None

    # (fire, occupied candidate) pairs; those at the fire's smallest gap go first.
    occupied = (cells >= 0) & (counts[cells] > 0)
    fire, k = np.nonzero(occupied)
    cell = cells[fire, k]
    # A trial draws only the rows of the cells some pair reads. (np.unique
    # would find them too, but see the numpy.ma note in grid.blocks_of_runs.)
    used = np.zeros(len(counts), dtype=bool)
    used[cell] = True
    first_row, segments = _draw_plan(counts, used)
    drawn = segments[-1][2] if segments else 0
    pairs = _Pairs(fire, gap_sq[fire, k], first_row[cell], counts[cell],
                   frame.centers_xy[cell], fire_xy[fire])
    nearest_cell = pairs.gap_sq == np.min(gap_sq, axis=1, initial=np.inf, where=occupied)[fire]
    first, second = pairs.take(nearest_cell), pairs.take(~nearest_cell)

    try:
        nearest_sq = np.full((trials, len(catalog)), np.inf)  # stays inf for a fire with no sensor to scan
    except ValueError:  # more entries than numpy can index
        raise MemoryError from None
    if not len(pairs.fire):  # no fire has a sensor to scan in any trial
        return nearest_sq
    try:
        # One buffer for every trial's draw: allocating it afresh each trial
        # costs page faults and leaves the heap fragmented.
        try:
            unit = np.empty((drawn, 2))
        except ValueError:  # more rows than numpy can index
            raise MemoryError from None
        for trial, row in enumerate(nearest_sq):
            _draw(unit, segments, seed, trial)
            _lower_nearest(row, unit, frame.side_km, first)
            # Only a cell within the nearest distance found so far can hold a
            # nearer sensor; a fire with none found scans all its cells.
            reach = np.sqrt(row) + _SLACK_KM
            within = second.gap_sq <= (reach * reach)[second.fire]
            _lower_nearest(row, unit, frame.side_km, second.take(within))
    except MemoryError:
        raise ValidationError(
            f"out of memory for {placement.deployed} sensors: each trial's draw needs {16 * drawn} bytes"
        ) from None
    return np.sqrt(nearest_sq, out=nearest_sq)


def run_campaign(
    grid: RegionGrid,
    placement: Placement,
    catalog: list[FireEvent],
    econ: EconomicsParams,
    trials: int,
    seed: int,
    scheme: str = "",
) -> CampaignResult:
    """Average fire outcomes over independent sensor scatters.

    Trial t's sensors come from the stream (seed, t), so results do not
    depend on execution order; _nearest_by_trial finds each fire's nearest
    sensor in each trial. A fire grows from its ignition point until it
    touches that sensor. It is detected when the sensor lies within
    r_max = sqrt(cell area / pi) and the fire spreads (or the sensor sits on
    the ignition point); it then burns pi * d**2, and its carbon uses the
    mean biomass of the cells its circle touches. Otherwise it burns its
    cataloged area, or nothing if it cannot spread. Savings follow
    carbon reduction x carbon price - device cost - bandwidth cost, with the
    device cost charged on deployed sensors. The rule runs on every
    (trial, fire) at once; GridFrame.disk_biomass says why its mean is exact.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    if len(placement.counts) != len(grid):
        raise ValidationError("placement length does not match grid size")
    if not catalog:
        warnings.warn("empty fire catalog; campaign totals are zero")
    _, u_p, gap_sq, cells, base_burned, base_carbon = _fire_state(grid, catalog)
    stalled = u_p == 0.0
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)

    try:
        nearest = _nearest_by_trial(grid, placement, catalog, trials, seed)
        detected = (nearest <= r_max) & ((u_p > 0.0) | (nearest == 0.0))
        hit = np.nonzero(detected)[1]  # the fire of each detected entry, trial by trial
        dist = nearest[detected]
        escaped = ~detected & ~stalled  # an undetected fire that spreads burns its record
        trial_burned = np.where(escaped, base_burned, 0.0)
        trial_carbon = np.where(escaped, base_carbon, 0.0)
        area = np.array([math.pi * r**2 for r in dist.tolist()])
        trial_burned[detected] = area
        trial_time = np.divide(nearest, u_p, out=np.zeros_like(nearest), where=detected & (nearest != 0.0))
        # accumulate adds trials in order; np.add.reduce sums one fire's pairwise.
        with np.errstate(over="ignore", invalid="ignore"):  # the totals are checked
            biomass = grid.frame.disk_biomass(gap_sq[hit], cells[hit], dist)
            trial_carbon[detected] = carbon_emission_ton(area, biomass)
            burned_sum = np.add.accumulate(trial_burned, axis=0)[-1]
            carbon_sum = np.add.accumulate(trial_carbon, axis=0)[-1]
        time_sum = np.add.accumulate(trial_time, axis=0)[-1]
        detected_count = np.count_nonzero(detected, axis=0)
    except MemoryError:
        raise ValidationError(
            f"out of memory for {trials} trials of {len(catalog)} fires: "
            f"each (trials, fires) array needs {8 * trials * len(catalog)} bytes"
        ) from None

    degenerate = stalled & (detected_count < trials)
    fires = tuple(
        FireOutcome(
            fire_id=event.id,
            region_id=event.region_id,
            recorded_area_km2=event.recorded_area_km2,
            detection_rate=n_det / trials,
            detection_time_h=time / n_det if n_det else None,
            burned_km2=burned / trials,
            carbon_ton=carbon / trials,
            degenerate=flag,
        )
        for event, n_det, time, burned, carbon, flag in zip(
            catalog, detected_count.tolist(), time_sum.tolist(), burned_sum.tolist(),
            carbon_sum.tolist(), degenerate.tolist())
    )

    burned_total = sum(o.burned_km2 for o in fires)
    baseline_burned = sum(base_burned.tolist())
    baseline_carbon = sum(base_carbon.tolist())
    total_carbon = sum(o.carbon_ton for o in fires)
    # Every term is non-negative or nan, so an inf or nan in any fire's
    # burned area or carbon, or an overflowing sum of them, leaves one of
    # these inf or nan.
    if not all(map(math.isfinite, (burned_total, baseline_burned, baseline_carbon, total_carbon))):
        largest = max((e.recorded_area_km2 for e in catalog), default=0.0)
        raise NumericError(
            f"burned area or carbon overflows a float at grid.cell_area_km2 = {grid.cell_area_km2}"
            f" and largest recorded_area_km2 = {largest}"
        )
    reduction = baseline_carbon - total_carbon
    revenue, device_cost, savings = econ.money(reduction, placement.deployed)
    totals = CampaignTotals(
        burned_km2=burned_total,
        carbon_ton=total_carbon,
        baseline_burned_km2=baseline_burned,
        baseline_carbon_ton=baseline_carbon,
        carbon_reduction_ton=reduction,
        carbon_revenue_usd=revenue,
        device_cost_usd=device_cost,
        bandwidth_cost_usd=econ.bandwidth_cost_usd,
        savings_usd=savings,
    )
    return CampaignResult(scheme=scheme, seed=seed, trials=trials, budget=placement.budget,
                          sensors_deployed=placement.deployed, fires=fires, totals=totals)


def write_campaign_json(result: CampaignResult, path) -> None:
    """Write the result's fields, with n_fires in place of the per-fire outcomes."""
    summary = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "fires"}
    write_json(path, {**summary, "totals": asdict(result.totals), "n_fires": len(result.fires)})


# Columns of the fires CSV: every FireOutcome field but `degenerate`.
FIRE_COLUMNS = [f.name for f in fields(FireOutcome) if f.name != "degenerate"]


def write_fires_csv(result: CampaignResult, path) -> None:
    write_csv(path, FIRE_COLUMNS, ([getattr(o, c) for c in FIRE_COLUMNS] for o in result.fires))
