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
from typing import NamedTuple

import numpy as np

from .atomic import write_csv, write_json
from .errors import ValidationError
from .grid import FireEvent, GridFrame, RegionGrid
from .placement import Placement

@dataclass(frozen=True)
class EconomicsParams:
    """Monetary coefficients for the savings computation."""

    carbon_price_usd_per_ton: float = 200.0
    device_cost_usd: float = 10.0
    bandwidth_cost_usd: float = 0.0

    def __post_init__(self):
        if min(self.carbon_price_usd_per_ton, self.device_cost_usd, self.bandwidth_cost_usd) < 0:
            raise ValidationError("economic parameters must be >= 0")


@dataclass(frozen=True)
class FireRecord:
    """Outcome of one fire under one sensor scatter."""

    detected: bool
    degenerate: bool
    detection_time_h: float | None
    burned_km2: float
    carbon_ton: float


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


def scatter_sensors(placement: Placement, grid: RegionGrid, seed) -> np.ndarray:
    """Uniform sensor positions inside each region's square cell, (n, 2) km.

    Deterministic under a fixed seed; seed may be an int or a sequence of
    ints (used to derive independent per-trial streams).
    """
    if len(placement.counts) != len(grid):
        raise ValidationError("placement length does not match grid size")
    counts = np.asarray(placement.counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, 2))
    reps = np.repeat(np.arange(len(counts)), counts)
    offsets = (np.random.default_rng(seed).random((total, 2)) - 0.5) * grid.frame.side_km
    return grid.frame.centers_xy[reps] + offsets


def baseline_outcomes(catalog: list[FireEvent], grid: RegionGrid) -> list[FireRecord]:
    """No-detection outcomes: every fire burns its cataloged area."""
    frame = grid.frame
    records = []
    for event in catalog:
        fx, fy = frame.project(event.ignition)
        burned = event.recorded_area_km2
        radius = math.sqrt(burned / math.pi)
        carbon = carbon_emission_ton(burned, frame.biomass_avg(fx, fy, radius))
        records.append(FireRecord(False, False, None, burned, carbon))
    return records


# About how many rows of a trial's draw the gather kernel takes at a time.
_BLOCK_ROWS = 8192
# Slack, in km, on the distance within which phase 2 looks for a nearer
# sensor. Sensor positions and cell gaps carry absolute rounding errors near
# 1e-13 km, far below it.
_SLACK_KM = 1e-6


def _candidate_cells(frame: GridFrame, fire_xy: np.ndarray, r_max: float):
    """Per fire, the cells whose square reaches within r_max of its point.

    Returns (gap_sq, cells): row i holds fire i's candidate cells in
    ascending order and their squared gaps, as GridFrame.cells_within
    computes them; rows are padded with gap inf and cell -1.
    """
    reach = r_max * (1.0 + 1e-9)
    found = [frame.cells_within(x, y, reach) for x, y in fire_xy.tolist()]
    width = max([1] + [len(c) for c, _ in found])
    gap_sq = np.full((len(found), width), np.inf)
    cells = np.full((len(found), width), -1)
    for i, (c, gap) in enumerate(found):
        gap_sq[i, : len(c)] = gap
        cells[i, : len(c)] = c
    return gap_sq, cells


class _Pairs(NamedTuple):
    """(fire, candidate cell with sensors) pairs in fire order: pair p covers
    rows[p] rows of a trial's draw from row first[p], for the cell centred at
    center[p] whose square lies gap_sq[p] (squared) from fire fire[p] at xy[p]."""

    fire: np.ndarray
    gap_sq: np.ndarray
    first: np.ndarray
    rows: np.ndarray
    center: np.ndarray
    xy: np.ndarray

    def take(self, keep: np.ndarray) -> _Pairs:
        return _Pairs(*(a[keep] for a in self))


def _lower_nearest(nearest_sq: np.ndarray, unit: np.ndarray, side: float, pairs: _Pairs) -> None:
    """Lower each fire's nearest_sq to the squared distance of every sensor
    of its pairs' cells, gathering a chunk of about _BLOCK_ROWS rows of the
    trial's draw `unit` at a time."""
    start = np.cumsum(pairs.rows) - pairs.rows
    # A chunk holds the pairs that start in one span of _BLOCK_ROWS rows.
    # (np.unique would do too, but its first call imports numpy.ma: 10 ms, 1 MB.)
    cuts = np.flatnonzero(np.diff(start // _BLOCK_ROWS, prepend=-1)).tolist()
    for a, b in zip(cuts, cuts[1:] + [len(start)]):
        rows = pairs.rows[a:b]
        local = start[a:b] - start[a]
        rows_of_draw = np.repeat(pairs.first[a:b] - local, rows)
        rows_of_draw += np.arange(int(local[-1] + rows[-1]))
        d = unit[rows_of_draw]
        del rows_of_draw  # freed before the next chunk-sized temporaries
        d -= 0.5
        d *= side
        d += np.repeat(pairs.center[a:b], rows, axis=0)
        d -= np.repeat(pairs.xy[a:b], rows, axis=0)
        d *= d
        np.minimum.at(nearest_sq, pairs.fire[a:b], np.minimum.reduceat(d[:, 0] + d[:, 1], local))


def _biomass_means(gap_sq: np.ndarray, biomass: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """GridFrame.biomass_avg of each row's disk, over its candidate cells.

    Equal bit for bit to biomass[mask].mean(): numpy sums fewer than 8 values
    left to right, and adding the masked-out cells as +0.0 leaves a sum of
    non-negative biomass unchanged. At 8 or more selected cells numpy sums
    pairwise, so those rows call .mean() themselves.
    """
    mask = gap_sq <= (radius * radius)[:, None]
    selected = np.count_nonzero(mask, axis=1)
    total = np.cumsum(np.where(mask, biomass, 0.0), axis=1)[:, -1]
    means = np.divide(total, selected, out=np.zeros_like(total), where=selected > 0)
    for k in np.flatnonzero(selected >= 8):
        means[k] = biomass[k][mask[k]].mean()
    return means


def run_campaign(
    grid: RegionGrid,
    placement: Placement,
    catalog: list[FireEvent],
    econ: EconomicsParams,
    trials: int = 20,
    seed: int = 0,
    scheme: str = "",
) -> CampaignResult:
    """Average fire outcomes over independent sensor scatters.

    Each trial draws its generator stream from (seed, trial_index), so results
    do not depend on execution order. Savings follow
    carbon reduction x carbon price - device cost - bandwidth cost, with the
    device cost charged on deployed sensors.

    A fire grows from its ignition point until it touches the nearest sensor.
    It is detected when that sensor lies within r_max = sqrt(cell area / pi)
    and the fire spreads (or the sensor sits on the ignition point); it then
    burns pi * d**2, and its carbon uses the mean biomass of the cells its
    circle touches. Otherwise it burns its cataloged area, or nothing if it
    cannot spread.

    A scattered sensor never leaves its cell's square, so only cells whose
    square reaches within r_max of a fire can detect it; those candidate
    cells are found once. Each trial draws the same stream as scatter_sensors
    and gathers in two phases: each fire's occupied candidates at its
    smallest gap, then only those others whose square lies within the
    nearest distance found plus _SLACK_KM. Positions and squared distances
    use the same elementwise arithmetic as a KD-tree over all sensors, and a
    minimum does not depend on order, so the nearest distance matches it bit
    for bit whenever it is at most r_max. Detection is then resolved for all
    fires at once; see _biomass_means for why the biomass mean is exact.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if len(placement.counts) != len(grid):
        raise ValidationError("placement length does not match grid size")
    frame = grid.frame
    if not catalog:
        warnings.warn("empty fire catalog; campaign totals are zero")
    baseline = baseline_outcomes(catalog, grid)

    n_fires = len(catalog)
    fire_xy = np.array([frame.project(e.ignition) for e in catalog]).reshape(n_fires, 2)
    u_p = grid.spread_rate[[e.region_id for e in catalog]]
    stalled = u_p == 0.0
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)
    counts = np.asarray(placement.counts, dtype=np.int64)
    total = int(counts.sum())

    gap_sq, cells = _candidate_cells(frame, fire_xy, r_max)
    biomass = np.where(cells >= 0, frame.biomass[cells], 0.0)
    # (fire, occupied candidate) pairs; those at the fire's smallest gap go first.
    occupied = (cells >= 0) & (counts[cells] > 0)
    fire, k = np.nonzero(occupied)
    cell = cells[fire, k]
    rows = counts[cell]
    pairs = _Pairs(fire, gap_sq[fire, k], np.cumsum(counts)[cell] - rows, rows,
                   frame.centers_xy[cell], fire_xy[fire])
    nearest_cell = pairs.gap_sq == np.min(gap_sq, axis=1, initial=np.inf, where=occupied)[fire]
    first, second = pairs.take(nearest_cell), pairs.take(~nearest_cell)
    # What an undetected fire adds: its catalog record, or nothing when stalled.
    escaped_burned = np.where(stalled, 0.0, [r.burned_km2 for r in baseline])
    escaped_carbon = np.where(stalled, 0.0, [r.carbon_ton for r in baseline])

    nearest_sq = np.full(n_fires, np.inf)
    burned_sum = np.zeros(n_fires)
    carbon_sum = np.zeros(n_fires)
    time_sum = np.zeros(n_fires)
    detected_count = np.zeros(n_fires, dtype=np.int64)
    degenerate = np.zeros(n_fires, dtype=bool)

    try:
        # One buffer for every trial's draw: allocating it afresh each trial
        # costs page faults and leaves the heap fragmented.
        unit = np.empty((total, 2))
        for trial in range(trials):
            # The draws scatter_sensors turns into positions; each cell's
            # sensors are the rows after those of all lower-numbered cells.
            np.random.default_rng([seed, trial]).random(out=unit)
            nearest_sq.fill(np.inf)  # stays inf for fires with no sensor to scan
            _lower_nearest(nearest_sq, unit, frame.side_km, first)
            # Only a cell within the nearest distance found so far can hold a
            # nearer sensor; a fire with none found scans all its cells.
            reach = np.sqrt(nearest_sq) + _SLACK_KM
            within = second.gap_sq <= (reach * reach)[second.fire]
            _lower_nearest(nearest_sq, unit, frame.side_km, second.take(within))
            nearest = np.sqrt(nearest_sq)
            detected = (nearest <= r_max) & ((u_p > 0.0) | (nearest == 0.0))
            hit = np.flatnonzero(detected)
            dist = nearest[hit]
            burned = np.array([math.pi * r**2 for r in dist.tolist()])
            trial_burned = escaped_burned.copy()
            trial_burned[hit] = burned
            trial_carbon = escaped_carbon.copy()
            trial_carbon[hit] = carbon_emission_ton(burned, _biomass_means(gap_sq[hit], biomass[hit], dist))
            burned_sum += trial_burned
            carbon_sum += trial_carbon
            time_sum[hit] += np.divide(dist, u_p[hit], out=np.zeros_like(dist), where=dist != 0.0)
            detected_count += detected
            degenerate |= stalled & ~detected
    except MemoryError:
        raise ValidationError(
            f"out of memory for {total} sensors: each trial's draw needs {16 * total} bytes"
        ) from None

    outcomes = []
    for i, event in enumerate(catalog):
        n_det = int(detected_count[i])
        outcomes.append(
            FireOutcome(
                fire_id=event.id,
                region_id=event.region_id,
                recorded_area_km2=event.recorded_area_km2,
                detection_rate=n_det / trials,
                detection_time_h=float(time_sum[i]) / n_det if n_det else None,
                burned_km2=float(burned_sum[i]) / trials,
                carbon_ton=float(carbon_sum[i]) / trials,
                degenerate=bool(degenerate[i]),
            )
        )

    base_carbon = sum(r.carbon_ton for r in baseline)
    total_carbon = sum(o.carbon_ton for o in outcomes)
    reduction = base_carbon - total_carbon
    revenue = reduction * econ.carbon_price_usd_per_ton
    device_cost = placement.deployed * econ.device_cost_usd
    totals = CampaignTotals(
        burned_km2=sum(o.burned_km2 for o in outcomes),
        carbon_ton=total_carbon,
        baseline_burned_km2=sum(r.burned_km2 for r in baseline),
        baseline_carbon_ton=base_carbon,
        carbon_reduction_ton=reduction,
        carbon_revenue_usd=revenue,
        device_cost_usd=device_cost,
        bandwidth_cost_usd=econ.bandwidth_cost_usd,
        savings_usd=revenue - device_cost - econ.bandwidth_cost_usd,
    )
    return CampaignResult(scheme=scheme, seed=seed, trials=trials, budget=placement.budget,
                          sensors_deployed=placement.deployed, fires=tuple(outcomes), totals=totals)


def campaign_summary_dict(result: CampaignResult) -> dict:
    """The result's fields, with n_fires in place of the per-fire outcomes."""
    summary = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "fires"}
    summary["totals"] = asdict(result.totals)
    summary["n_fires"] = len(result.fires)
    return summary


def write_campaign_json(result: CampaignResult, path) -> None:
    write_json(path, campaign_summary_dict(result))


# Columns of the fires CSV: every FireOutcome field but `degenerate`.
FIRE_COLUMNS = [f.name for f in fields(FireOutcome) if f.name != "degenerate"]


def write_fires_csv(result: CampaignResult, path) -> None:
    write_csv(path, FIRE_COLUMNS, ([getattr(o, c) for c in FIRE_COLUMNS] for o in result.fires))
