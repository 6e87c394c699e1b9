"""Seeded Monte Carlo simulation of a fire season against an ignition catalog.

Sensors are scattered uniformly inside their assigned cells, each cataloged
fire grows as a circle from its ignition point until the circle first touches
a sensor, and burned area converts to carbon and money. Distances are taken
in the grid's planar frame (RegionGrid.frame).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write
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
    return _scatter(placement, grid.frame, np.random.default_rng(seed))


def _scatter(placement: Placement, frame: GridFrame, rng: np.random.Generator) -> np.ndarray:
    counts = np.asarray(placement.counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, 2))
    reps = np.repeat(np.arange(len(counts)), counts)
    offsets = (rng.random((total, 2)) - 0.5) * frame.side_km
    return frame.centers_xy[reps] + offsets


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


# Rows that one block of fires gathers from a trial's draw; blocks hold whole
# fires, so a fire with more candidate rows makes a larger block.
_BLOCK_ROWS = 8192


def _candidate_cells(frame: GridFrame, fire_xy: np.ndarray, r_max: float):
    """Per fire, the cells whose square reaches within r_max of its point.

    Returns (gap_sq, biomass, cells): row i of gap_sq holds fire i's squared
    distances to its candidate squares, as GridFrame.intersecting_mask
    computes them, padded with inf; row i of biomass holds those cells'
    biomass, padded with 0; cells[i] lists the cells in ascending order.
    """
    reach = r_max * (1.0 + 1e-9)
    cells, gaps = [], []
    for x, y in fire_xy.tolist():
        gap = frame.gap_sq(x, y)
        cells.append(np.flatnonzero(gap <= reach * reach))
        gaps.append(gap[cells[-1]])
    width = max([1] + [len(c) for c in cells])
    gap_sq = np.full((len(cells), width), np.inf)
    biomass = np.zeros((len(cells), width))
    for i, c in enumerate(cells):
        gap_sq[i, : len(c)] = gaps[i]
        biomass[i, : len(c)] = frame.biomass[c]
    return gap_sq, biomass, cells


class _Block(NamedTuple):
    """Whole fires whose candidate sensors a trial gathers in one array.

    The array holds `size` rows: one run per (fire, candidate cell with
    sensors) pair, in fire order. Pair p's run has rows[p] rows, its k-th row
    is row shift[p] + k of the trial's draw (k counted over the whole array),
    and it is offset by the cell's center[p] and the fire's xy[p]. The runs of
    fire fires[j] start at row first_row[j].
    """

    fires: np.ndarray
    first_row: np.ndarray
    size: int
    shift: np.ndarray
    rows: np.ndarray
    center: np.ndarray
    xy: np.ndarray


def _scan_blocks(
    cells: list[np.ndarray], counts: np.ndarray, centers: np.ndarray, fire_xy: np.ndarray
) -> list[_Block]:
    """The fires with sensors in their candidate cells, in blocks of about
    _BLOCK_ROWS rows."""
    ends = np.cumsum(counts)
    occupied = [(i, c[counts[c] > 0]) for i, c in enumerate(cells)]
    occupied = [(i, c) for i, c in occupied if len(c)]
    blocks = []
    first = size = 0
    for k, (_, c) in enumerate(occupied):
        size += int(counts[c].sum())
        if size < _BLOCK_ROWS and k + 1 < len(occupied):
            continue
        group = occupied[first : k + 1]
        fires = np.array([i for i, _ in group])
        pairs = [len(c) for _, c in group]
        pair_cells = np.concatenate([c for _, c in group])
        rows = counts[pair_cells]
        pair_row = np.cumsum(rows) - rows
        blocks.append(
            _Block(
                fires=fires,
                first_row=pair_row[np.cumsum(pairs) - pairs],
                size=size,
                shift=ends[pair_cells] - rows - pair_row,
                rows=rows,
                center=centers[pair_cells],
                xy=fire_xy[np.repeat(fires, pairs)],
            )
        )
        first, size = k + 1, 0
    return blocks


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
    square reaches within r_max of a fire can detect it. Those candidate
    cells are found once. Each trial draws the same stream as scatter_sensors,
    gathers the candidate cells' sensors for a block of fires at a time, and
    takes each fire's minimum squared distance with one reduction. Positions
    and squared distances use the same elementwise arithmetic as a KD-tree
    over all scattered sensors, and a minimum does not depend on order, so
    the nearest distance matches it bit for bit whenever it is at most r_max.
    Detection is then resolved for all fires at once; see _biomass_means for
    why the biomass mean is exact.
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

    gap_sq, biomass, cells = _candidate_cells(frame, fire_xy, r_max)
    blocks = _scan_blocks(cells, counts, frame.centers_xy, fire_xy)
    # What an undetected fire adds: its catalog record, or nothing when stalled.
    escaped_burned = np.where(stalled, 0.0, [r.burned_km2 for r in baseline])
    escaped_carbon = np.where(stalled, 0.0, [r.carbon_ton for r in baseline])

    nearest_sq = np.full(n_fires, np.inf)  # stays inf for fires in no block
    burned_sum = np.zeros(n_fires)
    carbon_sum = np.zeros(n_fires)
    time_sum = np.zeros(n_fires)
    detected_count = np.zeros(n_fires, dtype=np.int64)
    degenerate = np.zeros(n_fires, dtype=bool)

    # One buffer for every trial's draw: allocating it afresh each trial costs
    # page faults and leaves the heap fragmented.
    unit = np.empty((total, 2))
    for trial in range(trials):
        # The draws _scatter turns into positions; each cell's sensors are
        # the rows after those of all lower-numbered cells.
        np.random.default_rng([seed, trial]).random(out=unit)
        for fires, first_row, size, shift, rows, center, xy in blocks:
            rows_of_draw = np.repeat(shift, rows)
            rows_of_draw += np.arange(size)
            d = unit[rows_of_draw]
            del rows_of_draw  # freed before the next block-sized temporaries
            d -= 0.5
            d *= frame.side_km
            d += np.repeat(center, rows, axis=0)
            d -= np.repeat(xy, rows, axis=0)
            d *= d
            nearest_sq[fires] = np.minimum.reduceat(d[:, 0] + d[:, 1], first_row)
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

    total_burned = sum(o.burned_km2 for o in outcomes)
    total_carbon = sum(o.carbon_ton for o in outcomes)
    base_burned = sum(r.burned_km2 for r in baseline)
    base_carbon = sum(r.carbon_ton for r in baseline)
    reduction = base_carbon - total_carbon
    revenue = reduction * econ.carbon_price_usd_per_ton
    device_cost = placement.deployed * econ.device_cost_usd
    savings = revenue - device_cost - econ.bandwidth_cost_usd
    totals = CampaignTotals(
        burned_km2=total_burned,
        carbon_ton=total_carbon,
        baseline_burned_km2=base_burned,
        baseline_carbon_ton=base_carbon,
        carbon_reduction_ton=reduction,
        carbon_revenue_usd=revenue,
        device_cost_usd=device_cost,
        bandwidth_cost_usd=econ.bandwidth_cost_usd,
        savings_usd=savings,
    )
    return CampaignResult(
        scheme=scheme,
        seed=seed,
        trials=trials,
        budget=placement.budget,
        sensors_deployed=placement.deployed,
        fires=tuple(outcomes),
        totals=totals,
    )


def campaign_summary_dict(result: CampaignResult) -> dict:
    return {
        "scheme": result.scheme,
        "seed": result.seed,
        "trials": result.trials,
        "budget": result.budget,
        "sensors_deployed": result.sensors_deployed,
        "n_fires": len(result.fires),
        "totals": {
            "burned_km2": result.totals.burned_km2,
            "carbon_ton": result.totals.carbon_ton,
            "baseline_burned_km2": result.totals.baseline_burned_km2,
            "baseline_carbon_ton": result.totals.baseline_carbon_ton,
            "carbon_reduction_ton": result.totals.carbon_reduction_ton,
            "carbon_revenue_usd": result.totals.carbon_revenue_usd,
            "device_cost_usd": result.totals.device_cost_usd,
            "bandwidth_cost_usd": result.totals.bandwidth_cost_usd,
            "savings_usd": result.totals.savings_usd,
        },
    }


def write_campaign_json(result: CampaignResult, path) -> None:
    with atomic_write(path) as f:
        json.dump(campaign_summary_dict(result), f, indent=2, sort_keys=True)
        f.write("\n")


def write_fires_csv(result: CampaignResult, path) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            [
                "fire_id",
                "region_id",
                "recorded_area_km2",
                "detection_rate",
                "detection_time_h",
                "burned_km2",
                "carbon_ton",
            ]
        )
        for o in result.fires:
            writer.writerow(
                [
                    o.fire_id,
                    o.region_id,
                    repr(o.recorded_area_km2),
                    repr(o.detection_rate),
                    "" if o.detection_time_h is None else repr(o.detection_time_h),
                    repr(o.burned_km2),
                    repr(o.carbon_ton),
                ]
            )
