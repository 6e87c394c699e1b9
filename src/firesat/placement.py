"""Sensor allocation under a global budget.

The exact solver assigns sensors one at a time to the region with the largest
marginal utility gain. Each region's utility term is concave and
non-decreasing in its sensor count, so greedy marginal allocation is optimal
for the integer program. A brute-force enumerator serves as an oracle on
small instances, and the biomass-uniform baseline spreads the budget evenly
over vegetated regions.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fire_model import FireModelParams, ignition_and_miss
from .grid import RegionGrid


@dataclass(frozen=True)
class Placement:
    """Integer sensor counts per region under a global budget."""

    counts: tuple[int, ...]
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if self.budget < 0:
            raise ValidationError("budget must be >= 0")
        if any(n < 0 for n in self.counts):
            raise ValidationError("sensor counts must be >= 0")
        if sum(self.counts) > self.budget:
            raise ValidationError(
                f"total sensors {sum(self.counts)} exceed budget {self.budget}"
            )

    @property
    def deployed(self) -> int:
        return sum(self.counts)


def optimize_greedy(
    grid: RegionGrid, budget: int, t: float, params: FireModelParams
) -> Placement:
    """Utility-maximizing allocation by greedy marginal assignment.

    The next sensor always goes to the region with the largest marginal gain
    p_i * q_i**n_i * (1 - q_i); ties break toward the lowest region index.
    Regions whose marginal gain reaches zero stop receiving sensors, so fewer
    than `budget` sensors may be deployed.
    """
    if budget < 0:
        raise ValidationError("budget must be >= 0")
    p, q = ignition_and_miss(grid, t, params)
    n = len(grid)
    counts = [0] * n
    heap = []
    for i in range(n):
        gain = p[i] * (1.0 - q[i])
        if gain > 0.0:
            heap.append((-gain, i))
    heapq.heapify(heap)
    remaining = budget
    while remaining > 0 and heap:
        neg_gain, i = heapq.heappop(heap)
        if neg_gain >= 0.0:
            break
        counts[i] += 1
        remaining -= 1
        nxt = p[i] * q[i] ** counts[i] * (1.0 - q[i])
        if nxt > 0.0:
            heapq.heappush(heap, (-nxt, i))
    return Placement(tuple(counts), budget)


def optimize_bruteforce(
    grid: RegionGrid,
    budget: int,
    t: float,
    params: FireModelParams,
    max_allocations: int = 10**6,
) -> Placement:
    """Exhaustive maximization over every feasible allocation.

    Oracle for small instances only: refuses when the number of feasible
    allocations C(budget + N, N) exceeds `max_allocations`. Ties break toward
    the lexicographically smallest counts vector. Utility accumulates in
    ascending region order so the comparison matches system_utility()
    bit-for-bit.
    """
    if budget < 0:
        raise ValidationError("budget must be >= 0")
    n = len(grid)
    n_alloc = math.comb(budget + n, n)
    if n_alloc > max_allocations:
        raise ValidationError(
            f"{n_alloc} feasible allocations exceed the oracle cap {max_allocations}"
        )
    p, q = ignition_and_miss(grid, t, params)

    best_utility = -1.0
    best_counts: tuple[int, ...] = (0,) * n
    current = [0] * n

    def recurse(i: int, remaining: int, acc: float):
        nonlocal best_utility, best_counts
        if i == n:
            if acc > best_utility:
                best_utility = acc
                best_counts = tuple(current)
            return
        for j in range(remaining + 1):
            current[i] = j
            recurse(i + 1, remaining - j, acc + p[i] * (1.0 - q[i] ** j))
        current[i] = 0

    recurse(0, budget, 0.0)
    return Placement(best_counts, budget)


def biomass_uniform(grid: RegionGrid, budget: int) -> Placement:
    """Even split of the budget over regions with positive biomass.

    Each qualifying region receives floor(K/M) sensors; the K mod M leftover
    sensors go one each to the qualifying regions of lowest index.
    """
    if budget < 0:
        raise ValidationError("budget must be >= 0")
    qualifying = np.flatnonzero(grid.biomass > 0.0)
    counts = np.zeros(len(grid), dtype=np.int64)
    if not len(qualifying):
        warnings.warn("no region has positive biomass; placing no sensors")
        return Placement(tuple(counts.tolist()), budget)
    base, extra = divmod(budget, len(qualifying))
    counts[qualifying] = base
    counts[qualifying[:extra]] += 1
    return Placement(tuple(counts.tolist()), budget)


def write_placement_csv(placement: Placement, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["region_id", "n_sensors"])
        for i, n in enumerate(placement.counts):
            writer.writerow([i, n])


def read_placement_csv(path, budget: int | None = None) -> Placement:
    counts: list[int] = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != ["region_id", "n_sensors"]:
            raise ValidationError(f"{path}: expected header region_id,n_sensors")
        for row_no, row in enumerate(reader, start=2):
            try:
                rid = int(row["region_id"])
                n = int(row["n_sensors"])
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{row_no}: {exc}") from exc
            if rid != len(counts):
                raise ValidationError(
                    f"{path}:{row_no}: region ids must be consecutive from 0"
                )
            counts.append(n)
    total = sum(counts)
    return Placement(tuple(counts), total if budget is None else budget)


def write_placement_json(placement: Placement, path, scheme: str = "") -> None:
    payload = {
        "scheme": scheme,
        "budget": placement.budget,
        "deployed": placement.deployed,
        "counts": list(placement.counts),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def read_placement_json(path) -> Placement:
    with open(path) as f:
        payload = json.load(f)
    return Placement(tuple(payload["counts"]), int(payload["budget"]))
