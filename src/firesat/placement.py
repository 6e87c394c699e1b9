"""Sensor allocation under a global budget.

The exact solver assigns sensors in the order of their marginal utility
gain, largest first. Each region's utility term is concave and non-decreasing
in its sensor count, so greedy marginal allocation is optimal for the integer
program. A threshold warm start places most of the budget at once and a heap
places the rest one sensor at a time. The biomass-uniform baseline spreads
the budget evenly over vegetated regions.
"""

from __future__ import annotations

import heapq
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .atomic import read_csv, read_json, write_csv, write_json
from .errors import ValidationError
from .fire_model import FireModelParams, ignition_and_miss
from .grid import RegionGrid


def _whole(value) -> int | None:
    """`value` as an int if its type is an integer type other than bool, else None."""
    integer = type(value) is not bool and hasattr(type(value), "__index__")
    return operator.index(value) if integer else None


@dataclass(frozen=True)
class Placement:
    """Integer sensor counts per region under a global budget."""

    counts: tuple[int, ...]
    budget: int

    def __post_init__(self):
        counts = tuple(map(_whole, self.counts))
        for i, n in enumerate(counts):
            if n is None:
                raise ValidationError(f"region {i}: sensor count {self.counts[i]!r} is not an integer")
            if n < 0:
                raise ValidationError(f"region {i}: sensor count {n} must be >= 0")
        if _whole(self.budget) is None or self.budget < 0:
            raise ValidationError(f"budget {self.budget!r} must be an integer >= 0")
        object.__setattr__(self, "counts", counts)
        if sum(self.counts) > self.budget:
            raise ValidationError(
                f"total sensors {sum(self.counts)} exceed budget {self.budget}"
            )

    @property
    def deployed(self) -> int:
        return sum(self.counts)


# Lowest threshold the warm start goes down to. Every gain above it, and every
# product that forms such a gain, is a normal float with full relative precision.
_THRESHOLD_FLOOR = 1e-300
# Bound on the relative error of a gain p * q**n * (1 - q) and of the logarithms
# that estimate how many gains exceed a threshold: several times the worst case
# of a few roundings, one pow and two numpy logs of a few ulp each.
_REL_ERR = 1e-14


def optimize_greedy(
    grid: RegionGrid, budget: int, t: float, params: FireModelParams
) -> Placement:
    """Utility-maximizing allocation by greedy marginal assignment.

    The next sensor always goes to the region with the largest marginal gain
    p_i * q_i**n_i * (1 - q_i); ties break toward the lowest region index.
    Regions whose marginal gain reaches zero stop receiving sensors, so fewer
    than `budget` sensors may be deployed.

    A threshold warm start places most sensors up front, and a heap of each
    region's next gain places the rest one at a time. This is exact: each
    region's gain sequence, as evaluated in floating point, never rises, so
    the one-at-a-time greedy places the `budget` largest (gain, lowest index
    first) sensors of all regions, or every positive-gain sensor if there are
    fewer. A region's sensors above any threshold are a prefix of its
    sequence, and `_warm_start` only places sensors it has shown to be above
    a threshold that at most `budget` sensors exceed. Those are among the
    sensors the greedy places, and the heap, seeded with each region's next
    gain, pops the remaining ones in the same order as from zero.
    """
    if budget < 0:
        raise ValidationError("budget must be >= 0")
    p, q = ignition_and_miss(grid, t, params)
    counts = _warm_start(p, q, budget)
    heap = []
    for i, w in enumerate(counts):
        gain = p[i] * q[i] ** w * (1.0 - q[i])
        if gain > 0.0:
            heap.append((-gain, i))
    heapq.heapify(heap)
    remaining = budget - sum(counts)
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


def _warm_start(p: list[float], q: list[float], budget: int) -> list[int]:
    """Per region, a number of sensors that the greedy places first.

    Bisection finds the smallest threshold lam, not below _THRESHOLD_FLOOR,
    at which the upper bounds of `_count_bounds` sum to at most `budget`; the
    lower bounds at that lam are the warm start. Only the bisection uses
    numpy; the heap's gains stay Python floats. A bound sum meets `budget`
    as a Python float, whose comparison with any int is exact.
    """
    q_arr = np.array(q)
    first = np.array(p) * (1.0 - q_arr)  # each region's first gain
    live = np.flatnonzero(first > _THRESHOLD_FLOOR)
    counts = [0] * len(p)
    if not len(live):
        return counts
    a = first[live]
    with np.errstate(divide="ignore"):
        log_q = np.log(q_arr[live])
    if float(_count_bounds(_THRESHOLD_FLOOR, a, log_q)[1].sum()) <= budget:
        lam = _THRESHOLD_FLOOR
    else:
        # Invariant: more than `budget` upper bounds at exp(lo_t), at most at
        # exp(hi_t). No gain exceeds 2 max(a), where every bound is 0.
        lo_t, hi_t = math.log(_THRESHOLD_FLOOR), math.log(2.0 * float(a.max()))
        while True:
            mid = 0.5 * (lo_t + hi_t)
            if mid in (lo_t, hi_t):
                break
            if float(_count_bounds(math.exp(mid), a, log_q)[1].sum()) > budget:
                lo_t = mid
            else:
                hi_t = mid
        lam = math.exp(hi_t)
    for i, w in zip(live.tolist(), _count_bounds(lam, a, log_q)[0].tolist()):
        counts[i] = int(w)
    return counts


def _count_bounds(
    lam: float, a: np.ndarray, log_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per region, lower and upper bounds on how many gains exceed lam.

    A region's n-th gain a * q**n (a = p * (1 - q) > 0) exceeds lam, in real
    arithmetic, for n < x = ln(lam / a) / ln(q). The count of its float gains
    above lam therefore lies in [ceil(x - tol), ceil(x + tol)], where tol
    covers the rounding of the gains and of x. A region with q = 0
    (log_q = -inf) has the one positive gain a.
    """
    x = np.log(lam / a) / log_q
    tol = _REL_ERR * (np.abs(x) - 1.0 / log_q)
    single = log_q == -np.inf
    above = (a > lam).astype(float)
    lo = np.where(single, above, np.maximum(np.ceil(x - tol), 0.0))
    hi = np.where(single, above, np.maximum(np.ceil(x + tol), 0.0))
    return lo, hi


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
    if base + (extra > 0) > np.iinfo(np.int64).max:
        raise ValidationError(f"budget {budget}: a region's share does not fit an int64")
    counts[qualifying] = base
    counts[qualifying[:extra]] += 1
    return Placement(tuple(counts.tolist()), budget)


PLACEMENT_FIELDS = ["region_id", "n_sensors"]


def write_placement_csv(placement: Placement, path) -> None:
    write_csv(path, PLACEMENT_FIELDS, enumerate(placement.counts))


def read_placement_csv(path, budget: int | None = None) -> Placement:
    table = read_csv(path, PLACEMENT_FIELDS, (int, int))
    ids, counts = table.columns
    for row, rid in enumerate(ids):
        if rid != row:
            raise table.fault(row, "region ids must be consecutive from 0")
    table.raise_error()
    try:
        return Placement(tuple(counts), sum(counts) if budget is None else budget)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_placement_json(placement: Placement, path, scheme: str = "") -> None:
    write_json(
        path,
        {
            "scheme": scheme,
            "budget": placement.budget,
            "deployed": placement.deployed,
            "counts": list(placement.counts),
        },
    )


def read_placement_json(path) -> Placement:
    payload = read_json(path)
    try:
        return Placement(tuple(payload["counts"]), payload["budget"])
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from None
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
