"""Slow references for the placement optimizer.

`optimize_greedy_heap` is the greedy as it stood before the threshold warm
start: a heap of every region's next gain, popped once per sensor from zero
sensors. `optimize_bruteforce` enumerates every feasible allocation of small
instances. Tests check `firesat.placement.optimize_greedy` against both;
nothing at runtime imports this module.
"""

from __future__ import annotations

import heapq
import math

from firesat.errors import ValidationError
from firesat.fire_model import FireModelParams, ignition_and_miss
from firesat.grid import RegionGrid
from firesat.placement import Placement


def optimize_greedy_heap(
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
