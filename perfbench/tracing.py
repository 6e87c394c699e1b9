"""In-memory span tracing at firesat's module boundaries.

The CLI, the campaign and the link budget look their collaborators up as
module attributes at call time, so wrapping those attributes records a span
around every call without touching the package. Only a traced worker
process installs the wrappers; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# Span record layout: [id, name, parent_id, pass_id, start, end].
ID, NAME, PARENT, PASS, START, END = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.pass_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), name, parent, self.pass_id, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close in LIFO order"

    def count(self, name: str, n: float) -> None:
        self.counts[(self.pass_id, name)] += n

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace owner.attr with a wrapper that records a span named `name`.

        `counter(args, kwargs, result)` may return {counter_name: amount}
        to add to this pass's counts.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.count(key, n)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write a header line naming the fields, then one JSON array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["id", "name", "parent", "pass", "start", "end"]}))
            f.write("\n")
            for s in self.spans:
                f.write(json.dumps(s, separators=(",", ":")))
                f.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it covered by child spans."""
    children: dict[int, list[list]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s[START]
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            lo = max(c[START], cursor)
            hi = min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s[END] - s[START] - covered)
    return out


def layer_stats(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per pass and span name: `.s` busy time, `.self_s` and `.calls`.

    Busy time counts only the outermost span of a name, so a layer that
    calls itself is not counted twice.
    """
    by_id = {s[ID]: s for s in spans}
    stats: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, self_times(spans)):
        name = s[NAME]
        per_pass = stats[s[PASS]]
        per_pass[f"{name}.calls"] += 1
        per_pass[f"{name}.self_s"] += self_s
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] != name:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            per_pass[f"{name}.s"] += s[END] - s[START]
    return stats


def _bytes_written(layer: str):
    """Counter: size of the file a writer(result, path) call produced."""
    return lambda args, kwargs, result: {f"{layer}.bytes": os.path.getsize(args[1])}


def _rows(layer: str):
    return lambda args, kwargs, result: {f"{layer}.rows": len(result)}


def _campaign_trials(args, kwargs, result):
    return {
        "campaign.sensor_trials": result.sensors_deployed * result.trials,
        "campaign.fire_trials": len(result.fires) * result.trials,
    }


def install_firesat_spans(tracer: Tracer) -> None:
    """Wrap each firesat boundary named in the benchmark's per-layer metrics.

    Each function is wrapped where its caller looks it up: the CLI imports
    `load_config`, `system_utility` and the ingest functions by name, the
    greedy looks up `ignition_and_miss` in `placement`, and `snr_db` looks
    up the geometry functions in `link_budget`.
    """
    from firesat import campaign, capacity, cli, link_budget, placement

    wrap = tracer.wrap
    wrap(cli, "main", "cli")
    wrap(cli, "load_config", "config.load_config")
    wrap(cli, "ingest_regions", "ingest.ingest_regions", _rows("ingest.ingest_regions"))
    wrap(cli, "ingest_fires", "ingest.ingest_fires", _rows("ingest.ingest_fires"))
    wrap(placement, "optimize_greedy", "placement.optimize_greedy",
         lambda a, k, r: {"placement.optimize_greedy.sensors": r.deployed})
    wrap(placement, "ignition_and_miss", "fire_model.ignition_and_miss")
    wrap(placement, "biomass_uniform", "placement.biomass_uniform")
    for attr in ("write_placement_csv", "write_placement_json"):
        wrap(placement, attr, "placement.write", _bytes_written("placement.write"))
    wrap(cli, "system_utility", "fire_model.system_utility")
    wrap(campaign, "run_campaign", "campaign.run_campaign", _campaign_trials)
    wrap(campaign.GridFrame, "biomass_avg", "campaign.GridFrame.biomass_avg")
    wrap(campaign, "baseline_outcomes", "campaign.baseline_outcomes")
    for attr in ("write_campaign_json", "write_fires_csv"):
        wrap(campaign, attr, "campaign.write", _bytes_written("campaign.write"))
    for attr, fn in sorted(vars(capacity).items()):
        if callable(fn) and not attr.startswith("_") and not isinstance(fn, type) \
                and getattr(fn, "__module__", None) == capacity.__name__:
            wrap(capacity, attr, "capacity")
    wrap(link_budget, "snr_db", "link_budget.snr_db")
    wrap(link_budget, "beam_rolloff_factor", "link_budget.beam_rolloff_factor")
    for attr in ("great_circle_km", "slant_range_km", "elevation_deg"):
        wrap(link_budget, attr, "geo")
    wrap(link_budget, "fading_pdf", "link_budget.fading_pdf")
    wrap(link_budget, "fading_sample", "link_budget.fading_sample",
         lambda a, k, r: {"link_budget.fading_sample.samples": len(r)})


def per_layer_metrics(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per pass: the per-layer metrics, keyed as in BENCHMARK.json."""
    stats = layer_stats(tracer.spans)
    out = {}
    for pass_id, pass_stats in stats.items():
        m = {name: pass_stats.get(name, 0.0) for name in SPAN_METRICS}
        m.update({name: tracer.counts.get((pass_id, name), 0.0) for name in COUNT_METRICS})
        sensor_trials = m["campaign.sensor_trials"]
        m["campaign.fires_per_indexed_sensor"] = (
            m["campaign.fire_trials"] / sensor_trials if sensor_trials else 0.0
        )
        out[pass_id] = m
    return out


SPAN_METRICS = (
    "cli.self_s",
    "config.load_config.s",
    "ingest.ingest_regions.s",
    "ingest.ingest_fires.s",
    "placement.optimize_greedy.s",
    "fire_model.ignition_and_miss.s",
    "placement.biomass_uniform.s",
    "placement.write.s",
    "fire_model.system_utility.s",
    "fire_model.system_utility.calls",
    "campaign.run_campaign.s",
    "campaign.run_campaign.self_s",
    "campaign.run_campaign.calls",
    "campaign.GridFrame.biomass_avg.s",
    "campaign.GridFrame.biomass_avg.calls",
    "campaign.baseline_outcomes.s",
    "campaign.write.s",
    "capacity.s",
    "capacity.calls",
    "link_budget.snr_db.s",
    "link_budget.snr_db.calls",
    "link_budget.beam_rolloff_factor.s",
    "geo.s",
    "link_budget.fading_pdf.s",
    "link_budget.fading_pdf.calls",
    "link_budget.fading_sample.s",
)

COUNT_METRICS = (
    "ingest.ingest_regions.rows",
    "ingest.ingest_fires.rows",
    "placement.optimize_greedy.sensors",
    "placement.write.bytes",
    "campaign.sensor_trials",
    "campaign.fire_trials",
    "campaign.write.bytes",
    "link_budget.fading_sample.samples",
)
