"""One workload run in a fresh process: passes, output checks, optional tracing.

run.py starts this file; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload sparse-plan --seed 1234 \
        --seconds 40 --trace 0 --work perfbench/_work/sparse-plan-s1234 [--tiny]

The worker imports firesat from the checkout's `src/`, repeats the
workload's pass until the next one would end after `--seconds`, checks
every pass's outputs and writes `record-<trace>.json` into `--work`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SCHEMES = ("optimized", "uniform")


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_json(obj) -> str:
    """Digest of a canonical JSON dump; floats are written by repr, so exactly."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Inspection:
    """What one operation left behind: digests, broken invariants, work done.

    `fixed` digests do not depend on the seed and are checked on every run;
    `seeded` ones are checked where the reference holds the run's seed.
    """

    def __init__(self):
        self.fixed: dict[str, str] = {}
        self.seeded: dict[str, str] = {}
        self.problems: list[str] = []
        self.work = 0.0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class CliWorkload:
    """Part of a workload made of firesat CLI commands, each writing its own directory."""

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.ops: dict[str, list[str]] = {}

    def prepare(self) -> dict:
        from firesat import cli
        from firesat.config import load_config

        self.cfg = load_config(cli.default_config_path(), self.overrides())
        return {"config_sha256": config_digest(self.cfg), **self.sizes()}

    def clear(self) -> None:
        for op in self.ops:
            shutil.rmtree(self.work / op, ignore_errors=True)

    def run_pass(self) -> dict[str, object]:
        from firesat import cli

        status: dict[str, object] = {}
        for op, argv in self.ops.items():
            try:
                status[op] = cli.main(argv + ["--seed", str(self.seed), "--out", str(self.work / op)])
            except Exception:  # a crash is one failed operation, not the end of the run
                traceback.print_exc()
                status[op] = "exception"
        return status


class Plan(CliWorkload):
    def __init__(self, seed, tiny, work, budgets):
        super().__init__(seed, tiny, work)
        self.budgets = (1_000,) if tiny else budgets
        self.ops = {
            f"plan-{b}": ["plan", "--scheme", "both", "--budget", str(b)] for b in self.budgets
        }

    def overrides(self) -> dict:
        return {"seed": self.seed}

    def sizes(self) -> dict:
        return {"budgets": list(self.budgets)}

    def inspect(self, op: str) -> Inspection:
        out = self.work / op
        budget = int(op.split("-")[1])
        ins = Inspection()
        # plan ignores the seed, so every file is checked against the reference.
        for path in sorted(out.iterdir()):
            ins.fixed[f"{op}/{path.name}"] = sha256_file(path)
        with open(out / "plan_summary.json") as f:
            summary = json.load(f)
        ins.expect(summary["budget"] == budget, "summary budget differs from --budget")
        for scheme in SCHEMES:
            s = summary["schemes"][scheme]
            with open(out / f"placement_{scheme}.json") as f:
                counts = json.load(f)["counts"]
            ins.expect(0 <= s["deployed"] <= budget, f"{scheme}: deployed outside [0, budget]")
            ins.expect(sum(counts) == s["deployed"], f"{scheme}: counts do not sum to deployed")
            ins.expect(min(counts) >= 0, f"{scheme}: negative sensor count")
            ins.expect(max(counts) == s["max_per_region"], f"{scheme}: max_per_region")
            ins.expect(math.isfinite(s["utility"]) and s["utility"] >= 0, f"{scheme}: utility")
        util = {k: v["utility"] for k, v in summary["schemes"].items()}
        ins.expect(
            util["optimized"] >= util["uniform"] - 1e-12,
            "the exact greedy lost to the uniform scheme",
        )
        return ins


class Simulate(CliWorkload):
    def __init__(self, seed, tiny, work, budget, trials, tiny_budget):
        super().__init__(seed, tiny, work)
        self.budget = tiny_budget if tiny else budget
        self.trials = 1 if tiny else trials
        self.ops = {
            "simulate": [
                "simulate", "--scheme", "both",
                "--budget", str(self.budget), "--trials", str(self.trials),
            ]
        }

    def overrides(self) -> dict:
        return {"seed": self.seed, "plan.budget": self.budget, "campaign.trials": self.trials}

    def sizes(self) -> dict:
        return {"budget": self.budget, "trials": self.trials}

    def inspect(self, op: str) -> Inspection:
        out = self.work / op
        ins = Inspection()
        invariant: dict = {}
        for scheme in SCHEMES:
            campaign_path = out / f"campaign_{scheme}.json"
            fires_path = out / f"fires_{scheme}.csv"
            ins.seeded[f"{op}/{campaign_path.name}"] = sha256_file(campaign_path)
            ins.seeded[f"{op}/{fires_path.name}"] = sha256_file(fires_path)
            with open(campaign_path) as f:
                summary = json.load(f)
            with open(fires_path, newline="") as f:
                rows = list(csv.DictReader(f))
            self._check_campaign(ins, scheme, summary, rows)
            t = summary["totals"]
            # Fields that no sensor scatter can change.
            invariant[scheme] = {
                **{k: summary[k] for k in ("budget", "sensors_deployed", "n_fires", "trials")},
                **{k: t[k] for k in ("baseline_burned_km2", "baseline_carbon_ton",
                                     "device_cost_usd", "bandwidth_cost_usd")},
                "fires": [[r["fire_id"], r["region_id"], r["recorded_area_km2"]] for r in rows],
            }
            ins.work += summary["sensors_deployed"] * summary["trials"]
        ins.fixed[f"{op}/seed_invariant"] = sha256_json(invariant)
        return ins

    def _check_campaign(self, ins: Inspection, scheme: str, summary: dict, rows: list) -> None:
        trials = summary["trials"]
        cell = self.cfg.cell_area_km2
        ins.expect(summary["seed"] == self.seed, f"{scheme}: seed")
        ins.expect(trials == self.trials, f"{scheme}: trials")
        ins.expect(summary["budget"] == self.budget, f"{scheme}: budget")
        ins.expect(0 <= summary["sensors_deployed"] <= self.budget,
                   f"{scheme}: deployed outside [0, budget]")
        ins.expect(summary["n_fires"] == len(rows), f"{scheme}: n_fires differs from the table")
        burned = carbon = recorded = 0.0
        for r in rows:
            rate = float(r["detection_rate"])
            b, c, area = float(r["burned_km2"]), float(r["carbon_ton"]), float(r["recorded_area_km2"])
            fid = r["fire_id"]
            ins.expect(0.0 <= rate <= 1.0, f"{scheme}: fire {fid} detection_rate outside [0, 1]")
            ins.expect(_close(rate * trials, round(rate * trials)),
                       f"{scheme}: fire {fid} detection_rate is not a count over trials")
            ins.expect((r["detection_time_h"] == "") == (rate == 0.0),
                       f"{scheme}: fire {fid} detection time without detection")
            ins.expect(r["detection_time_h"] == "" or float(r["detection_time_h"]) >= 0.0,
                       f"{scheme}: fire {fid} negative detection time")
            ins.expect(0.0 <= b <= max(area, cell) * (1 + 1e-9),
                       f"{scheme}: fire {fid} burned area outside [0, max(recorded, cell)]")
            ins.expect(c >= 0.0, f"{scheme}: fire {fid} negative carbon")
            burned += b
            carbon += c
            recorded += area
        t = summary["totals"]
        ins.expect(_close(t["burned_km2"], burned), f"{scheme}: burned total")
        ins.expect(_close(t["carbon_ton"], carbon), f"{scheme}: carbon total")
        ins.expect(_close(t["baseline_burned_km2"], recorded), f"{scheme}: baseline burned")
        ins.expect(
            _close(t["savings_usd"],
                   t["carbon_revenue_usd"] - t["device_cost_usd"] - t["bandwidth_cost_usd"]),
            f"{scheme}: savings",
        )


class LinkMap:
    """The uplink over every region centre, then the fading model at its elevations."""

    ops = ("snr", "capacity", "pdf", "samples")

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.results: dict[str, object] = {}

    def prepare(self) -> dict:
        from firesat import cli
        from firesat.config import load_config
        from firesat.geo import GeoPoint, elevation_deg

        self.cfg = load_config(cli.default_config_path(), {"seed": self.seed})
        self.device = self.cfg.device()
        self.sat = self.cfg.satellite()
        self.table = self.cfg.mcs_table()
        # Centres are read here, not through firesat.ingest, so that ingest
        # changes cannot move this workload.
        with open(self.cfg.regions_csv, newline="") as f:
            self.points = [GeoPoint(float(r["lat"]), float(r["lon"])) for r in csv.DictReader(f)]
        if self.tiny:
            self.points = self.points[:: len(self.points) // 40][:40]
        elev = [elevation_deg(p, self.sat) for p in self.points]
        n_elev, n_power, self.n_samples = (3, 20, 500) if self.tiny else (13, 120, 20_000)
        lo, hi = min(elev), max(elev)
        self.elevations = [lo + (hi - lo) * i / (n_elev - 1) for i in range(n_elev)]
        # Channel powers up to 80 reach the asymptotic 1F1 branch (z > 600),
        # which starts near 42-54 over these elevations; lower ones use the series.
        self.powers = [80.0 * i / (n_power - 1) for i in range(n_power)]
        return {
            "config_sha256": config_digest(self.cfg),
            "map_points": len(self.points),
            "elevations": len(self.elevations),
            "pdf_points": len(self.elevations) * len(self.powers),
            "samples": len(self.elevations) * self.n_samples,
        }

    def clear(self) -> None:
        self.results = {}

    def run_pass(self) -> dict[str, object]:
        from firesat import capacity as cap
        from firesat import link_budget as lb

        stages = {
            "snr": lambda: {
                mode: [lb.snr_db(self.device, self.sat, p, mode, self.table) for p in self.points]
                for mode in ("linear", "db-scaled")
            },
            "capacity": lambda: {
                mode: [
                    None if r.mcs_level is None else cap.report_duration_ms(
                        self.cfg.timing(rus_per_report=self.table.ru_for_level(r.mcs_level)))
                    for r in links
                ]
                for mode, links in self.results["snr"].items()
            },
            "pdf": lambda: [
                [lb.fading_pdf(x, params) for x in self.powers]
                for params in map(lb.fading_params, self.elevations)
            ],
            "samples": lambda: [
                (params, lb.fading_sample(params, [self.seed, i], self.n_samples))
                for i, params in enumerate(map(lb.fading_params, self.elevations))
            ],
        }
        status: dict[str, object] = {}
        for op, stage in stages.items():
            try:
                self.results[op] = stage()
                status[op] = 0
            except Exception:  # a crash is one failed operation, not the end of the run
                traceback.print_exc()
                status[op] = "exception"
        return status

    def inspect(self, op: str) -> Inspection:
        ins = Inspection()
        result = self.results[op]
        if op == "snr":
            levels = {row.mcs_level for row in self.table.rows} | {None}
            dump = {
                mode: [[r.snr_db, r.mcs_level, r.beam_gain_dbi, r.fspl_db, r.elevation_deg]
                       for r in links]
                for mode, links in result.items()
            }
            for mode, links in result.items():
                ins.expect(len(links) == len(self.points), f"{mode}: one result per point")
                ins.expect(all(math.isfinite(r.snr_db) for r in links), f"{mode}: snr not finite")
                ins.expect(all(r.mcs_level in levels for r in links), f"{mode}: unknown MCS level")
                ins.expect(all(0.0 < r.elevation_deg <= 90.0 for r in links), f"{mode}: elevation")
        elif op == "capacity":
            dump = result
            for mode, durations in result.items():
                ins.expect(all(d is None or d > 0.0 for d in durations),
                           f"{mode}: non-positive report duration")
        elif op == "pdf":
            dump = result
            ins.expect(all(math.isfinite(v) and v >= 0.0 for row in result for v in row),
                       "pdf value negative or not finite")
        else:
            dump = None
            digest = hashlib.sha256()
            for params, draws in result:
                digest.update(draws.astype("<f8").tobytes())
                mean_expected = params.zeta + 2.0 * params.b
                n = len(draws)
                std = float(draws.std())
                ins.expect(n == self.n_samples, "sample count")
                ins.expect(bool((draws >= 0.0).all()) and math.isfinite(float(draws.sum())),
                           "channel power negative or not finite")
                # Six standard errors: a false alarm has probability ~2e-9.
                ins.expect(abs(float(draws.mean()) - mean_expected) <= 6.0 * std / math.sqrt(n),
                           "sample mean far from zeta + 2b")
            ins.seeded[f"{op}/draws"] = digest.hexdigest()
        if dump is not None:
            ins.fixed[f"{op}/dump"] = sha256_json(dump)
        return ins


class Workload:
    """Parts run in turn within each pass; only `simulate` counts work (sensor-trials)."""

    def __init__(self, name: str, parts: list):
        self.name = name
        self.parts = parts
        self.seed = parts[0].seed
        self.tiny = parts[0].tiny
        self.owner = {op: part for part in parts for op in part.ops}

    def prepare(self) -> dict:
        manifest = {type(part).__name__.lower(): part.prepare() for part in self.parts}
        self.cfg = self.parts[0].cfg
        return manifest

    def clear(self) -> None:
        for part in self.parts:
            part.clear()

    def run_pass(self) -> dict[str, object]:
        status: dict[str, object] = {}
        for part in self.parts:
            status.update(part.run_pass())
        return status

    def inspect(self, op: str) -> Inspection:
        return self.owner[op].inspect(op)


def make_workload(name: str, seed: int, tiny: bool, work: Path) -> Workload:
    if name == "dense-linkmap":
        return Workload(name, [
            Simulate(seed, tiny, work, budget=1_000_000, trials=3, tiny_budget=2_000),
            LinkMap(seed, tiny, work),
        ])
    if name == "sparse-plan":
        return Workload(name, [
            Simulate(seed, tiny, work, budget=100_000, trials=20, tiny_budget=200),
            Plan(seed, tiny, work, budgets=(100_000,)),
        ])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dense-linkmap", "sparse-plan")


def config_digest(cfg) -> str:
    """SHA-256 of the resolved run configuration, paths relative to the checkout."""
    values = {}
    for key, value in asdict(cfg).items():
        if isinstance(value, Path):
            value = os.path.relpath(value, ROOT)
        values[key] = value
    return sha256_json(values)


def check_pass(wl, status: dict[str, object], reference: dict | None) -> dict:
    """Inspect each operation of a pass and compare it with the reference digests.

    An operation fails when it exits non-zero or raises, when its outputs
    cannot be read, when an invariant breaks, or when a digest differs from
    (or is missing against) the reference for this workload size and seed.
    """
    problems: dict[str, list[str]] = {}
    fixed: dict[str, str] = {}
    seeded: dict[str, str] = {}
    work = 0.0
    ref_fixed = reference.get("fixed", {}) if reference else None
    ref_seeded = reference.get("seeded", {}).get(str(wl.seed)) if reference else None
    for op, rc in status.items():
        if rc != 0:
            problems[op] = [f"exit status {rc}"]
            continue
        try:
            ins = wl.inspect(op)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems[op] = [f"unreadable output: {exc!r}"]
            continue
        op_problems = list(ins.problems)
        for got, want in ((ins.fixed, ref_fixed), (ins.seeded, ref_seeded)):
            if want is None:
                continue
            expected = {k: v for k, v in want.items() if k.split("/", 1)[0] == op}
            for key in sorted(set(got) | set(expected)):
                if got.get(key) != expected.get(key):
                    op_problems.append(f"digest mismatch: {key}")
        if op_problems:
            problems[op] = op_problems
        fixed.update(ins.fixed)
        seeded.update(ins.seeded)
        work += ins.work
    return {"problems": problems, "fixed": fixed, "seeded": seeded, "work": work}


def load_reference(wl) -> dict | None:
    """Reference digests for this workload; none for the tiny smoke size."""
    if wl.tiny or not REFERENCE.is_file():
        return None
    with open(REFERENCE) as f:
        return json.load(f)["workloads"].get(wl.name)


def timed_pass(wl, reference: dict | None, cal, tracer=None) -> tuple[dict, dict, float]:
    """One timed pass, the calibration kernel, then the pass's output check.

    Returns the pass's summary, its check and the kernel's seconds.
    """
    wl.clear()
    if tracer is not None:
        span = tracer.begin("pass")
    t0 = time.perf_counter()
    status = wl.run_pass()
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
    kernel = cal.kernel_seconds()
    check = check_pass(wl, status, reference)
    for op, msgs in check["problems"].items():
        for msg in msgs:
            print(f"{wl.name} {op}: {msg}", file=sys.stderr)
    summary = {
        "wall_s": wall,
        "work": check["work"],
        "attempted": len(status),
        "failed": len(check["problems"]),
        "traced": tracer is not None,
    }
    return summary, check, kernel


def measure(wl, seconds: float, reference: dict | None, cal,
            tracer=None) -> tuple[list[dict], list[float], dict]:
    """Run passes until the next cycle would likely end after `seconds`; at least one.

    With a tracer, each cycle is an untraced pass and then a traced one, so
    that the tracing overhead comes from passes run side by side. The
    wrappers are installed for the traced pass only. The calibration kernel
    runs before the first pass and after each one. Returns a summary per
    pass, the kernel's seconds per run of it, and the last pass's output
    digests.
    """
    from tracing import install_firesat_spans

    passes: list[dict] = []
    cycles: list[float] = []
    kernel = [cal.kernel_seconds()]
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        c0 = time.perf_counter()
        summary, check, k = timed_pass(wl, reference, cal)
        passes.append(summary)
        kernel.append(k)
        if tracer is not None:
            tracer.pass_id = len(cycles)
            install_firesat_spans(tracer)
            try:
                summary, check, k = timed_pass(wl, reference, cal, tracer)
            finally:
                tracer.uninstall()
            passes.append(summary)
            kernel.append(k)
        cycles.append(time.perf_counter() - c0)
    return passes, kernel, {"fixed": check["fixed"], "seeded": check["seeded"]}


def manifest_versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def import_firesat() -> None:
    """Import firesat from the checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import firesat.cli

    found = Path(firesat.cli.__file__).resolve().parent
    if found != (SRC / "firesat").resolve():
        raise SystemExit(f"firesat imported from {found}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    import_firesat()
    from firesat import cli

    args.work.mkdir(parents=True, exist_ok=True)
    wl = make_workload(args.workload, args.seed, args.tiny, args.work)
    manifest = {
        **manifest_versions(),
        "workload": wl.name,
        "seed": args.seed,
        "tiny": args.tiny,
        **wl.prepare(),
        "regions_csv_sha256": sha256_file(wl.cfg.regions_csv),
        "fires_csv_sha256": sha256_file(wl.cfg.fires_csv),
        "config_file_sha256": sha256_file(cli.default_config_path()),
    }
    reference = load_reference(wl)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    with calibration.Calibrator() as cal:
        passes, kernel, digests = measure(wl, args.seconds, reference, cal, tracer)
    record = {
        "manifest": manifest,
        "reference_checked": {
            "fixed": reference is not None,
            "seeded": reference is not None and str(args.seed) in reference.get("seeded", {}),
        },
        "passes": passes,
        "kernel_s": kernel,
        "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        from tracing import per_layer_metrics

        tracer.write(args.work / "trace.jsonl")
        record["per_layer"] = [m for _, m in sorted(per_layer_metrics(tracer).items())]
        record["spans"] = len(tracer.spans)
    wl.clear()
    with open(args.work / f"record-{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
