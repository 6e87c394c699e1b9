"""Command-line interface: plan, linkbudget, capacity, simulate, report.

Every command is deterministic given (config, seed); exit codes are 0 on
success, 2 on validation failure, 3 on numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from importlib import resources
from pathlib import Path

from . import capacity as cap
from . import campaign as camp
from . import link_budget as lb
from . import placement as pl
from .atomic import atomic_write
from .config import RunConfig, load_config
from .errors import NumericError, ValidationError
from .fire_model import system_utility
from .geo import GeoPoint
from .ingest import ingest_fires, ingest_regions

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

SCHEMES = ("optimized", "uniform")


def default_config_path() -> Path:
    return Path(str(resources.files("firesat") / "data" / "sample_config.cfg"))


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _out_dir(args) -> Path:
    """The --out directory, created if missing."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValidationError(f"--out {out}: cannot create directory: {exc.strerror}") from None
    return out


def _load_grid(cfg: RunConfig):
    return ingest_regions(cfg.regions_csv, cfg.cell_area_km2)


def _placement_for(scheme: str, grid, budget: int, cfg: RunConfig) -> pl.Placement:
    if scheme == "optimized":
        return pl.optimize_greedy(grid, budget, cfg.t_hours, cfg.fire_params())
    return pl.biomass_uniform(grid, budget)


def _bandwidth_cost(cfg: RunConfig, n_sensors: int) -> float:
    if n_sensors == 0:
        return 0.0
    bw = cap.bandwidth_required_hz(n_sensors, cfg.timing(), cfg.traffic("exception"))
    return cap.spectrum_cost_usd(bw, cfg.usd_per_hz)


def cmd_plan(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args)
    grid = _load_grid(cfg)
    rows, cols = grid.frame.rows_cols()
    schemes = SCHEMES if args.scheme == "both" else (args.scheme,)
    summary: dict = {"budget": cfg.budget, "t_hours": cfg.t_hours, "schemes": {}}
    for scheme in schemes:
        placement = _placement_for(scheme, grid, cfg.budget, cfg)
        utility = system_utility(grid, placement.counts, cfg.t_hours, cfg.fire_params())
        pl.write_placement_csv(placement, out / f"placement_{scheme}.csv")
        pl.write_placement_json(placement, out / f"placement_{scheme}.json", scheme)
        with atomic_write(out / f"heatmap_{scheme}.csv", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["region_id", "row", "col", "n_sensors"])
            for i, n in enumerate(placement.counts):
                writer.writerow([i, int(rows[i]), int(cols[i]), n])
        summary["schemes"][scheme] = {
            "utility": utility,
            "deployed": placement.deployed,
            "max_per_region": max(placement.counts),
            "nonzero_regions": sum(1 for n in placement.counts if n > 0),
        }
        print(f"{scheme}: utility={utility:.6f} deployed={placement.deployed}")
    _write_json(out / "plan_summary.json", summary)
    print(f"wrote plan outputs to {out}")
    return EXIT_OK


def cmd_linkbudget(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args)
    location = GeoPoint(args.lat, args.lon)
    table = cfg.mcs_table()
    modes = ("linear", "db-scaled") if args.mode == "both" else (args.mode,)
    payload: dict = {"location": {"lat": location.lat, "lon": location.lon}}
    for mode in modes:
        result = lb.snr_db(cfg.device(), cfg.satellite(), location, mode, table)
        key = mode.replace("-", "_")
        payload[key] = result.as_dict()
        print(f"{mode}: snr={result.snr_db:.4f} dB mcs={result.mcs_level}")
    if args.reference_snr_db is not None:
        payload["reference_snr_db"] = args.reference_snr_db
        payload["deviation_db"] = {
            k: payload[k]["snr_db"] - args.reference_snr_db
            for k in payload
            if k in ("linear", "db_scaled")
        }
    _write_json(out / "linkbudget.json", payload)
    print(f"wrote {out / 'linkbudget.json'}")
    return EXIT_OK


def cmd_capacity(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    out = _out_dir(args)
    table = cfg.mcs_table()
    exception = cfg.traffic("exception")
    periodic = cfg.traffic("periodic")
    period = cfg.reference_period_s
    k = cfg.budget

    worst = cfg.timing()
    best = cfg.timing(rus_per_report=table.ru_for_level(11))
    bw = cap.bandwidth_required_hz(k, worst, exception)
    payload = {
        "n_sensors": k,
        "worst_case": {
            "rus_per_report": worst.rus_per_report,
            "report_duration_ms": cap.report_duration_ms(worst),
            "devices_per_carrier_exception": cap.devices_per_carrier_exception(worst, period),
            "devices_per_carrier_periodic": cap.devices_per_carrier_periodic(worst, periodic, period),
            "bandwidth_hz": bw,
            "bandwidth_cost_usd": cap.spectrum_cost_usd(bw, cfg.usd_per_hz),
        },
        "best_case": {
            "rus_per_report": best.rus_per_report,
            "report_duration_ms": cap.report_duration_ms(best),
            "devices_per_carrier_exception": cap.devices_per_carrier_exception(best, period),
        },
        "traffic": {
            "periodic_sessions": cap.periodic_sessions(k, period, periodic),
            "periodic_total_bytes": cap.traffic_total_bytes(k, period, periodic),
            "exception_total_bytes": cap.traffic_total_bytes(k, period, exception),
        },
    }
    _write_json(out / "capacity.json", payload)
    w = payload["worst_case"]
    print(
        f"K={k}: duration={w['report_duration_ms']:.0f} ms, "
        f"devices/carrier={w['devices_per_carrier_exception']}, "
        f"bandwidth={w['bandwidth_hz'] / 1e6:.2f} MHz, "
        f"cost={w['bandwidth_cost_usd'] / 1e6:.3f} M USD"
    )
    return EXIT_OK


def _run_scheme_campaign(cfg: RunConfig, grid, catalog, scheme: str, budget: int, device_cost: float):
    placement = _placement_for(scheme, grid, budget, cfg)
    econ = camp.EconomicsParams(
        carbon_price_usd_per_ton=cfg.carbon_price_usd_per_ton,
        device_cost_usd=device_cost,
        bandwidth_cost_usd=_bandwidth_cost(cfg, placement.deployed),
    )
    result = camp.run_campaign(
        grid, placement, catalog, econ, trials=cfg.trials, seed=cfg.seed, scheme=scheme
    )
    return placement, result


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    budgets = _parse_sweep(args.sweep) if args.sweep else None
    out = _out_dir(args)
    grid = _load_grid(cfg)
    catalog = ingest_fires(cfg.fires_csv, grid)
    schemes = SCHEMES if args.scheme == "both" else (args.scheme,)

    if budgets is not None:
        _run_sweep(cfg, grid, catalog, schemes, budgets, out)
        return EXIT_OK

    for scheme in schemes:
        _, result = _run_scheme_campaign(
            cfg, grid, catalog, scheme, cfg.budget, cfg.device_cost_case_a_usd
        )
        camp.write_campaign_json(result, out / f"campaign_{scheme}.json")
        camp.write_fires_csv(result, out / f"fires_{scheme}.csv")
        t = result.totals
        print(
            f"{scheme}: burned={t.burned_km2:.1f} km2 (baseline {t.baseline_burned_km2:.1f}), "
            f"carbon={t.carbon_ton:.0f} t, savings={t.savings_usd / 1e9:.3f} B USD"
        )
    print(f"wrote campaign outputs to {out}")
    return EXIT_OK


def _parse_sweep(text: str) -> list[int]:
    """Budgets of a comma-separated --sweep value, each a distinct count >= 0."""
    budgets: list[int] = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not value.is_integer():
            raise ValidationError(f"--sweep: {token!r} is not a whole sensor budget")
        budget = int(value)
        if budget < 0:
            raise ValidationError(f"--sweep: budget {token!r} must be >= 0")
        if budget in budgets:
            raise ValidationError(f"--sweep: budget {token!r} repeats an earlier budget")
        budgets.append(budget)
    if not budgets:
        raise ValidationError(f"--sweep: {text!r} names no budget")
    return budgets


def _run_sweep(cfg: RunConfig, grid, catalog, schemes, budgets, out: Path) -> None:
    fig3a = [["budget", "scheme", "utility"]]
    fig4b = [["budget", "scheme", "burned_km2"]]
    fig4c = [["budget", "scheme", "carbon_ton"]]
    fig4d = [["budget", "scheme", "savings_case_a_usd", "savings_case_b_usd"]]
    baseline_written = False
    for budget in budgets:
        for scheme in schemes:
            placement, result = _run_scheme_campaign(
                cfg, grid, catalog, scheme, budget, cfg.device_cost_case_a_usd
            )
            utility = system_utility(grid, placement.counts, cfg.t_hours, cfg.fire_params())
            t = result.totals
            # Case B differs only in the device-cost term.
            savings_b = (
                t.carbon_revenue_usd
                - placement.deployed * cfg.device_cost_case_b_usd
                - t.bandwidth_cost_usd
            )
            fig3a.append([budget, scheme, repr(utility)])
            fig4b.append([budget, scheme, repr(t.burned_km2)])
            fig4c.append([budget, scheme, repr(t.carbon_ton)])
            fig4d.append([budget, scheme, repr(t.savings_usd), repr(savings_b)])
            if not baseline_written:
                fig4b.append([0, "catalog", repr(t.baseline_burned_km2)])
                fig4c.append([0, "catalog", repr(t.baseline_carbon_ton)])
                baseline_written = True
            print(f"K={budget} {scheme}: burned={t.burned_km2:.1f} savings={t.savings_usd/1e9:.3f}B")
    for name, rows in (
        ("fig3a_utility.csv", fig3a),
        ("fig4b_burned_area.csv", fig4b),
        ("fig4c_carbon.csv", fig4c),
        ("fig4d_savings.csv", fig4d),
    ):
        with atomic_write(out / name, newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
    print(f"wrote sweep outputs to {out}")


def cmd_report(args) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise ValidationError(f"output directory not found: {out}")
    known = [
        "plan_summary.json",
        "capacity.json",
        "linkbudget.json",
        "campaign_optimized.json",
        "campaign_uniform.json",
    ]
    report: dict = {"sources": {}}
    for name in known:
        path = out / name
        if path.is_file():
            with open(path) as f:
                try:
                    payload = json.load(f)
                except ValueError as exc:
                    raise ValidationError(f"{path}: not valid JSON: {exc}") from None
            if not isinstance(payload, dict):
                raise ValidationError(f"{path}: top-level JSON value is not an object")
            report["sources"][name] = payload
    if not report["sources"]:
        raise ValidationError(f"no prior command outputs found in {out}")
    _write_json(out / "report.json", report)
    print(f"aggregated {len(report['sources'])} outputs into {out / 'report.json'}")
    return EXIT_OK


def _overrides(args) -> dict:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "budget", None) is not None:
        overrides["plan.budget"] = args.budget
    if getattr(args, "t_hours", None) is not None:
        overrides["plan.t_hours"] = args.t_hours
    if getattr(args, "trials", None) is not None:
        overrides["campaign.trials"] = args.trials
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firesat",
        description="Wildfire sensor placement, GEO uplink budget, and NB-IoT capacity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=False, mode=False):
        p.add_argument("--config", default=str(default_config_path()), help="config file path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if scheme:
            p.add_argument("--scheme", choices=["optimized", "uniform", "both"], default="both")
        if mode:
            p.add_argument("--mode", choices=["linear", "db-scaled", "both"], default="both")

    p_plan = sub.add_parser("plan", help="solve both placement schemes and report utility")
    common(p_plan, scheme=True)
    p_plan.add_argument("--budget", type=int, default=None, help="override sensor budget")
    p_plan.add_argument("--t-hours", type=float, default=None, help="override detection deadline")
    p_plan.set_defaults(func=cmd_plan)

    p_link = sub.add_parser("linkbudget", help="uplink SNR and MCS at a location")
    common(p_link, mode=True)
    p_link.add_argument("--lat", type=float, required=True)
    p_link.add_argument("--lon", type=float, required=True)
    p_link.add_argument(
        "--reference-snr-db",
        type=float,
        default=None,
        help="include deviation against a reference SNR in the report",
    )
    p_link.set_defaults(func=cmd_linkbudget)

    p_cap = sub.add_parser("capacity", help="bandwidth requirement and spectrum cost")
    common(p_cap)
    p_cap.add_argument("--budget", type=int, default=None, help="override sensor count")
    p_cap.set_defaults(func=cmd_capacity)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo fire-season campaign")
    common(p_sim, scheme=True)
    p_sim.add_argument("--budget", type=int, default=None)
    p_sim.add_argument("--t-hours", type=float, default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument(
        "--sweep",
        default=None,
        help="comma-separated budgets; emits figure-shaped CSVs instead of a single run",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="aggregate prior command outputs")
    p_rep.add_argument("--out", default="out", help="directory holding prior outputs")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
