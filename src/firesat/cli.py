"""Command-line interface: plan, linkbudget, capacity, simulate, report.

Every command is deterministic given (config, seed); exit codes are 0 on
success, 2 on validation failure, 3 on numeric failure. Each command returns
its summary lines and `main` prints them, so a summary comes only after all
its command's files are written: a closed stdout loses the summary but no
file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

from . import capacity as cap
from . import campaign as camp
from . import link_budget as lb
from . import placement as pl
from .atomic import read_json, write_csv, write_json
from .config import CONFIG_KEYS, RunConfig, default_config_path, load_config
from .errors import NumericError, ValidationError
from .fire_model import system_utility
from .geo import GeoPoint
from .ingest import ingest_fires, ingest_regions

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

SCHEMES = ("optimized", "uniform")
BOTH = "both"


def _each(choice: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """The names a --scheme or --mode choice stands for: all of them for BOTH."""
    return names if choice == BOTH else (choice,)


def _out_dir(args) -> Path:
    """The --out directory, created if missing. A command calls it only once
    every input is validated and every result computed, so a rejected run
    leaves no directory behind."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out {out}: cannot create directory: {exc.strerror or exc}") from None
    return out


def _print_summary(lines: list[str]) -> None:
    """Print a command's summary lines and flush them. If stdout is a pipe
    whose reader has gone, the lines are dropped and fd 1 points at
    os.devnull, so that no later flush fails either."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _placement_for(scheme: str, grid, budget: int, cfg: RunConfig) -> pl.Placement:
    if scheme == "optimized":
        return pl.optimize_greedy(grid, budget, cfg.t_hours, cfg.fire_params())
    return pl.biomass_uniform(grid, budget)


def _bandwidth_cost(cfg: RunConfig, n_sensors: int) -> float:
    bw = cap.bandwidth_required_hz(n_sensors, cfg.timing(), cfg.traffic())
    return cap.spectrum_cost_usd(bw, cfg.usd_per_hz)


def cmd_plan(args) -> list[str]:
    cfg = load_config(args.config, _overrides(args))
    grid = ingest_regions(cfg.regions_csv, cfg.cell_area_km2)
    rows, cols = (a.tolist() for a in grid.frame.rows_cols())
    summary: dict = {"budget": cfg.budget, "t_hours": cfg.t_hours, "schemes": {}}
    # Every placement and utility is computed before any file is written, so
    # a failing one leaves none.
    placements = {s: _placement_for(s, grid, cfg.budget, cfg) for s in _each(args.scheme, SCHEMES)}
    utilities = {s: system_utility(grid, p.counts, cfg.t_hours, cfg.fire_params())
                 for s, p in placements.items()}
    out = _out_dir(args)
    lines = []
    for scheme, placement in placements.items():
        utility = utilities[scheme]
        pl.write_placement_csv(placement, out / f"placement_{scheme}.csv")
        pl.write_placement_json(placement, out / f"placement_{scheme}.json", scheme)
        write_csv(
            out / f"heatmap_{scheme}.csv",
            ["region_id", "row", "col", "n_sensors"],
            zip(range(len(placement.counts)), rows, cols, placement.counts),
        )
        summary["schemes"][scheme] = {
            "utility": utility,
            "deployed": placement.deployed,
            "max_per_region": max(placement.counts),
            "nonzero_regions": len(placement.counts) - placement.counts.count(0),
        }
        lines.append(f"{scheme}: utility={utility:.6f} deployed={placement.deployed}")
    write_json(out / "plan_summary.json", summary)
    return [*lines, f"wrote plan outputs to {out}"]


def cmd_linkbudget(args) -> list[str]:
    if args.reference_snr_db is not None and not math.isfinite(args.reference_snr_db):
        raise ValidationError(f"--reference-snr-db must be finite, got {args.reference_snr_db}")
    cfg = load_config(args.config, _overrides(args))
    location = GeoPoint(args.lat, args.lon)
    table = cfg.mcs_table()
    payload: dict = {"location": {"lat": location.lat, "lon": location.lon}}
    snr: dict = {}
    lines = []
    for mode in _each(args.mode, lb.MODES):
        result = lb.snr_db(cfg.device(), cfg.satellite(), location, mode, table)
        key = mode.replace("-", "_")
        payload[key] = asdict(result)
        snr[key] = result.snr_db
        lines.append(f"{mode}: snr={result.snr_db:.4f} dB mcs={result.mcs_level}")
    if args.reference_snr_db is not None:
        payload["reference_snr_db"] = args.reference_snr_db
        payload["deviation_db"] = {k: v - args.reference_snr_db for k, v in snr.items()}
    out = _out_dir(args)
    write_json(out / "linkbudget.json", payload)
    return [*lines, f"wrote {out / 'linkbudget.json'}"]


def cmd_capacity(args) -> list[str]:
    cfg = load_config(args.config, _overrides(args))
    table = cfg.mcs_table()
    traffic = cfg.traffic()
    k = cfg.budget

    worst = cfg.timing()
    best = cfg.timing(rus_per_report=table.ru_for_level(11))
    bw = cap.bandwidth_required_hz(k, worst, traffic)
    payload = {
        "n_sensors": k,
        "worst_case": {
            "rus_per_report": worst.rus_per_report,
            "report_duration_ms": cap.report_duration_ms(worst),
            "devices_per_carrier_exception": cap.devices_per_carrier_exception(worst, traffic),
            "devices_per_carrier_periodic": cap.devices_per_carrier_periodic(worst, traffic),
            "bandwidth_hz": bw,
            "bandwidth_cost_usd": cap.spectrum_cost_usd(bw, cfg.usd_per_hz),
        },
        "best_case": {
            "rus_per_report": best.rus_per_report,
            "report_duration_ms": cap.report_duration_ms(best),
            "devices_per_carrier_exception": cap.devices_per_carrier_exception(best, traffic),
        },
        "traffic": {
            "periodic_sessions": cap.periodic_sessions(k, traffic),
            "periodic_total_bytes": cap.periodic_total_bytes(k, traffic),
            "exception_total_bytes": cap.exception_total_bytes(k, traffic),
        },
    }
    out = _out_dir(args)
    write_json(out / "capacity.json", payload)
    w = payload["worst_case"]
    return [
        f"K={k}: duration={w['report_duration_ms']:.0f} ms, "
        f"devices/carrier={w['devices_per_carrier_exception']}, "
        f"bandwidth={w['bandwidth_hz'] / 1e6:.2f} MHz, "
        f"cost={w['bandwidth_cost_usd'] / 1e6:.3f} M USD"
    ]


def _run_scheme_campaign(cfg: RunConfig, grid, catalog, scheme: str, budget: int, sweep: bool):
    """The campaign result of one scheme at one budget, with economics at
    device cost case A; for a sweep, also the placement's utility and the
    savings at device cost case B, else None for both."""
    placement = _placement_for(scheme, grid, budget, cfg)
    econ = camp.EconomicsParams(
        carbon_price_usd_per_ton=cfg.carbon_price_usd_per_ton,
        device_cost_usd=cfg.device_cost_case_a_usd,
        bandwidth_cost_usd=_bandwidth_cost(cfg, placement.deployed),
    )
    result = camp.run_campaign(
        grid, placement, catalog, econ, trials=cfg.trials, seed=cfg.seed, scheme=scheme
    )
    if not sweep:
        return result, None, None
    utility = system_utility(grid, placement.counts, cfg.t_hours, cfg.fire_params())
    # Case B differs only in the device-cost term.
    case_b = replace(econ, device_cost_usd=cfg.device_cost_case_b_usd)
    return result, utility, case_b.money(result.totals.carbon_reduction_ton, placement.deployed)[2]


def cmd_simulate(args) -> list[str]:
    sweep = args.sweep is not None
    if sweep and getattr(args, "plan.budget") is not None:
        raise ValidationError("--budget and --sweep are exclusive: --sweep names the budgets")
    cfg = load_config(args.config, _overrides(args))
    budgets = _parse_sweep(args.sweep) if sweep else [cfg.budget]
    grid = ingest_regions(cfg.regions_csv, cfg.cell_area_km2)
    catalog = ingest_fires(cfg.fires_csv, grid)
    # Every campaign runs before any file is written, so a failing one leaves none.
    runs = [_run_scheme_campaign(cfg, grid, catalog, scheme, budget, sweep)
            for budget in budgets for scheme in _each(args.scheme, SCHEMES)]
    out = _out_dir(args)
    if sweep:
        for name, (header, rows) in _sweep_tables(runs).items():
            write_csv(out / name, header, rows)
    lines = []
    for result, _, _ in runs:
        t = result.totals
        if sweep:
            lines.append(f"K={result.budget} {result.scheme}: burned={t.burned_km2:.1f} savings={t.savings_usd/1e9:.3f}B")
        else:
            camp.write_campaign_json(result, out / f"campaign_{result.scheme}.json")
            camp.write_fires_csv(result, out / f"fires_{result.scheme}.csv")
            lines.append(
                f"{result.scheme}: burned={t.burned_km2:.1f} km2 (baseline {t.baseline_burned_km2:.1f}), "
                f"carbon={t.carbon_ton:.0f} t, savings={t.savings_usd / 1e9:.3f} B USD"
            )
    return [*lines, f"wrote {'sweep' if sweep else 'campaign'} outputs to {out}"]


def _parse_sweep(text: str) -> list[int]:
    """Budgets of a comma-separated --sweep value, each a distinct count >= 0."""
    budgets: list[int] = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        try:
            budget = int(token)
        except ValueError:
            # A decimal holds every digit of the token, where a float rounds it.
            try:
                value = Decimal(token)
            except InvalidOperation:
                value = Decimal("nan")
            if not (value.is_finite() and value == value.to_integral_value()):
                raise ValidationError(f"--sweep: {token!r} is not a whole sensor budget")
            # Below 2**53 only, so that an exponent such as 1e999999999 never
            # builds a huge int; a larger budget is written in digits. Unlike
            # abs(), copy_abs() never rounds, so it cannot overflow.
            if value.copy_abs() >= 2**53:
                if token.lstrip("+-").replace("_", "").isdecimal():  # int() refused its length
                    raise ValidationError(
                        f"--sweep: {token!r} has too many digits; a budget has at most "
                        f"{sys.get_int_max_str_digits()}"
                    )
                raise ValidationError(f"--sweep: {token!r} is not below 2**53; write the budget in digits")
            budget = int(value)
        if budget < 0:
            raise ValidationError(f"--sweep: budget {token!r} must be >= 0")
        if budget in budgets:
            raise ValidationError(f"--sweep: budget {token!r} repeats an earlier budget")
        budgets.append(budget)
    if not budgets:
        raise ValidationError(f"--sweep: {text!r} names no budget")
    return budgets


def _sweep_tables(runs) -> dict[str, tuple[list[str], list]]:
    """The sweep's figure CSVs, each file name with its header and rows. The
    catalog's no-detection baseline, the same in every run, follows the first."""
    fig3a = [[r.budget, r.scheme, utility] for r, utility, _ in runs]
    fig4b = [[r.budget, r.scheme, r.totals.burned_km2] for r, _, _ in runs]
    fig4c = [[r.budget, r.scheme, r.totals.carbon_ton] for r, _, _ in runs]
    fig4d = [[r.budget, r.scheme, r.totals.savings_usd, savings_b] for r, _, savings_b in runs]
    baseline = runs[0][0].totals
    fig4b.insert(1, [0, "catalog", baseline.baseline_burned_km2])
    fig4c.insert(1, [0, "catalog", baseline.baseline_carbon_ton])
    return {
        "fig3a_utility.csv": (["budget", "scheme", "utility"], fig3a),
        "fig4b_burned_area.csv": (["budget", "scheme", "burned_km2"], fig4b),
        "fig4c_carbon.csv": (["budget", "scheme", "carbon_ton"], fig4c),
        "fig4d_savings.csv": (["budget", "scheme", "savings_case_a_usd", "savings_case_b_usd"], fig4d),
    }


def cmd_report(args) -> list[str]:
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
            report["sources"][name] = read_json(path)
    if not report["sources"]:
        raise ValidationError(f"no prior command outputs found in {out}")
    write_json(out / "report.json", report)
    return [f"aggregated {len(report['sources'])} outputs into {out / 'report.json'}"]


def _overrides(args) -> dict:
    """The config values given on the command line: an override flag's dest is its key."""
    return {k: v for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firesat",
        description="Wildfire sensor placement, GEO uplink budget, and NB-IoT capacity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=False, mode=False, budget=False, t_hours=False):
        p.add_argument("--config", default=str(default_config_path()), help="config file path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", dest="seed", type=int, help="override config seed")
        if scheme:
            p.add_argument("--scheme", choices=[*SCHEMES, BOTH], default=BOTH)
        if mode:
            p.add_argument("--mode", choices=[*lb.MODES, BOTH], default=BOTH)
        if budget:
            p.add_argument("--budget", dest="plan.budget", type=int, help="override sensor budget")
        if t_hours:
            p.add_argument("--t-hours", dest="plan.t_hours", type=float, help="override detection deadline")

    p_plan = sub.add_parser("plan", help="solve both placement schemes and report utility")
    common(p_plan, scheme=True, budget=True, t_hours=True)
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
    common(p_cap, budget=True)
    p_cap.set_defaults(func=cmd_capacity)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo fire-season campaign")
    common(p_sim, scheme=True, budget=True, t_hours=True)
    p_sim.add_argument("--trials", dest="campaign.trials", type=int)
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
        _print_summary(args.func(args))
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
