"""Run configuration: a flat key-value file with dotted section keys.

Format: one `key = value` per line, `#` starts a comment line, blank lines
ignored. Relative paths resolve against the config file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .capacity import RadioTiming, TrafficModel
from .errors import ValidationError
from .fire_model import FireModelParams
from .geo import GeoPoint, SatelliteConfig
from .link_budget import DEFAULT_MCS_TABLE, DeviceConfig, McsTable, load_mcs_table


def parse_kv_file(path) -> dict[str, str]:
    result: dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            if key in result:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            result[key] = value
    return result


_REQUIRED = object()


def _key(name: str, default=_REQUIRED):
    """A RunConfig field read from config key `name`, parsed by the field's type."""
    return field(metadata={"key": name, "default": default})


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration; each field names the config key it is read from."""

    regions_csv: Path = _key("paths.regions")
    fires_csv: Path = _key("paths.fires")
    mcs_table_csv: Path | None = _key("paths.mcs_table", "")
    cell_area_km2: float = _key("grid.cell_area_km2", 100.0)
    theta_wilt: float = _key("fire.theta_wilt")
    theta_field: float = _key("fire.theta_field")
    b_low: float = _key("fire.b_low", 0.2)
    b_up: float = _key("fire.b_up", 1.0)
    beta_e: float = _key("fire.beta_e", 0.35)
    l_low: float = _key("fire.l_low", 0.02)
    l_up: float = _key("fire.l_up", 0.85)
    t_hours: float = _key("plan.t_hours", 4.0)
    budget: int = _key("plan.budget")
    sub_satellite_lon: float = _key("satellite.sub_satellite_lon", -125.0)
    altitude_km: float = _key("satellite.altitude_km", 35786.0)
    beam_center_lat: float = _key("satellite.beam_center_lat", 37.0)
    beam_center_lon: float = _key("satellite.beam_center_lon", -122.0)
    beam_radius_km: float = _key("satellite.beam_radius_km", 1000.0)
    g_s_max_dbi: float = _key("satellite.g_s_max_dbi", 25.0)
    tx_power_dbm: float = _key("device.tx_power_dbm", 23.0)
    g_t_max_dbi: float = _key("device.g_t_max_dbi", 7.38)
    off_boresight_deg: float = _key("device.off_boresight_deg", 50.0)
    carrier_hz: float = _key("device.carrier_hz", 2e9)
    noise_power_dbm: float = _key("device.noise_power_dbm", -167.42)
    other_losses_db: float = _key("device.other_losses_db", -10.0)
    rtt_ms: float = _key("radio.rtt_ms", 500.0)
    ru_time_ms: float = _key("radio.ru_time_ms", 32.0)
    ru_bw_khz: float = _key("radio.ru_bw_khz", 3.75)
    carrier_bw_khz: float = _key("radio.carrier_bw_khz", 180.0)
    rus_per_report: int = _key("radio.rus_per_report", 3)
    tx_attempts: int = _key("radio.tx_attempts", 1)
    payload_bytes: int = _key("traffic.payload_bytes", 20)
    reference_period_s: float = _key("traffic.reference_period_s", 10.0)
    sessions_per_day: float = _key("traffic.sessions_per_day", 11.2)
    carbon_price_usd_per_ton: float = _key("econ.carbon_price_usd_per_ton", 200.0)
    device_cost_case_a_usd: float = _key("econ.device_cost_case_a_usd", 10.0)
    device_cost_case_b_usd: float = _key("econ.device_cost_case_b_usd", 100.0)
    usd_per_hz: float = _key("econ.usd_per_hz", 0.6)
    trials: int = _key("campaign.trials", 20)
    seed: int = _key("seed", 1234)

    def __post_init__(self):
        if self.t_hours <= 0:
            raise ValidationError("plan.t_hours must be > 0")
        if self.budget < 0:
            raise ValidationError("plan.budget must be >= 0")
        if self.trials < 1:
            raise ValidationError("campaign.trials must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        for p in (self.regions_csv, self.fires_csv, self.mcs_table_csv):
            if p is not None and not Path(p).is_file():
                raise ValidationError(f"configured file does not exist: {p}")

    def fire_params(self) -> FireModelParams:
        return FireModelParams(
            theta_wilt=self.theta_wilt,
            theta_field=self.theta_field,
            b_low=self.b_low,
            b_up=self.b_up,
            beta_e=self.beta_e,
            l_low=self.l_low,
            l_up=self.l_up,
        )

    def satellite(self) -> SatelliteConfig:
        return SatelliteConfig(
            sub_satellite_lon=self.sub_satellite_lon,
            beam_center=GeoPoint(self.beam_center_lat, self.beam_center_lon),
            beam_radius_km=self.beam_radius_km,
            g_s_max_dbi=self.g_s_max_dbi,
            altitude_km=self.altitude_km,
        )

    def device(self) -> DeviceConfig:
        return DeviceConfig(
            tx_power_dbm=self.tx_power_dbm,
            g_t_max_dbi=self.g_t_max_dbi,
            off_boresight_deg=self.off_boresight_deg,
            carrier_hz=self.carrier_hz,
            noise_power_dbm=self.noise_power_dbm,
            other_losses_db=self.other_losses_db,
        )

    def timing(self, rus_per_report: int | None = None) -> RadioTiming:
        return RadioTiming(
            rtt_ms=self.rtt_ms,
            ru_time_ms=self.ru_time_ms,
            ru_bw_khz=self.ru_bw_khz,
            carrier_bw_khz=self.carrier_bw_khz,
            rus_per_report=self.rus_per_report if rus_per_report is None else rus_per_report,
            tx_attempts=self.tx_attempts,
        )

    def traffic(self, kind: str) -> TrafficModel:
        return TrafficModel(
            kind=kind,
            payload_bytes=self.payload_bytes,
            reference_period_s=self.reference_period_s,
            sessions_per_day_coeff=self.sessions_per_day,
        )

    def mcs_table(self) -> McsTable:
        if self.mcs_table_csv is None:
            return DEFAULT_MCS_TABLE
        return load_mcs_table(self.mcs_table_csv)


# Parser of a config value by the annotation of its RunConfig field.
_PARSE = {"float": float, "int": int, "Path": str, "Path | None": str}


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file; overrides replace parsed values."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    raw = parse_kv_file(path)
    overrides = overrides or {}
    keys = {f.metadata["key"] for f in fields(RunConfig)}
    for source, given in ((str(path), raw), ("overrides", overrides)):
        unknown = sorted(set(given) - keys)
        if unknown:
            raise ValidationError(f"{source}: unknown config keys: {', '.join(unknown)}")
    kwargs: dict[str, object] = {}
    for f in fields(RunConfig):
        key, default = f.metadata["key"], f.metadata["default"]
        if key in raw:
            try:
                value = _PARSE[f.type](raw[key])
            except ValueError as exc:
                raise ValidationError(f"{path}: bad value for {key}: {exc}") from exc
        elif default is _REQUIRED:
            raise ValidationError(f"{path}: missing required key {key}")
        else:
            value = default
        value = overrides.get(key, value)
        if f.type == "float" and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value}")
        if f.type.startswith("Path"):
            # Relative to the config file's directory; an empty optional path is unset.
            value = path.parent / value if value or f.type == "Path" else None
        kwargs[f.name] = value
    return RunConfig(**kwargs)
