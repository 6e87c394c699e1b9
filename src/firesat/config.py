"""Run configuration: a flat key-value file with dotted section keys.

Format: one `key = value` per line, `#` starts a comment line, blank lines
ignored. Relative paths resolve against the config file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

from .capacity import RadioTiming, TrafficModel
from .errors import ValidationError
from .fire_model import FireModelParams
from .geo import GeoPoint, SatelliteConfig
from .link_budget import DeviceConfig, McsTable, load_mcs_table


def parse_kv_file(path) -> dict[str, str]:
    try:
        lines = Path(path).read_text().split("\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: cannot decode as text: {exc}") from None
    result: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
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


def _key(name: str):
    """A RunConfig field read from config key `name`, parsed by the field's type."""
    return field(metadata={"key": name})


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration; each field names the config key it is read from.

    Each model config is built from the fields of the same names (`_build`).
    """

    regions_csv: Path = _key("paths.regions")
    fires_csv: Path = _key("paths.fires")
    mcs_table_csv: Path = _key("paths.mcs_table")
    cell_area_km2: float = _key("grid.cell_area_km2")
    theta_wilt: float = _key("fire.theta_wilt")
    theta_field: float = _key("fire.theta_field")
    b_low: float = _key("fire.b_low")
    b_up: float = _key("fire.b_up")
    beta_e: float = _key("fire.beta_e")
    l_low: float = _key("fire.l_low")
    l_up: float = _key("fire.l_up")
    t_hours: float = _key("plan.t_hours")
    budget: int = _key("plan.budget")
    sub_satellite_lon: float = _key("satellite.sub_satellite_lon")
    altitude_km: float = _key("satellite.altitude_km")
    beam_center_lat: float = _key("satellite.beam_center_lat")
    beam_center_lon: float = _key("satellite.beam_center_lon")
    beam_radius_km: float = _key("satellite.beam_radius_km")
    g_s_max_dbi: float = _key("satellite.g_s_max_dbi")
    tx_power_dbm: float = _key("device.tx_power_dbm")
    g_t_max_dbi: float = _key("device.g_t_max_dbi")
    off_boresight_deg: float = _key("device.off_boresight_deg")
    carrier_hz: float = _key("device.carrier_hz")
    noise_power_dbm: float = _key("device.noise_power_dbm")
    other_losses_db: float = _key("device.other_losses_db")
    rtt_ms: float = _key("radio.rtt_ms")
    ru_time_ms: float = _key("radio.ru_time_ms")
    ru_bw_khz: float = _key("radio.ru_bw_khz")
    carrier_bw_khz: float = _key("radio.carrier_bw_khz")
    rus_per_report: int = _key("radio.rus_per_report")
    tx_attempts: int = _key("radio.tx_attempts")
    payload_bytes: int = _key("traffic.payload_bytes")
    reference_period_s: float = _key("traffic.reference_period_s")
    sessions_per_day: float = _key("traffic.sessions_per_day")
    carbon_price_usd_per_ton: float = _key("econ.carbon_price_usd_per_ton")
    device_cost_case_a_usd: float = _key("econ.device_cost_case_a_usd")
    device_cost_case_b_usd: float = _key("econ.device_cost_case_b_usd")
    usd_per_hz: float = _key("econ.usd_per_hz")
    trials: int = _key("campaign.trials")
    seed: int = _key("seed")

    def __post_init__(self):
        if self.t_hours <= 0:
            raise ValidationError("plan.t_hours must be > 0")
        if self.budget < 0:
            raise ValidationError("plan.budget must be >= 0")
        if self.trials < 1:
            raise ValidationError("campaign.trials must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        for f in fields(self):
            p = getattr(self, f.name)
            if f.type == "Path" and not p.is_file():
                raise ValidationError(f"{f.metadata['key']}: configured file does not exist: {p}")

    def _build(self, cls, **given):
        """A `cls` whose fields take the values of this config's fields of the
        same names, apart from those in `given`."""
        own = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**own, **given)

    def fire_params(self) -> FireModelParams:
        return self._build(FireModelParams)

    def satellite(self) -> SatelliteConfig:
        beam_center = GeoPoint(self.beam_center_lat, self.beam_center_lon)
        return self._build(SatelliteConfig, beam_center=beam_center)

    def device(self) -> DeviceConfig:
        return self._build(DeviceConfig)

    def timing(self, rus_per_report: int | None = None) -> RadioTiming:
        """The radio timing, at the configured RU count unless one is given.

        One validated RadioTiming per distinct RU count, kept on this config.
        """
        rus = self.rus_per_report if rus_per_report is None else rus_per_report
        try:
            return self._timings[rus]
        except KeyError:
            pass
        timing = self._timings[rus] = self._build(RadioTiming, rus_per_report=rus)
        return timing

    @cached_property
    def _timings(self) -> dict[int, RadioTiming]:
        return {}

    def traffic(self, kind: str) -> TrafficModel:
        return self._build(TrafficModel, kind=kind, sessions_per_day_coeff=self.sessions_per_day)

    def mcs_table(self) -> McsTable:
        return load_mcs_table(self.mcs_table_csv)


# Every key a config file or an override may set.
CONFIG_KEYS = frozenset(f.metadata["key"] for f in fields(RunConfig))

# Parser of a config value by the annotation of its RunConfig field.
_PARSE = {"float": float, "int": int, "Path": str}


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file; overrides replace parsed values."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    raw = parse_kv_file(path)
    overrides = overrides or {}
    for source, given in ((str(path), raw), ("overrides", overrides)):
        unknown = sorted(set(given) - CONFIG_KEYS)
        if unknown:
            raise ValidationError(f"{source}: unknown config keys: {', '.join(unknown)}")
    missing = sorted(CONFIG_KEYS - set(raw))
    if missing:
        raise ValidationError(f"{path}: missing required keys: {', '.join(missing)}")
    kwargs: dict[str, object] = {}
    for f in fields(RunConfig):
        key = f.metadata["key"]
        try:
            value = _PARSE[f.type](raw[key])
        except ValueError as exc:
            raise ValidationError(f"{path}: bad value for {key}: {exc}") from exc
        value = overrides.get(key, value)
        if f.type == "float" and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value}")
        if f.type == "Path":
            value = path.parent / value  # relative to the config file's directory
        kwargs[f.name] = value
    return RunConfig(**kwargs)
