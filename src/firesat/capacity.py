"""NB-IoT traffic models, transmission timing, and bandwidth sizing.

Sizing follows the worst-case assumption that every device reports
simultaneously at the lowest supported MCS. A report transaction costs one
round trip for random access, one for data plus acknowledgment, and the
resource-unit airtime of the payload.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import NumericError, ValidationError

SECONDS_PER_DAY = 86400.0
# Most devices per carrier reported under periodic traffic.
DEVICE_CAP = 10**12


@dataclass(frozen=True)
class TrafficModel:
    """Uplink traffic profile: event-triggered exception reports or scheduled
    periodic reports (sessions_per_day_coeff applies to the periodic kind)."""

    kind: str
    payload_bytes: int
    reference_period_s: float
    sessions_per_day_coeff: float

    def __post_init__(self):
        if self.kind not in ("exception", "periodic"):
            raise ValidationError(f"unknown traffic kind {self.kind!r}")
        if not 20 <= self.payload_bytes <= 200:
            raise ValidationError("payload_bytes must be in [20, 200]")
        if not self.reference_period_s > 0:
            raise ValidationError("reference_period_s must be > 0")
        if not self.sessions_per_day_coeff >= 0:
            raise ValidationError("sessions_per_day_coeff must be >= 0")


@dataclass(frozen=True)
class RadioTiming:
    """Single-tone NB-IoT timing over a GEO link.

    tx_attempts counts data transmissions per report; 1 means no
    retransmission (two RTTs total).
    """

    rtt_ms: float
    ru_time_ms: float
    ru_bw_khz: float
    carrier_bw_khz: float
    rus_per_report: int
    tx_attempts: int

    def __post_init__(self):
        if not self.rtt_ms >= 0:
            raise ValidationError("rtt_ms must be >= 0")
        for name in ("ru_time_ms", "ru_bw_khz", "carrier_bw_khz"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")
        if self.rus_per_report < 1 or self.tx_attempts < 1:
            raise ValidationError("rus_per_report and tx_attempts must be >= 1")
        ratio = self.carrier_bw_khz / self.ru_bw_khz
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError("carrier_bw_khz must be divisible by ru_bw_khz")

    @property
    def subcarriers(self) -> int:
        return int(round(self.carrier_bw_khz / self.ru_bw_khz))


def report_duration_ms(t: RadioTiming) -> float:
    """Total time for one report: random-access RTT plus, per attempt, a
    data/ack RTT and the RU airtime."""
    return t.rtt_ms + t.tx_attempts * (t.rtt_ms + t.rus_per_report * t.ru_time_ms)


def devices_per_carrier_exception(t: RadioTiming, period_s: float) -> int:
    """Devices one carrier can serve within the latency period, all sending
    exception reports."""
    if period_s <= 0:
        raise ValidationError("period_s must be > 0")
    try:
        slots = int(period_s * 1000.0 // report_duration_ms(t))
    except (OverflowError, ValueError):  # an infinite or NaN slot count
        raise NumericError(f"report slots in a {period_s} s period are not finite") from None
    return slots * t.subcarriers


def periodic_sessions(k_sensors: int, t_obs_s: float, m: TrafficModel) -> float:
    """Number of periodic-report sessions across k sensors in an observation
    window, as a real value."""
    if m.kind != "periodic":
        raise ValidationError("periodic_sessions requires a periodic traffic model")
    if k_sensors < 0 or t_obs_s < 0:
        raise ValidationError("k_sensors and t_obs_s must be >= 0")
    try:
        return m.sessions_per_day_coeff * k_sensors * (t_obs_s / SECONDS_PER_DAY)
    except OverflowError:  # a count beyond the float range
        raise NumericError(f"{k_sensors} sensors overflow a float") from None


def traffic_total_bytes(k_sensors: int, t_obs_s: float, m: TrafficModel) -> int:
    """Total uplink bytes in the window: every sensor reports once for
    exception traffic, round(sessions) reports for periodic traffic."""
    if m.kind == "exception":
        return k_sensors * m.payload_bytes
    sessions = periodic_sessions(k_sensors, t_obs_s, m)
    try:
        return round(sessions) * m.payload_bytes
    except (OverflowError, ValueError):  # an infinite or NaN session count
        raise NumericError(f"{sessions} periodic sessions cannot be counted") from None


def devices_per_carrier_periodic(t: RadioTiming, m: TrafficModel, period_s: float) -> int:
    """Devices one carrier can serve under periodic traffic: concurrent report
    slots per period divided by each device's sessions per period, at most
    DEVICE_CAP.

    A zero sessions coefficient means unbounded support; DEVICE_CAP is
    returned with an overflow warning.
    """
    if m.kind != "periodic":
        raise ValidationError("devices_per_carrier_periodic requires a periodic model")
    slots = devices_per_carrier_exception(t, period_s)
    sessions_per_device = m.sessions_per_day_coeff * (period_s / SECONDS_PER_DAY)
    if sessions_per_device == 0.0:
        warnings.warn("zero session rate supports unboundedly many devices; returning cap")
        return DEVICE_CAP
    try:
        return min(DEVICE_CAP, math.floor(slots / sessions_per_device))
    except OverflowError:  # slots or the quotient beyond the float range
        raise NumericError(
            f"{slots} report slots per carrier over {sessions_per_device} sessions per device "
            "overflow a float"
        ) from None


def bandwidth_required_hz(k_sensors: int, t: RadioTiming, m: TrafficModel) -> float:
    """Worst-case spectrum for k sensors all reporting within the latency
    period: whole carriers, no fractional smoothing."""
    if m.kind != "exception":
        raise ValidationError("bandwidth sizing uses the exception (worst-case) model")
    if k_sensors < 0:
        raise ValidationError("k_sensors must be >= 0")
    if k_sensors == 0:
        return 0.0
    per_carrier = devices_per_carrier_exception(t, m.reference_period_s)
    if per_carrier == 0:
        raise ValidationError(
            "a report does not fit in the latency period; no finite bandwidth suffices"
        )
    carriers = -(-k_sensors // per_carrier)  # exact ceiling in integers
    try:
        bandwidth = carriers * t.carrier_bw_khz * 1000.0
    except OverflowError:  # a carrier count beyond the float range
        raise NumericError(f"{k_sensors} sensors at {per_carrier} per carrier overflow a float") from None
    if not math.isfinite(bandwidth):
        raise NumericError(f"{carriers} carriers of {t.carrier_bw_khz} kHz: bandwidth not finite")
    return bandwidth


def spectrum_cost_usd(bandwidth_hz: float, usd_per_hz: float) -> float:
    if bandwidth_hz < 0 or usd_per_hz < 0:
        raise ValidationError("bandwidth_hz and usd_per_hz must be >= 0")
    cost = bandwidth_hz * usd_per_hz
    if not math.isfinite(cost):
        raise NumericError(f"{bandwidth_hz} Hz at {usd_per_hz} USD/Hz: spectrum cost not finite")
    return cost
