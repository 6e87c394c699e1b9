"""Uplink budget for NB-IoT devices served by a GEO spot beam.

The channel gain composes the device antenna gain (off-boresight mask), the
satellite beam gain (Bessel rolloff away from boresight), free-space path
loss, and a lumped other-losses term. Small-scale fading follows the
shadowed-Rician land-mobile-satellite model: a Nakagami-shadowed line-of-sight
component plus a circular Gaussian scatter component. Deterministic SNR takes
the fading power as 1; fading enters only through the explicit PDF and
sampler below. The MCS table is always read from a CSV file (`load_mcs_table`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import bessel
from .atomic import read_csv
from .errors import NumericError, ValidationError
from .geo import GeoPoint, SatelliteConfig, _require_finite, _view

# snr_db calls none of these; they stay importable from this module only
# because perfbench/tracing.py wraps them here by name.
from .geo import elevation_deg, great_circle_km, slant_range_km

SPEED_OF_LIGHT_M_S = 299792458.0

# Aperture coefficient of the beam rolloff model: the Bessel argument is
# a * d with a = 2.07123 / beam_radius.
BEAM_APERTURE_COEFF = 2.07123

# How snr_db may combine the beam rolloff with the peak satellite gain.
MODES = ("linear", "db-scaled")


@dataclass(frozen=True)
class DeviceConfig:
    """IoT terminal RF parameters.

    tx_power_dbm       : uplink transmit power
    g_t_max_dbi        : maximal antenna gain of the main lobe
    off_boresight_deg  : angle between the device antenna axis and the
                         satellite direction (an input; device pointing is
                         not derived from geometry)
    carrier_hz         : carrier frequency
    noise_power_dbm    : receiver noise power
    other_losses_db    : lumped atmospheric/scintillation/polarization term,
                         negative for a net loss
    """

    tx_power_dbm: float
    g_t_max_dbi: float
    off_boresight_deg: float
    carrier_hz: float
    noise_power_dbm: float
    other_losses_db: float

    def __post_init__(self):
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if self.carrier_hz <= 0:
            raise ValidationError("carrier_hz must be > 0")
        if not 0.0 < self.off_boresight_deg <= 180.0:
            raise ValidationError("off_boresight_deg must be in (0, 180]")

    # Terms of snr_db that depend on the device alone. Each is the left-hand
    # prefix of the expression it stands in for, so results stay bit-equal.

    @cached_property
    def antenna_gain(self) -> float:
        """antenna_gain_dbi at the configured off-boresight angle."""
        return antenna_gain_dbi(self.off_boresight_deg, self.g_t_max_dbi)

    @cached_property
    def eirp_dbm(self) -> float:
        """tx_power_dbm + antenna_gain, the first two terms of the SNR sum."""
        return self.tx_power_dbm + self.antenna_gain


@dataclass(frozen=True)
class FadingParams:
    """Shadowed-Rician parameters: 2b is the average scatter power, m the
    Nakagami shadowing parameter, zeta the average line-of-sight power."""

    b: float
    m: float
    zeta: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValidationError("b must be > 0")
        if not self.m > 0:
            raise ValidationError("m must be > 0")
        if not self.zeta >= 0:
            raise ValidationError("zeta must be >= 0")


@dataclass(frozen=True)
class McsRow:
    min_snr_db: float
    mcs_level: int
    ru_per_20_bytes: int

    def __post_init__(self):
        if not math.isfinite(self.min_snr_db):
            raise ValidationError(f"min_snr_db must be finite, got {self.min_snr_db}")
        if self.ru_per_20_bytes < 1:
            raise ValidationError(f"ru_per_20_bytes must be >= 1, got {self.ru_per_20_bytes}")


MCS_FIELDS = [f.name for f in fields(McsRow)]


@dataclass(frozen=True)
class McsTable:
    """Monotone step table mapping SNR to the highest supportable MCS level."""

    rows: tuple[McsRow, ...]

    def __post_init__(self):
        rows = tuple(sorted(self.rows, key=lambda r: r.min_snr_db))
        if not rows:
            raise ValidationError("MCS table must not be empty")
        levels = [r.mcs_level for r in rows]
        if levels != sorted(levels) or len(set(levels)) != len(levels):
            raise ValidationError("MCS levels must be strictly increasing with SNR")
        rus = [r.ru_per_20_bytes for r in rows]
        if any(a < b for a, b in zip(rus, rus[1:])):
            raise ValidationError("RU counts must be non-increasing with MCS level")
        object.__setattr__(self, "rows", rows)
        # Lookups only; not fields, so equality and asdict see the rows alone.
        object.__setattr__(self, "_thresholds", tuple(r.min_snr_db for r in rows))
        object.__setattr__(self, "_ru_by_level", {r.mcs_level: r.ru_per_20_bytes for r in rows})

    def level_for_snr(self, snr_db: float) -> int | None:
        """Highest MCS level whose threshold the SNR meets; None when below all."""
        if snr_db != snr_db:  # NaN meets no threshold
            return None
        i = bisect_right(self._thresholds, snr_db)
        return self.rows[i - 1].mcs_level if i else None

    def ru_for_level(self, mcs_level: int) -> int:
        try:
            return self._ru_by_level[mcs_level]
        except KeyError:
            raise ValidationError(f"MCS level {mcs_level} not in table") from None


def load_mcs_table(path) -> McsTable:
    table = read_csv(path, MCS_FIELDS, (float, int, int))
    rows = []
    for row, values in enumerate(table.rows()):
        try:
            rows.append(McsRow(*values))
        except ValidationError as exc:
            raise table.fault(row, exc) from exc
    table.raise_error()
    return McsTable(tuple(rows))


@dataclass(frozen=True)
class LinkResult:
    """Composed link budget for one device location.

    snr_db always equals tx_power_dbm + antenna_gain_dbi + beam_gain_dbi
    - fspl_db + other_losses_db - noise_power_dbm.
    """

    antenna_gain_dbi: float
    beam_gain_dbi: float
    fspl_db: float
    snr_db: float
    mcs_level: int | None
    tx_power_dbm: float
    other_losses_db: float
    noise_power_dbm: float
    mode: str
    elevation_deg: float
    slant_range_km: float
    beam_center_distance_km: float


def antenna_gain_dbi(epsilon: float, g_t_max: float) -> float:
    """Off-boresight antenna gain mask of the device.

    Main lobe up to 1 degree, a 32 - 25 log10(eps) skirt to 48 degrees, and a
    -10 dBi floor beyond.
    """
    if not 0.0 < epsilon <= 180.0:
        raise ValidationError("off-boresight angle must be in (0, 180] degrees")
    if epsilon <= 1.0:
        return g_t_max
    if epsilon <= 48.0:
        return 32.0 - 25.0 * math.log10(epsilon)
    return -10.0


def beam_rolloff_factor(d_km: float, beam_radius_km: float) -> float:
    """Beam gain rolloff with distance from the beam center, in [0, 1].

    factor = (J1(u)/(2u) + 36 J3(u)/u^3)^2 with u = (2.07123/r) d. The
    boresight limit is (1/4 + 3/4)^2 = 1, returned exactly for u < 1e-6.
    """
    if not d_km >= 0:
        raise ValidationError("d_km must be >= 0")
    if not beam_radius_km > 0:
        raise ValidationError("beam_radius_km must be > 0")
    if d_km == 0.0:  # the beam centre, even where 2.07123 / r overflows to inf
        return 1.0
    u = BEAM_APERTURE_COEFF / beam_radius_km * d_km
    if u < 1e-6:
        return 1.0
    try:
        cube = u**3
    except OverflowError:
        cube = math.inf
    if not cube < math.inf:  # u is inf or nan too
        raise NumericError(f"beam rolloff overflows a float at d_km = {d_km} "
                           f"and beam_radius_km = {beam_radius_km}")
    j1, j3 = bessel.j1_j3(u)
    inner = j1 / (2.0 * u) + 36.0 * j3 / cube
    return inner * inner


def fspl_db(distance_km: float, carrier_hz: float) -> float:
    """Free-space path loss as a positive dB value."""
    if not (distance_km > 0 and carrier_hz > 0):
        raise ValidationError("distance_km and carrier_hz must be > 0")
    four_pi_f_hz = 4.0 * math.pi * carrier_hz
    ratio = four_pi_f_hz * (distance_km * 1e3) / SPEED_OF_LIGHT_M_S
    if ratio == math.inf:
        raise NumericError(f"free-space path loss over {distance_km} km overflows a float "
                           f"at 4 pi carrier_hz = {four_pi_f_hz} Hz")
    return 20.0 * math.log10(ratio)


def _link_terms(
    device: DeviceConfig, sat: SatelliteConfig, location: GeoPoint
) -> tuple[float, float, float, float, float]:
    """The terms of snr_db that do not depend on the beam composition mode:
    (elevation_deg, beam centre distance, slant range, rolloff factor, fspl_db).

    Raises in snr_db's order: a point below the horizon, then an
    overflowing slant range, then a rejected rolloff or path loss input.
    """
    elev, d_beam, slant = _view(location, sat)
    # Looked up in this module on every call, so a replaced or wrapped
    # beam_rolloff_factor is the one used.
    factor = beam_rolloff_factor(d_beam, sat.beam_radius_km)
    return elev, d_beam, slant, factor, fspl_db(slant, device.carrier_hz)


def snr_db(
    device: DeviceConfig,
    sat: SatelliteConfig,
    location: GeoPoint,
    mode: str,
    mcs_table: McsTable,
) -> LinkResult:
    """Deterministic uplink SNR at a location, with unit fading power.

    mode selects how the beam rolloff combines with the peak satellite gain:
    "linear" applies the rolloff factor to the linear-scale gain
    (g_s_max + 10 log10(factor), the physically standard reading) while
    "db-scaled" multiplies the dBi figure itself (g_s_max * factor).
    """
    if mode not in MODES:
        raise ValidationError(f"unknown beam composition mode {mode!r}")
    elev, d_beam, slant, factor, loss = _link_terms(device, sat, location)
    if mode == "linear":
        gain_beam = sat.g_s_max_dbi + (10.0 * math.log10(factor) if factor > 0.0 else -math.inf)
    else:
        gain_beam = sat.g_s_max_dbi * factor
    # tx_power_dbm + antenna gain + gain_beam - loss + other - noise, left to right.
    snr = device.eirp_dbm + gain_beam - loss + device.other_losses_db - device.noise_power_dbm
    return LinkResult(
        device.antenna_gain, gain_beam, loss, snr, mcs_table.level_for_snr(snr),
        device.tx_power_dbm, device.other_losses_db, device.noise_power_dbm,
        mode, elev, slant, d_beam,
    )


def fading_params(elevation: float) -> FadingParams:
    """Elevation-dependent shadowed-Rician parameters (cubic fits).

    The fits are evaluated exactly as printed; below roughly 18 degrees of
    elevation they return a negative line-of-sight power and the constructed
    FadingParams rejects them.
    """
    if not 0.0 < elevation <= 90.0:
        raise ValidationError("elevation must be in (0, 90] degrees")
    t = elevation
    b = -4.7943e-8 * t**3 + 5.5784e-6 * t**2 - 2.1344e-4 * t + 3.271e-2
    m = 6.3739e-5 * t**3 + 5.8533e-4 * t**2 - 1.5973e-1 * t + 3.5156
    zeta = 1.4428e-5 * t**3 - 2.3798e-3 * t**2 + 1.2702e-1 * t - 1.4864
    return FadingParams(b=b, m=m, zeta=zeta)


_HYP_SERIES_CAP = 20000
_HYP_BLOCK = 512
_HYP_LOG_SWITCH = 600.0


def _hyp1f1_m1(m: float, z: float) -> float:
    """Confluent hypergeometric 1F1(m, 1, z) by its ascending series.

    Callers pass m > 0 and z >= 0, so every term and partial sum is >= 0
    and the convergence test needs no abs. Term k + 1 is term k times
    (m + k) * z / ((k + 1) * (k + 1)); k and k + 1 are exact floats, and so
    is their square. The terms are summed in blocks of _HYP_BLOCK: numpy
    forms each ratio with the loop's operations in the loop's order, and
    multiply.accumulate and add.accumulate run strictly left to right from
    the term and total carried in, so every term and partial sum is rounded
    exactly as a scalar loop rounds it. The series stops at the first term
    within 1e-15 of its sum; later terms of its block are discarded.
    """
    term = total = 1.0
    for start in range(0, _HYP_SERIES_CAP, _HYP_BLOCK):
        k = np.arange(start, min(start + _HYP_BLOCK, _HYP_SERIES_CAP), dtype=np.float64)
        kk = k + 1.0
        # A Python float overflows to inf silently; numpy would warn.
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = (m + k) * z / (kk * kk)
            ratios[0] *= term
            terms = np.multiply.accumulate(ratios)
            totals = terms.copy()
            totals[0] += total
            np.add.accumulate(totals, out=totals)
            done = terms <= 1e-15 * totals
        i = int(done.argmax())
        if done[i]:
            return float(totals[i])
        term, total = float(terms[-1]), float(totals[-1])
    raise NumericError(f"1F1({m}, 1, {z}) series did not converge")


def _log_hyp1f1_m1_large(m: float, z: float) -> float:
    """log 1F1(m, 1, z) for large positive z via the exponential asymptotic."""
    total = 1.0
    term = 1.0
    for s in range(60):
        term *= (s + 1.0 - m) ** 2 / ((s + 1.0) * z)
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return z + (m - 1.0) * math.log(z) - math.lgamma(m) + math.log(total)


def fading_pdf(x: float, p: FadingParams) -> float:
    """PDF of the shadowed-Rician channel power |h|^2 at x >= 0."""
    if not x >= 0:
        raise ValidationError("x must be >= 0")
    two_b = 2.0 * p.b
    alpha = (two_b * p.m) ** p.m / (two_b * (two_b * p.m + p.zeta) ** p.m)
    beta = 1.0 / two_b
    delta = p.zeta / (two_b * (two_b * p.m + p.zeta))
    z = delta * x
    if z <= _HYP_LOG_SWITCH:
        return alpha * math.exp(-beta * x) * _hyp1f1_m1(p.m, z)
    if x == math.inf:  # the density's limit; -beta * x + z would be -inf + inf
        return 0.0
    log_val = math.log(alpha) - beta * x + _log_hyp1f1_m1_large(p.m, z)
    if log_val < -745.0:  # below the double-precision underflow threshold
        return 0.0
    return math.exp(log_val)


def fading_sample(p: FadingParams, rng_seed, count: int) -> np.ndarray:
    """Draw channel power samples |sqrt(Omega) e^{j phi} + z|^2.

    Omega is Gamma-distributed with shape m and mean zeta (the shadowed
    line-of-sight power), phi is uniform, and z is circular complex Gaussian
    with total variance 2b. Identical seeds give identical streams.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    if p.zeta > 0.0:
        omega = rng.gamma(shape=p.m, scale=p.zeta / p.m, size=count)
    else:
        omega = np.zeros(count)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    sigma = math.sqrt(p.b)
    scatter = rng.normal(0.0, sigma, size=count) + 1j * rng.normal(0.0, sigma, size=count)
    field = np.sqrt(omega) * np.exp(1j * phi) + scatter
    return np.abs(field) ** 2
