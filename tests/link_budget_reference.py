"""Scalar reference for the link chain.

These are the bodies `firesat.link_budget`, `firesat.geo` and
`firesat.bessel` evaluated on every call before the per-config constants
were hoisted: the geocentric angle, elevation, haversine and slant range
recomputed from the config per location, J1 and J3 from two separate
series, the looping MCS lookup and the 1F1 series with `abs` in its test.
Tests check the fast chain against them bit for bit; nothing at runtime
imports this module.
"""

from __future__ import annotations

import math

from firesat.bessel import _j01_asymptotic
from firesat.errors import NumericError, UnservableLocationError, ValidationError
from firesat.geo import EARTH_RADIUS_KM, GeoPoint, SatelliteConfig
from firesat.link_budget import (
    BEAM_APERTURE_COEFF,
    SPEED_OF_LIGHT_M_S,
    DeviceConfig,
    LinkResult,
    McsTable,
    antenna_gain_dbi,
)

_SERIES_LIMIT = 15.0
_MAX_TERMS = 200


def _jn_series(n: int, x: float) -> float:
    half = x / 2.0
    term = half**n / math.factorial(n)
    total = term
    quarter_sq = half * half
    for k in range(1, _MAX_TERMS):
        term *= -quarter_sq / (k * (n + k))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
    raise NumericError(f"Bessel series for J{n}({x}) did not converge")


def j1(x: float) -> float:
    ax = abs(x)
    val = _jn_series(1, ax) if ax <= _SERIES_LIMIT else _j01_asymptotic(1, ax)
    return -val if x < 0 else val


def j3(x: float) -> float:
    ax = abs(x)
    if ax <= _SERIES_LIMIT:
        val = _jn_series(3, ax)
    else:
        j_0 = _j01_asymptotic(0, ax)
        j_1 = _j01_asymptotic(1, ax)
        j_2 = (2.0 / ax) * j_1 - j_0
        val = (4.0 / ax) * j_2 - j_1
    return -val if x < 0 else val


def level_for_snr(table: McsTable, snr_db: float) -> int | None:
    level = None
    for row in table.rows:
        if snr_db >= row.min_snr_db:
            level = row.mcs_level
        else:
            break
    return level


def ru_for_level(table: McsTable, mcs_level: int) -> int:
    for row in table.rows:
        if row.mcs_level == mcs_level:
            return row.ru_per_20_bytes
    raise ValidationError(f"MCS level {mcs_level} not in table")


_HYP_SERIES_CAP = 20000


def hyp1f1_m1(m: float, z: float) -> float:
    term = 1.0
    total = 1.0
    for k in range(_HYP_SERIES_CAP):
        term *= (m + k) * z / ((k + 1) * (k + 1))
        total += term
        if abs(term) <= 1e-15 * abs(total):
            return total
    raise NumericError(f"1F1({m}, 1, {z}) series did not converge")


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    p1 = math.radians(a.lat)
    p2 = math.radians(b.lat)
    dphi = p2 - p1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def geocentric_angle_rad(p: GeoPoint, sat: SatelliteConfig) -> float:
    cos_psi = math.cos(math.radians(p.lat)) * math.cos(math.radians(p.lon - sat.sub_satellite_lon))
    return math.acos(max(-1.0, min(1.0, cos_psi)))


def slant_range_from_angle(psi: float, sat: SatelliteConfig) -> float:
    r_orbit = EARTH_RADIUS_KM + sat.altitude_km
    try:
        return math.sqrt(
            EARTH_RADIUS_KM**2
            + r_orbit**2
            - 2.0 * EARTH_RADIUS_KM * r_orbit * math.cos(psi)
        )
    except OverflowError:
        raise NumericError(f"slant range overflows at altitude {sat.altitude_km} km") from None


def elevation_from_angle(psi: float, p: GeoPoint, sat: SatelliteConfig) -> float:
    if psi == 0.0:
        return 90.0
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + sat.altitude_km)
    theta = math.degrees(math.atan((math.cos(psi) - ratio) / math.sin(psi)))
    if theta < 0.0:
        raise UnservableLocationError(
            f"satellite below horizon at ({p.lat}, {p.lon}): elevation {theta:.2f} deg"
        )
    return theta


def beam_rolloff_factor(d_km: float, beam_radius_km: float) -> float:
    if d_km < 0:
        raise ValidationError("d_km must be >= 0")
    if beam_radius_km <= 0:
        raise ValidationError("beam_radius_km must be > 0")
    if d_km == 0.0:
        return 1.0
    u = BEAM_APERTURE_COEFF / beam_radius_km * d_km
    if u < 1e-6:
        return 1.0
    try:
        cube = u**3
    except OverflowError:
        cube = math.inf
    if not math.isfinite(cube):
        raise NumericError(f"beam rolloff overflows a float at d_km = {d_km} "
                           f"and beam_radius_km = {beam_radius_km}")
    inner = j1(u) / (2.0 * u) + 36.0 * j3(u) / cube
    return inner * inner


def fspl_db(distance_km: float, carrier_hz: float) -> float:
    if distance_km <= 0 or carrier_hz <= 0:
        raise ValidationError("distance_km and carrier_hz must be > 0")
    return 20.0 * math.log10(
        4.0 * math.pi * carrier_hz * (distance_km * 1e3) / SPEED_OF_LIGHT_M_S
    )


def snr_db(
    device: DeviceConfig,
    sat: SatelliteConfig,
    location: GeoPoint,
    mode: str,
    mcs_table: McsTable,
) -> LinkResult:
    if mode not in ("linear", "db-scaled"):
        raise ValidationError(f"unknown beam composition mode {mode!r}")
    psi = geocentric_angle_rad(location, sat)
    elev = elevation_from_angle(psi, location, sat)
    d_beam = great_circle_km(location, sat.beam_center)
    slant = slant_range_from_angle(psi, sat)
    gain_t = antenna_gain_dbi(device.off_boresight_deg, device.g_t_max_dbi)
    factor = beam_rolloff_factor(d_beam, sat.beam_radius_km)
    if mode == "linear":
        gain_beam = sat.g_s_max_dbi + (10.0 * math.log10(factor) if factor > 0.0 else -math.inf)
    else:
        gain_beam = sat.g_s_max_dbi * factor
    loss = fspl_db(slant, device.carrier_hz)
    snr = (
        device.tx_power_dbm
        + gain_t
        + gain_beam
        - loss
        + device.other_losses_db
        - device.noise_power_dbm
    )
    return LinkResult(
        antenna_gain_dbi=gain_t,
        beam_gain_dbi=gain_beam,
        fspl_db=loss,
        snr_db=snr,
        mcs_level=level_for_snr(mcs_table, snr),
        tx_power_dbm=device.tx_power_dbm,
        other_losses_db=device.other_losses_db,
        noise_power_dbm=device.noise_power_dbm,
        mode=mode,
        elevation_deg=elev,
        slant_range_km=slant,
        beam_center_distance_km=d_beam,
    )
