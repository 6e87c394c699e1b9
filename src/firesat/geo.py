"""Spherical-Earth geometry for a GEO satellite serving ground IoT devices.

Distances, elevation angles, and beam-center offsets. All distances are in
km, all angles in degrees. Earth is modeled as a sphere of radius 6371 km.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError, UnservableLocationError, ValidationError

EARTH_RADIUS_KM = 6371.0
GEO_ALTITUDE_KM = 35786.0


def _normalize_lon(lon: float) -> float:
    """Wrap a longitude into [-180, 180) by adding multiples of 360."""
    lon = math.fmod(lon, 360.0)
    if lon >= 180.0:
        lon -= 360.0
    elif lon < -180.0:
        lon += 360.0
    return lon


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface (degrees)."""

    lat: float
    lon: float

    def __post_init__(self):
        if not math.isfinite(self.lat) or not (-90.0 <= self.lat <= 90.0):
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")
        if not math.isfinite(self.lon):
            raise ValidationError(f"longitude {self.lon} is not finite")
        object.__setattr__(self, "lon", _normalize_lon(self.lon))


@dataclass(frozen=True)
class SatelliteConfig:
    """GEO satellite geometry and beam parameters.

    sub_satellite_lon : longitude of the sub-satellite point (degrees)
    altitude_km       : orbit altitude above the surface
    beam_center       : center of the circular spot beam
    beam_radius_km    : spot beam radius r
    g_s_max_dbi       : maximum satellite antenna gain
    """

    sub_satellite_lon: float
    beam_center: GeoPoint
    beam_radius_km: float
    g_s_max_dbi: float
    altitude_km: float = GEO_ALTITUDE_KM

    def __post_init__(self):
        if self.altitude_km <= 0:
            raise ValidationError("altitude_km must be > 0")
        if self.beam_radius_km <= 0:
            raise ValidationError("beam_radius_km must be > 0")
        object.__setattr__(
            self, "sub_satellite_lon", _normalize_lon(self.sub_satellite_lon)
        )


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two surface points (haversine)."""
    p1 = math.radians(a.lat)
    p2 = math.radians(b.lat)
    dphi = p2 - p1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _geocentric_angle_rad(p: GeoPoint, sat: SatelliteConfig) -> float:
    """Angle at the Earth's center between p and the sub-satellite point."""
    cos_psi = math.cos(math.radians(p.lat)) * math.cos(
        math.radians(p.lon - sat.sub_satellite_lon)
    )
    return math.acos(max(-1.0, min(1.0, cos_psi)))


def slant_range_km(p: GeoPoint, sat: SatelliteConfig) -> float:
    """Straight-line distance from a surface point to the satellite."""
    return _slant_range_km(_geocentric_angle_rad(p, sat), sat)


def elevation_deg(p: GeoPoint, sat: SatelliteConfig) -> float:
    """Elevation angle of the satellite seen from a surface point.

    Returns 90 at the sub-satellite point. Raises UnservableLocationError
    when the satellite sits below the local horizon.
    """
    return _elevation_deg(_geocentric_angle_rad(p, sat), p, sat)


def _slant_range_km(psi: float, sat: SatelliteConfig) -> float:
    """slant_range_km of a point at geocentric angle psi (radians)."""
    r_orbit = EARTH_RADIUS_KM + sat.altitude_km
    try:
        return math.sqrt(
            EARTH_RADIUS_KM**2
            + r_orbit**2
            - 2.0 * EARTH_RADIUS_KM * r_orbit * math.cos(psi)
        )
    except OverflowError:
        raise NumericError(f"slant range overflows at altitude {sat.altitude_km} km") from None


def _elevation_deg(psi: float, p: GeoPoint, sat: SatelliteConfig) -> float:
    """elevation_deg of p, given its geocentric angle psi (radians)."""
    if psi == 0.0:
        return 90.0
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + sat.altitude_km)
    theta = math.degrees(math.atan((math.cos(psi) - ratio) / math.sin(psi)))
    if theta < 0.0:
        raise UnservableLocationError(
            f"satellite below horizon at ({p.lat}, {p.lon}): elevation {theta:.2f} deg"
        )
    return theta
