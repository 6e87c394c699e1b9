"""Spherical-Earth geometry for a GEO satellite serving ground IoT devices.

Distances, elevation angles, and beam-center offsets. All distances are in
km, all angles in degrees. Earth is modeled as a sphere of radius 6371 km.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import NumericError, UnservableLocationError, ValidationError

EARTH_RADIUS_KM = 6371.0


def _normalize_lon(lon: float) -> float:
    """Wrap a longitude into [-180, 180) by adding multiples of 360."""
    lon = math.fmod(lon, 360.0)
    if lon >= 180.0:
        lon -= 360.0
    elif lon < -180.0:
        lon += 360.0
    return lon


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


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
    altitude_km: float

    def __post_init__(self):
        for name in ("sub_satellite_lon", "altitude_km", "beam_radius_km", "g_s_max_dbi"):
            _require_finite(name, getattr(self, name))
        if self.altitude_km <= 0:
            raise ValidationError("altitude_km must be > 0")
        if self.beam_radius_km <= 0:
            raise ValidationError("beam_radius_km must be > 0")
        object.__setattr__(
            self, "sub_satellite_lon", _normalize_lon(self.sub_satellite_lon)
        )

    # Terms of the geometry below that depend on the config alone. Each is
    # the left-hand prefix of the expression it stands in for, so results
    # stay bit-equal to evaluating that expression per point.

    @cached_property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @cached_property
    def radii_sq_sum_km2(self) -> float:
        """R**2 + r_orbit**2, the leading terms of the slant range's cosine rule."""
        try:
            return EARTH_RADIUS_KM**2 + self.orbit_radius_km**2
        except OverflowError:
            raise NumericError(f"slant range overflows at altitude {self.altitude_km} km") from None

    @cached_property
    def radii_product2_km2(self) -> float:
        """2 R r_orbit, the factor of cos(psi) in the slant range's cosine rule."""
        return 2.0 * EARTH_RADIUS_KM * self.orbit_radius_km

    @cached_property
    def horizon_ratio(self) -> float:
        """R / r_orbit: cos(psi) at which the satellite sits on the horizon."""
        return EARTH_RADIUS_KM / self.orbit_radius_km

    @cached_property
    def beam_lat_rad(self) -> float:
        return math.radians(self.beam_center.lat)

    @cached_property
    def beam_cos_lat(self) -> float:
        return math.cos(self.beam_lat_rad)


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two surface points (haversine)."""
    p1 = math.radians(a.lat)
    p2 = math.radians(b.lat)
    return _haversine_km(p1, math.cos(p1), a.lon, p2, math.cos(p2), b.lon)


def slant_range_km(p: GeoPoint, sat: SatelliteConfig) -> float:
    """Straight-line distance from a surface point to the satellite."""
    psi = _geocentric_angle_rad(math.cos(math.radians(p.lat)), p.lon, sat)
    return _slant_range_km(math.cos(psi), sat)


def elevation_deg(p: GeoPoint, sat: SatelliteConfig) -> float:
    """Elevation angle of the satellite seen from a surface point.

    Returns 90 at the sub-satellite point. Raises UnservableLocationError
    when the satellite sits below the local horizon.
    """
    psi = _geocentric_angle_rad(math.cos(math.radians(p.lat)), p.lon, sat)
    return _elevation_deg(psi, math.cos(psi), p, sat)


def _view(p: GeoPoint, sat: SatelliteConfig) -> tuple[float, float, float]:
    """(elevation_deg, great_circle_km to the beam centre, slant_range_km) of p.

    The latitude's cosine and the geocentric angle's cosine are computed
    once and shared; each value equals its public function bit for bit. The
    horizon check comes first, so an unservable point never reaches the
    slant range's overflow check.
    """
    lat = math.radians(p.lat)
    cos_lat = math.cos(lat)
    psi = _geocentric_angle_rad(cos_lat, p.lon, sat)
    cos_psi = math.cos(psi)
    elev = _elevation_deg(psi, cos_psi, p, sat)  # raises when below horizon
    d_beam = _haversine_km(
        lat, cos_lat, p.lon, sat.beam_lat_rad, sat.beam_cos_lat, sat.beam_center.lon
    )
    return elev, d_beam, _slant_range_km(cos_psi, sat)


def _haversine_km(p1: float, cos_p1: float, lon1: float, p2: float, cos_p2: float, lon2: float) -> float:
    """great_circle_km between latitudes p1, p2 (radians, with their cosines)
    and longitudes lon1, lon2 (degrees)."""
    dphi = p2 - p1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + cos_p1 * cos_p2 * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _geocentric_angle_rad(cos_lat: float, lon: float, sat: SatelliteConfig) -> float:
    """Angle at the Earth's center between a point (cos of its latitude, its
    longitude) and the sub-satellite point."""
    cos_psi = cos_lat * math.cos(math.radians(lon - sat.sub_satellite_lon))
    return math.acos(max(-1.0, min(1.0, cos_psi)))


def _slant_range_km(cos_psi: float, sat: SatelliteConfig) -> float:
    """slant_range_km of a point whose geocentric angle has cosine cos_psi."""
    return math.sqrt(sat.radii_sq_sum_km2 - sat.radii_product2_km2 * cos_psi)


def _elevation_deg(psi: float, cos_psi: float, p: GeoPoint, sat: SatelliteConfig) -> float:
    """elevation_deg of p, given its geocentric angle psi (radians) and cos(psi)."""
    if psi == 0.0:
        return 90.0
    theta = math.degrees(math.atan((cos_psi - sat.horizon_ratio) / math.sin(psi)))
    if theta < 0.0:
        raise UnservableLocationError(
            f"satellite below horizon at ({p.lat}, {p.lon}): elevation {theta:.2f} deg"
        )
    return theta
