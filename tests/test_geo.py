from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from firesat.errors import NumericError, UnservableLocationError, ValidationError
from firesat.geo import (
    GeoPoint,
    elevation_deg,
    great_circle_km,
    slant_range_km,
)
from firesat.grid import RegionGrid

from conftest import CFG

CENTER_DEVICE = GeoPoint(37.2, -122.1)
EDGE_DEVICE = GeoPoint(33.5, -116.6)
BEAM_CENTER = GeoPoint(37.0, -122.0)


def make_sat(sub_lon=-125.0, altitude=CFG.altitude_km):
    return replace(CFG.satellite(), sub_satellite_lon=sub_lon, altitude_km=altitude)


class TestGeoPoint:
    def test_lon_wraps_modularly(self):
        assert GeoPoint(0.0, 190.0).lon == pytest.approx(-170.0)
        assert abs(GeoPoint(0.0, -540.0).lon) == pytest.approx(180.0)
        assert GeoPoint(10.0, 360.0).lon == pytest.approx(0.0)
        assert GeoPoint(0.0, 725.0).lon == pytest.approx(5.0)

    def test_lat_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            GeoPoint(90.5, 0.0)
        with pytest.raises(ValidationError):
            GeoPoint(-91.0, 0.0)

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            GeoPoint(float("nan"), 0.0)
        with pytest.raises(ValidationError):
            GeoPoint(0.0, float("inf"))


    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    def test_grid_longitudes_wrap_like_geopoint(self, lons):
        zeros = [0.0] * len(lons)
        grid = RegionGrid(zeros, lons, zeros, zeros, zeros, zeros, zeros, 100.0)
        assert grid.lon.tolist() == [GeoPoint(0.0, lon).lon for lon in lons]


class TestGreatCircle:
    def test_identity_is_zero(self):
        assert great_circle_km(CENTER_DEVICE, CENTER_DEVICE) == 0.0

    def test_center_device_distance_matches_published(self):
        # Published value: 24 km.
        assert great_circle_km(CENTER_DEVICE, BEAM_CENTER) == pytest.approx(24.0, abs=2.0)

    def test_edge_device_distance(self):
        # Spherical great-circle truth, frozen from an independent
        # law-of-cosines evaluation. The published table says 639 km, which
        # no standard Earth model reproduces from these coordinates; the
        # acceptance suite reports that deviation and checks 639 km through
        # the edge SNR it feeds.
        d = great_circle_km(EDGE_DEVICE, BEAM_CENTER)
        assert d == pytest.approx(625.8308265614517, rel=1e-9)

    def test_symmetry(self):
        assert great_circle_km(EDGE_DEVICE, BEAM_CENTER) == pytest.approx(
            great_circle_km(BEAM_CENTER, EDGE_DEVICE), rel=1e-14
        )

    @given(
        st.floats(-80, 80),
        st.floats(-180, 180),
        st.floats(-80, 80),
        st.floats(-180, 180),
        st.floats(-80, 80),
        st.floats(-180, 180),
    )
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        a, b, c = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2), GeoPoint(lat3, lon3)
        assert great_circle_km(a, c) <= great_circle_km(a, b) + great_circle_km(b, c) + 1e-6


class TestSlantRange:
    def test_nadir_equals_altitude(self):
        sat = make_sat()
        nadir = GeoPoint(0.0, -125.0)
        assert slant_range_km(nadir, sat) == pytest.approx(CFG.altitude_km, abs=1e-6)

    @pytest.mark.parametrize(
        "point,expected",
        [(CENTER_DEVICE, 37353.0), (EDGE_DEVICE, 37123.0)],
    )
    def test_table_values_within_tolerance(self, point, expected):
        assert slant_range_km(point, make_sat()) == pytest.approx(expected, abs=100.0)

    def test_strictly_increasing_with_geocentric_angle(self):
        sat = make_sat()
        ranges = [slant_range_km(GeoPoint(0.0, -125.0 + psi), sat) for psi in range(0, 82, 3)]
        assert all(b > a for a, b in zip(ranges, ranges[1:]))

    def test_overflowing_altitude_is_numeric_error(self):
        with pytest.raises(NumericError, match="slant range overflows at altitude 1e[+]308 km"):
            slant_range_km(GeoPoint(37.0, -120.0), make_sat(altitude=1e308))


class TestElevation:
    def test_nadir_is_90(self):
        assert elevation_deg(GeoPoint(0.0, -125.0), make_sat()) == 90.0

    @pytest.mark.parametrize(
        "point,expected",
        [(EDGE_DEVICE, 50.0), (CENTER_DEVICE, 46.8)],
    )
    def test_table_values_within_tolerance(self, point, expected):
        assert elevation_deg(point, make_sat()) == pytest.approx(expected, abs=0.5)

    def test_strictly_decreasing_with_geocentric_angle(self):
        sat = make_sat()
        elevs = [elevation_deg(GeoPoint(0.0, -125.0 + psi), sat) for psi in range(0, 82, 3)]
        assert all(b < a for a, b in zip(elevs, elevs[1:]))

    def test_below_horizon_raises(self):
        with pytest.raises(UnservableLocationError):
            elevation_deg(GeoPoint(0.0, 55.0), make_sat())


def test_satellite_config_validation():
    with pytest.raises(ValidationError):
        make_sat(altitude=-1.0)
    with pytest.raises(ValidationError):
        replace(make_sat(0.0), beam_radius_km=0.0)
