"""The hoisted link chain against its scalar reference, bit for bit.

Floats are compared by `repr`, so a last-bit difference or a NaN in place
of a number fails. Where the reference raises, the fast chain must raise
the same exception type with the same message.
"""

import math
import warnings
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import link_budget_reference as ref
from firesat import bessel, geo
from firesat import link_budget as lb
from firesat.errors import NumericError, ValidationError
from firesat.geo import GeoPoint, SatelliteConfig

from conftest import CFG

finite = dict(allow_nan=False, allow_infinity=False)
lats = st.floats(-90.0, 90.0, **finite)
lons = st.floats(-540.0, 540.0, **finite)
points = st.builds(GeoPoint, lats, lons)
altitudes = st.one_of(
    st.floats(1e-3, 1e6, **finite),
    st.floats(2e4, 5e4, **finite),
    st.sampled_from([CFG.altitude_km, 1e308, 1e-300, 5e-324]),
)
satellites = st.builds(
    SatelliteConfig,
    sub_satellite_lon=lons,
    beam_center=points,
    beam_radius_km=st.floats(1e-3, 1e5, **finite),
    g_s_max_dbi=st.floats(-50.0, 60.0, **finite),
    altitude_km=altitudes,
)
# Off-boresight angles in each branch of the antenna mask.
off_boresight = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(1.0, 48.0, exclude_min=True),
    st.floats(48.0, 180.0, exclude_min=True),
)
devices = st.builds(
    lb.DeviceConfig,
    tx_power_dbm=st.floats(-30.0, 60.0, **finite),
    g_t_max_dbi=st.floats(-10.0, 30.0, **finite),
    off_boresight_deg=off_boresight,
    carrier_hz=st.floats(1e6, 1e11, **finite),
    noise_power_dbm=st.floats(-200.0, -100.0, **finite),
    other_losses_db=st.floats(-40.0, 0.0, **finite),
)
modes = st.sampled_from(["linear", "db-scaled"])
MCS = CFG.mcs_table()


def outcome(fn, *args):
    """repr of what fn returns, or the type and message of what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    if isinstance(value, lb.LinkResult):
        return list(vars(value)), repr(asdict(value))
    return repr(value)


@st.composite
def views(draw) -> tuple[SatelliteConfig, GeoPoint]:
    """A satellite and a point, most often within 80 degrees of longitude of
    the sub-satellite point, where low altitudes still see it."""
    sat = draw(satellites)
    near = st.builds(GeoPoint, lats, st.floats(-80.0, 80.0).map(lambda d: sat.sub_satellite_lon + d))
    return sat, draw(st.one_of(near, near, points))


@settings(max_examples=400, deadline=None)
@given(devices, views(), modes)
def test_snr_db_equals_reference(device, view, mode):
    sat, location = view
    assert outcome(lb.snr_db, device, sat, location, mode, MCS) == outcome(
        ref.snr_db, device, sat, location, mode, MCS
    )


@settings(max_examples=200, deadline=None)
@given(satellites, points, points)
def test_public_geometry_equals_reference(sat, p, q):
    assert outcome(geo.elevation_deg, p, sat) == outcome(
        lambda: ref.elevation_from_angle(ref.geocentric_angle_rad(p, sat), p, sat)
    )
    assert outcome(geo.slant_range_km, p, sat) == outcome(
        lambda: ref.slant_range_from_angle(ref.geocentric_angle_rad(p, sat), sat)
    )
    assert outcome(geo.great_circle_km, p, q) == outcome(ref.great_circle_km, p, q)


def test_snr_db_equals_reference_on_seeded_draws():
    # Full-mantissa values, where a reassociated sum or product shows.
    rng = np.random.default_rng(11)
    for _ in range(1500):
        device = lb.DeviceConfig(
            *rng.uniform([-30, -10], [60, 30]), rng.uniform(1e-3, 180.0),
            rng.uniform(1e8, 4e10), *rng.uniform([-200, -40], [-100, 0]),
        )
        sub_lon, alt = rng.uniform([-180, 3e4], [180, 4e4])
        sat = SatelliteConfig(sub_lon, GeoPoint(*rng.uniform([-60, -180], [60, 180])),
                              rng.uniform(100.0, 5000.0), rng.uniform(10.0, 50.0), alt)
        location = GeoPoint(rng.uniform(-70.0, 70.0), sub_lon + rng.uniform(-70.0, 70.0))
        for mode in ("linear", "db-scaled"):
            assert outcome(lb.snr_db, device, sat, location, mode, MCS) == outcome(
                ref.snr_db, device, sat, location, mode, MCS
            )


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["sub_satellite_lon", "altitude_km", "beam_radius_km", "g_s_max_dbi"])
def test_non_finite_satellite_number_rejected(satellite, field, value):
    # Accepted, an inf or nan altitude or beam radius gives a nan or -inf SNR.
    with pytest.raises(ValidationError, match=rf"^{field} must be finite, got {value}$"):
        replace(satellite, **{field: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", [f.name for f in fields(lb.DeviceConfig)])
def test_non_finite_device_number_rejected(device, field, value):
    # Accepted, a nan carrier gives a nan SNR.
    with pytest.raises(ValidationError, match=rf"^{field} must be finite, got {value}$"):
        replace(device, **{field: value})


def test_finite_out_of_range_messages_kept(satellite, device):
    with pytest.raises(ValidationError, match=r"^altitude_km must be > 0$"):
        replace(satellite, altitude_km=0.0)
    with pytest.raises(ValidationError, match=r"^beam_radius_km must be > 0$"):
        replace(satellite, beam_radius_km=-1.0)
    with pytest.raises(ValidationError, match=r"^carrier_hz must be > 0$"):
        replace(device, carrier_hz=0.0)
    with pytest.raises(ValidationError, match=r"^off_boresight_deg must be in \(0, 180\]$"):
        replace(device, off_boresight_deg=181.0)


def test_unservable_point_reported_before_overflowing_slant_range(device):
    sat = replace(CFG.satellite(), altitude_km=1e308)
    with pytest.raises(geo.UnservableLocationError):
        lb.snr_db(device, sat, GeoPoint(0.0, 60.0), "linear", MCS)
    with pytest.raises(geo.NumericError, match=r"^slant range overflows at altitude 1e\+308 km$"):
        lb.snr_db(device, sat, GeoPoint(37.2, -122.1), "linear", MCS)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(0.0, 15.0, exclude_min=True), st.floats(15.0, 40.0, exclude_min=True)),
       st.booleans())
def test_j1_j3_equals_two_reference_series(u, negative):
    x = -u if negative else u
    expected = (ref.j1(x), ref.j3(x))
    assert repr(bessel.j1_j3(x)) == repr(expected)


def test_j1_j3_equals_reference_on_a_dense_sweep():
    # Near a zero of J1 or J3 a sum is small against its terms, and the
    # series that meets its test first can still take a term above half an
    # ulp of the other's sum; random draws rarely land there, a sweep does.
    for u in np.linspace(0.0, 15.0, 30001)[1:].tolist():
        assert repr(bessel.j1_j3(u)) == repr((ref.j1(u), ref.j3(u))), u


@pytest.mark.parametrize(
    "x", [0.0, -0.0, 5e-324, 1e-300, 1e-8, 15.0, -15.0, 15.000000000000002, math.nan, math.inf]
)
def test_j1_j3_edges(x):
    assert outcome(bessel.j1_j3, x) == outcome(lambda: (ref.j1(x), ref.j3(x)))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e5, **finite), st.floats(1e-3, 1e5, **finite))
def test_beam_rolloff_equals_reference(d, radius):
    assert repr(lb.beam_rolloff_factor(d, radius)) == repr(ref.beam_rolloff_factor(d, radius))


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 1e6, **finite), st.floats(1e6, 1e11, **finite))
def test_fspl_equals_reference(d, f):
    assert repr(lb.fspl_db(d, f)) == repr(ref.fspl_db(d, f))


@pytest.mark.parametrize(
    "d, radius",
    [(177.0, 1e-200), (5e102, 1.0), (177.0, 1e-308), (0.0, 1e-308), (math.inf, 1000.0)],
    ids=["cube-overflows", "cube-overflows-at-1e103", "u-inf", "u-nan", "d-inf"],
)
def test_beam_rolloff_overflow_is_a_numeric_error(d, radius):
    # u**3 overflows, or u is inf (cos(inf) is a math domain error). At the
    # beam centre u would be nan (inf * 0), but the factor there is 1.
    fast = outcome(lb.beam_rolloff_factor, d, radius)
    assert fast == outcome(ref.beam_rolloff_factor, d, radius)
    if d == 0.0:
        assert fast == repr(1.0)
    else:
        assert fast == (NumericError, f"beam rolloff overflows a float at d_km = {d} and beam_radius_km = {radius}")


def series_length(m: float, z: float) -> int | None:
    """How many terms the reference 1F1 series takes before it stops."""
    term = total = 1.0
    for k in range(ref._HYP_SERIES_CAP):
        term *= (m + k) * z / ((k + 1) * (k + 1))
        total += term
        if abs(term) <= 1e-15 * abs(total):
            return k + 1
    return None


def hyp1f1_outcomes(m: float, z: float):
    """outcome() of the block series and of the reference, with any warning
    (a numpy overflow the series let through) raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return outcome(lb._hyp1f1_m1, m, z), outcome(ref.hyp1f1_m1, m, z)


@settings(max_examples=150, deadline=None)
@given(st.floats(1e-3, 50.0, **finite), st.floats(0.0, 600.0, **finite))
def test_hyp1f1_equals_reference(m, z):
    fast, slow = hyp1f1_outcomes(m, z)
    assert fast == slow


@pytest.mark.parametrize(
    "m, z, length",
    [
        (4.96, 351.3, lb._HYP_BLOCK),  # stops at the last term of the first block
        (4.96, 352.1, lb._HYP_BLOCK + 1),  # at the first term of the second
        (4.96, 352.9, lb._HYP_BLOCK + 2),  # at the term after it
        (4.96, 0.0, 1),
        (0.5, 5e-324, 1),
        (1e300, 600.0, 2),  # the second term overflows to inf
        (1e308, 600.0, 1),  # (m + 0) * z overflows
        (4.96, 700.0, 586),  # a term past the float range, far into the series
        (math.nan, 1.0, None),  # no term meets the test: the cap is reached
        (1.0, math.nan, None),
    ],
)
def test_hyp1f1_block_edges_equal_reference(m, z, length):
    assert series_length(m, z) == length
    fast, slow = hyp1f1_outcomes(m, z)
    assert fast == slow
    if length is None:
        assert fast == (NumericError, f"1F1({m}, 1, {z}) series did not converge")


@st.composite
def mcs_tables(draw) -> lb.McsTable:
    """Valid tables: levels increasing and RU counts non-increasing with the
    threshold; thresholds may tie."""
    n = draw(st.integers(1, 8))
    levels = sorted(draw(st.sets(st.integers(0, 30), min_size=n, max_size=n)))
    thresholds = sorted(draw(st.lists(st.floats(-30.0, 30.0, **finite), min_size=n, max_size=n)))
    rus = sorted(draw(st.lists(st.integers(1, 10), min_size=n, max_size=n)), reverse=True)
    rows = [lb.McsRow(t, lvl, ru) for t, lvl, ru in zip(thresholds, levels, rus)]
    return lb.McsTable(tuple(rows))


@settings(max_examples=200, deadline=None)
@given(mcs_tables(), st.data())
def test_mcs_lookups_equal_reference(table, data):
    snrs = [math.nan, math.inf, -math.inf, *(r.min_snr_db for r in table.rows)]
    snrs += data.draw(st.lists(st.floats(allow_nan=True), max_size=10))
    for snr in snrs:
        assert table.level_for_snr(snr) == ref.level_for_snr(table, snr)
    for level in [*(r.mcs_level for r in table.rows), -1, 31, None]:
        assert outcome(table.ru_for_level, level) == outcome(ref.ru_for_level, table, level)


def test_link_result_stays_a_frozen_dataclass(device, satellite):
    location = GeoPoint(37.2, -122.1)
    fast = lb.snr_db(device, satellite, location, "db-scaled", MCS)
    slow = ref.snr_db(device, satellite, location, "db-scaled", MCS)
    assert type(fast) is lb.LinkResult
    assert list(vars(fast)) == [f.name for f in fields(lb.LinkResult)]
    assert fast == slow and hash(fast) == hash(slow)
    assert asdict(fast) == asdict(slow)
    assert replace(fast, mode="linear").mode == "linear"
    with pytest.raises(FrozenInstanceError):
        fast.snr_db = 0.0
    with pytest.raises(FrozenInstanceError):
        fast.extra = 1


def test_cached_terms_stay_out_of_equality(device, satellite):
    assert device.eirp_dbm == device.tx_power_dbm + device.antenna_gain
    assert satellite.beam_cos_lat == math.cos(math.radians(satellite.beam_center.lat))
    for config in (device, satellite):
        fresh = replace(config)
        assert config == fresh and hash(config) == hash(fresh)
        assert asdict(config) == asdict(fresh)
