from dataclasses import replace

import pytest

from firesat.capacity import (
    DEVICE_CAP,
    bandwidth_required_hz,
    devices_per_carrier_exception,
    devices_per_carrier_periodic,
    exception_total_bytes,
    periodic_sessions,
    periodic_total_bytes,
    report_duration_ms,
    spectrum_cost_usd,
)
from firesat.errors import NumericError, ValidationError

from conftest import CFG

TIMING = CFG.timing()
TRAFFIC = CFG.traffic()

# The functions that take a sensor count and compute with it.
SENSOR_COUNTS = pytest.mark.parametrize(
    "count",
    [
        lambda k: bandwidth_required_hz(k, TIMING, TRAFFIC),
        lambda k: periodic_sessions(k, TRAFFIC),
        lambda k: periodic_total_bytes(k, TRAFFIC),
    ],
    ids=["bandwidth", "periodic-sessions", "periodic-bytes"],
)


class TestReportDuration:
    def test_golden_default(self):
        assert report_duration_ms(TIMING) == 1096.0

    def test_zero_rtt(self):
        assert report_duration_ms(replace(TIMING, rtt_ms=0.0)) == 96.0

    def test_single_ru(self):
        assert report_duration_ms(replace(TIMING, rus_per_report=1)) == 1032.0

    def test_retransmission_adds_attempt(self):
        t = replace(TIMING, tx_attempts=2)
        assert report_duration_ms(t) == 500.0 + 2 * (500.0 + 96.0)


class TestDevicesPerCarrier:
    def test_golden_exception(self):
        assert devices_per_carrier_exception(TIMING, TRAFFIC) == 432

    def test_period_too_short(self):
        assert devices_per_carrier_exception(TIMING, replace(TRAFFIC, reference_period_s=1.0)) == 0

    def test_twenty_second_period(self):
        assert devices_per_carrier_exception(TIMING, replace(TRAFFIC, reference_period_s=20.0)) == 18 * 48

    def test_periodic_reconstruction(self):
        assert devices_per_carrier_periodic(TIMING, TRAFFIC) == 333257

    def test_zero_rate_returns_cap_with_warning(self):
        m = replace(TRAFFIC, sessions_per_day=0.0)
        with pytest.warns(UserWarning):
            assert devices_per_carrier_periodic(TIMING, m) == DEVICE_CAP == 10**12

    def test_doubling_carrier_bandwidth_doubles_count(self):
        wide = replace(TIMING, carrier_bw_khz=360.0)
        assert devices_per_carrier_exception(wide, TRAFFIC) == 2 * 432
        assert devices_per_carrier_periodic(wide, TRAFFIC) == 2 * 333257


class TestTraffic:
    def test_golden_sessions(self):
        s = periodic_sessions(10**6, TRAFFIC)
        assert s == pytest.approx(1296.2962962962963, rel=1e-12)
        assert periodic_total_bytes(10**6, TRAFFIC) == 25920

    def test_zero_sensors(self):
        assert periodic_sessions(0, TRAFFIC) == 0.0

    def test_exception_total_bytes(self):
        assert exception_total_bytes(10**6, TRAFFIC) == 2 * 10**7


class TestBandwidth:
    def test_golden_values(self):
        assert bandwidth_required_hz(10**5, TIMING, TRAFFIC) == 41_760_000.0
        assert bandwidth_required_hz(10**6, TIMING, TRAFFIC) == 416_700_000.0

    def test_single_device_needs_one_carrier(self):
        assert bandwidth_required_hz(1, TIMING, TRAFFIC) == 180_000.0

    def test_zero_devices(self):
        assert bandwidth_required_hz(0, TIMING, TRAFFIC) == 0.0

    def test_carrier_count_is_exact_past_float_precision(self):
        # 17514414707169443 carriers of 180 kHz; a float quotient of the
        # count by 432 rounds one carrier short.
        assert bandwidth_required_hz(7566227153497199278, TIMING, TRAFFIC) == 3.1525946472905e21

    def test_step_wise_in_k(self):
        prev = 0.0
        for k in range(0, 2000, 100):
            bw = bandwidth_required_hz(k, TIMING, TRAFFIC) if k else 0.0
            assert bw >= prev
            if bw > prev and prev > 0.0:
                assert bw - prev == pytest.approx(180_000.0)
            prev = bw

    def test_report_longer_than_period_rejected(self):
        with pytest.raises(ValidationError, match="does not fit"):
            bandwidth_required_hz(10, TIMING, replace(TRAFFIC, reference_period_s=1.0))

    def test_oversubscription_guard(self):
        # devices x duration never exceeds period x subcarriers
        n = devices_per_carrier_exception(TIMING, TRAFFIC)
        assert n * report_duration_ms(TIMING) <= 10.0 * 1000.0 * TIMING.subcarriers


class TestOverflow:
    """Extreme but finite inputs whose counts leave the float range."""

    def test_infinite_slot_count(self):
        with pytest.raises(NumericError, match="report slots in a 1e[+]308 s period are not finite"):
            devices_per_carrier_exception(TIMING, replace(TRAFFIC, reference_period_s=1e308))

    def test_slots_beyond_float_range(self):
        wide = replace(TIMING, carrier_bw_khz=1e308)
        with pytest.raises(NumericError, match="overflow a float"):
            devices_per_carrier_periodic(wide, TRAFFIC)

    def test_infinite_session_count(self):
        m = replace(TRAFFIC, sessions_per_day=1e308)
        with pytest.raises(NumericError, match="inf periodic sessions cannot be counted"):
            periodic_total_bytes(10**5, m)

    @SENSOR_COUNTS
    def test_sensor_count_beyond_float_range(self, count):
        with pytest.raises(NumericError, match=f"^{10**400} sensors .*overflow a float$"):
            count(10**400)

    def test_exception_bytes_of_huge_count_stay_exact(self):
        assert exception_total_bytes(10**400, TRAFFIC) == 20 * 10**400


class TestSpectrumCost:
    def test_golden_costs(self):
        assert spectrum_cost_usd(41_760_000.0, 0.6) == 25_056_000.0
        assert spectrum_cost_usd(416_700_000.0, 0.6) == 250_020_000.0

    def test_zero(self):
        assert spectrum_cost_usd(0.0, 0.6) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            spectrum_cost_usd(-1.0, 0.6)


class TestValidation:
    @SENSOR_COUNTS
    def test_negative_sensor_count_rejected(self, count):
        with pytest.raises(ValidationError, match="^k_sensors must be >= 0$"):
            count(-1)

    def test_payload_bounds(self):
        with pytest.raises(ValidationError):
            replace(TRAFFIC, payload_bytes=10)
        with pytest.raises(ValidationError):
            replace(TRAFFIC, payload_bytes=201)

    def test_carrier_divisibility(self):
        with pytest.raises(ValidationError):
            replace(TIMING, carrier_bw_khz=100.0)

    def test_subcarrier_count(self):
        assert TIMING.subcarriers == 48

    def test_carrier_narrower_than_one_resource_unit(self):
        # The ratio 2.7e-13 is within the divisibility tolerance of 0.
        with pytest.raises(ValidationError, match="^carrier_bw_khz must be at least ru_bw_khz$"):
            replace(TIMING, carrier_bw_khz=1e-12)
