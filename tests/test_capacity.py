import pytest

from firesat.capacity import (
    DEVICE_CAP,
    RadioTiming,
    TrafficModel,
    bandwidth_required_hz,
    devices_per_carrier_exception,
    devices_per_carrier_periodic,
    periodic_sessions,
    report_duration_ms,
    spectrum_cost_usd,
    traffic_total_bytes,
)
from firesat.errors import NumericError, ValidationError

TIMING = RadioTiming()
EXCEPTION = TrafficModel(kind="exception")
PERIODIC = TrafficModel(kind="periodic")


class TestReportDuration:
    def test_golden_default(self):
        assert report_duration_ms(TIMING) == 1096.0

    def test_zero_rtt(self):
        assert report_duration_ms(RadioTiming(rtt_ms=0.0)) == 96.0

    def test_single_ru(self):
        assert report_duration_ms(RadioTiming(rus_per_report=1)) == 1032.0

    def test_retransmission_adds_attempt(self):
        t = RadioTiming(tx_attempts=2)
        assert report_duration_ms(t) == 500.0 + 2 * (500.0 + 96.0)


class TestDevicesPerCarrier:
    def test_golden_exception(self):
        assert devices_per_carrier_exception(TIMING, 10.0) == 432

    def test_period_too_short(self):
        assert devices_per_carrier_exception(TIMING, 1.0) == 0

    def test_twenty_second_period(self):
        assert devices_per_carrier_exception(TIMING, 20.0) == 18 * 48

    def test_periodic_reconstruction(self):
        assert devices_per_carrier_periodic(TIMING, PERIODIC, 10.0) == 333257

    def test_zero_rate_returns_cap_with_warning(self):
        m = TrafficModel(kind="periodic", sessions_per_day_coeff=0.0)
        with pytest.warns(UserWarning):
            assert devices_per_carrier_periodic(TIMING, m, 10.0) == DEVICE_CAP == 10**12

    def test_doubling_carrier_bandwidth_doubles_count(self):
        wide = RadioTiming(carrier_bw_khz=360.0)
        assert devices_per_carrier_exception(wide, 10.0) == 2 * 432
        assert devices_per_carrier_periodic(wide, PERIODIC, 10.0) == 2 * 333257

    def test_kind_mismatch(self):
        with pytest.raises(ValidationError):
            devices_per_carrier_periodic(TIMING, EXCEPTION, 10.0)


class TestTraffic:
    def test_golden_sessions(self):
        s = periodic_sessions(10**6, 10.0, PERIODIC)
        assert s == pytest.approx(1296.2962962962963, rel=1e-12)
        assert traffic_total_bytes(10**6, 10.0, PERIODIC) == 25920

    def test_zero_sensors(self):
        assert periodic_sessions(0, 10.0, PERIODIC) == 0.0

    def test_exception_total_bytes(self):
        assert traffic_total_bytes(10**6, 10.0, EXCEPTION) == 2 * 10**7

    def test_kind_mismatch(self):
        with pytest.raises(ValidationError):
            periodic_sessions(10, 10.0, EXCEPTION)


class TestBandwidth:
    def test_golden_values(self):
        assert bandwidth_required_hz(10**5, TIMING, EXCEPTION) == 41_760_000.0
        assert bandwidth_required_hz(10**6, TIMING, EXCEPTION) == 416_700_000.0

    def test_single_device_needs_one_carrier(self):
        assert bandwidth_required_hz(1, TIMING, EXCEPTION) == 180_000.0

    def test_zero_devices(self):
        assert bandwidth_required_hz(0, TIMING, EXCEPTION) == 0.0

    def test_step_wise_in_k(self):
        prev = 0.0
        for k in range(0, 2000, 100):
            bw = bandwidth_required_hz(k, TIMING, EXCEPTION) if k else 0.0
            assert bw >= prev
            if bw > prev and prev > 0.0:
                assert bw - prev == pytest.approx(180_000.0)
            prev = bw

    def test_periodic_kind_rejected(self):
        with pytest.raises(ValidationError):
            bandwidth_required_hz(10, TIMING, PERIODIC)

    def test_report_longer_than_period_rejected(self):
        tight = TrafficModel(kind="exception", reference_period_s=1.0)
        with pytest.raises(ValidationError, match="does not fit"):
            bandwidth_required_hz(10, TIMING, tight)

    def test_oversubscription_guard(self):
        # devices x duration never exceeds period x subcarriers
        n = devices_per_carrier_exception(TIMING, 10.0)
        assert n * report_duration_ms(TIMING) <= 10.0 * 1000.0 * TIMING.subcarriers


class TestOverflow:
    """Extreme but finite inputs whose counts leave the float range."""

    def test_infinite_slot_count(self):
        with pytest.raises(NumericError, match="report slots in a 1e[+]308 s period are not finite"):
            devices_per_carrier_exception(TIMING, 1e308)

    def test_slots_beyond_float_range(self):
        wide = RadioTiming(carrier_bw_khz=1e308)
        with pytest.raises(NumericError, match="overflow a float"):
            devices_per_carrier_periodic(wide, PERIODIC, 10.0)

    def test_infinite_session_count(self):
        m = TrafficModel(kind="periodic", sessions_per_day_coeff=1e308)
        with pytest.raises(NumericError, match="inf periodic sessions cannot be counted"):
            traffic_total_bytes(10**5, 10.0, m)

    @pytest.mark.parametrize(
        "count",
        [
            lambda k: bandwidth_required_hz(k, TIMING, EXCEPTION),
            lambda k: periodic_sessions(k, 10.0, PERIODIC),
            lambda k: traffic_total_bytes(k, 10.0, PERIODIC),
        ],
        ids=["bandwidth", "periodic-sessions", "periodic-bytes"],
    )
    def test_sensor_count_beyond_float_range(self, count):
        with pytest.raises(NumericError, match=f"^{10**400} sensors .*overflow a float$"):
            count(10**400)

    def test_exception_bytes_of_huge_count_stay_exact(self):
        assert traffic_total_bytes(10**400, 10.0, EXCEPTION) == 20 * 10**400


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
    def test_payload_bounds(self):
        with pytest.raises(ValidationError):
            TrafficModel(payload_bytes=10)
        with pytest.raises(ValidationError):
            TrafficModel(payload_bytes=201)

    def test_carrier_divisibility(self):
        with pytest.raises(ValidationError):
            RadioTiming(carrier_bw_khz=100.0)

    def test_subcarrier_count(self):
        assert TIMING.subcarriers == 48

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            TrafficModel(kind="bursty")
