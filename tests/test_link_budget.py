import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
import scipy.stats

from firesat import link_budget as lb
from firesat.errors import NumericError, UnservableLocationError, ValidationError
from firesat.geo import GeoPoint, elevation_deg, slant_range_km

from conftest import CFG, ECON

CENTER_DEVICE = GeoPoint(37.2, -122.1)
EDGE_DEVICE = GeoPoint(33.5, -116.6)

# The shipped MCS table, data/mcs_table.csv.
MCS = CFG.mcs_table()

# Published shadowed-Rician parameters at 50 degrees elevation.
TABLE_FADING = lb.FadingParams(b=0.03, m=4.96, zeta=0.72)


class TestAntennaGain:
    def test_main_lobe(self):
        assert lb.antenna_gain_dbi(0.5, 7.38) == 7.38
        assert lb.antenna_gain_dbi(1.0, 7.38) == 7.38

    def test_far_sidelobe_floor(self):
        assert lb.antenna_gain_dbi(50.0, 7.38) == -10.0
        assert lb.antenna_gain_dbi(180.0, 7.38) == -10.0

    def test_skirt(self):
        assert lb.antenna_gain_dbi(10.0, 7.38) == pytest.approx(7.0, rel=1e-12)

    def test_boundary_jump_as_printed(self):
        # The mask is discontinuous at 48 degrees by construction.
        assert lb.antenna_gain_dbi(48.0, 7.38) == pytest.approx(-10.031030934389676, rel=1e-12)
        assert lb.antenna_gain_dbi(48.0000001, 7.38) == -10.0

    def test_invalid_angles(self):
        with pytest.raises(ValidationError):
            lb.antenna_gain_dbi(0.0, 7.38)
        with pytest.raises(ValidationError):
            lb.antenna_gain_dbi(181.0, 7.38)


class TestBeamRolloff:
    def test_boresight_is_one(self):
        assert lb.beam_rolloff_factor(0.0, 1000.0) == 1.0

    def test_near_boresight(self):
        assert lb.beam_rolloff_factor(24.0, 1000.0) >= 0.999

    def test_oracle_value_at_639(self):
        # Frozen from the independent scipy Bessel oracle.
        assert lb.beam_rolloff_factor(639.0, 1000.0) == pytest.approx(
            0.7577898437572341, rel=1e-12
        )

    def test_matches_scipy_composition(self):
        for d in (5.0, 120.0, 400.0, 639.0, 980.0, 1700.0):
            u = lb.BEAM_APERTURE_COEFF / 1000.0 * d
            oracle = (sp.j1(u) / (2 * u) + 36 * sp.jn(3, u) / u**3) ** 2
            assert lb.beam_rolloff_factor(d, 1000.0) == pytest.approx(float(oracle), rel=1e-10)

    def test_monotone_decreasing_within_first_null(self):
        # First null of the composition sits near u = 5.9 (d = 2852 km here).
        ds = np.linspace(0.0, 2800.0, 400)
        vals = [lb.beam_rolloff_factor(float(d), 1000.0) for d in ds]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            lb.beam_rolloff_factor(-1.0, 1000.0)
        with pytest.raises(ValidationError):
            lb.beam_rolloff_factor(10.0, 0.0)


class TestFspl:
    def test_frozen_values(self):
        assert lb.fspl_db(37353.0, 2e9) == pytest.approx(189.91489289199262, rel=1e-12)
        assert lb.fspl_db(37123.0, 2e9) == pytest.approx(189.86124444234932, rel=1e-12)

    def test_doubling_distance(self):
        delta = lb.fspl_db(2000.0, 1.5e9) - lb.fspl_db(1000.0, 1.5e9)
        assert delta == pytest.approx(6.020599913279624, abs=1e-12)

    @pytest.mark.parametrize("distance_km, carrier_hz", [(37000.0, 1e308), (1e300, 1e10)])
    def test_overflow_raises(self, distance_km, carrier_hz):
        with pytest.raises(NumericError, match="free-space path loss over .* overflows a float"):
            lb.fspl_db(distance_km, carrier_hz)


class TestSnr:
    def test_center_device_matches_published(self, device, satellite):
        result = lb.snr_db(device, satellite, CENTER_DEVICE, "linear", MCS)
        assert result.snr_db == pytest.approx(5.55, abs=0.5)
        assert result.mcs_level == 11

    def test_edge_device_reports_both_modes(self, device, satellite):
        linear = lb.snr_db(device, satellite, EDGE_DEVICE, "linear", MCS)
        scaled = lb.snr_db(device, satellite, EDGE_DEVICE, "db-scaled", MCS)
        # Neither composition reproduces the published -0.45 dB; both must at
        # least be finite, ordered (the dB-scaled reading sits lower), and
        # carry a defined MCS.
        assert math.isfinite(linear.snr_db) and math.isfinite(scaled.snr_db)
        assert scaled.snr_db < linear.snr_db
        assert linear.mcs_level is not None and scaled.mcs_level is not None

    def test_recomposition_identity(self, device, satellite):
        for mode in ("linear", "db-scaled"):
            for point in (CENTER_DEVICE, EDGE_DEVICE, GeoPoint(40.0, -118.0)):
                r = lb.snr_db(device, satellite, point, mode, MCS)
                recomposed = (
                    r.tx_power_dbm
                    + r.antenna_gain_dbi
                    + r.beam_gain_dbi
                    - r.fspl_db
                    + r.other_losses_db
                    - r.noise_power_dbm
                )
                assert r.snr_db == pytest.approx(recomposed, abs=1e-9)

    def test_zero_rolloff_drives_snr_to_minus_inf(self, device, satellite, monkeypatch):
        monkeypatch.setattr(lb, "beam_rolloff_factor", lambda d, r: 0.0)
        result = lb.snr_db(device, satellite, CENTER_DEVICE, "linear", MCS)
        assert result.snr_db == -math.inf
        assert result.mcs_level is None

    def test_snr_non_increasing_with_beam_distance(self, device, satellite):
        # Move east along a parallel away from the beam center.
        snrs = []
        for dlon in np.linspace(0.0, 18.0, 25):
            r = lb.snr_db(device, satellite, GeoPoint(37.0, -122.0 + float(dlon)), "linear", MCS)
            if r.beam_center_distance_km > 2800.0:
                break
            snrs.append(r.snr_db)
        assert all(b <= a + 1e-12 for a, b in zip(snrs, snrs[1:]))

    def test_below_horizon_unservable(self, device, satellite):
        with pytest.raises(UnservableLocationError):
            lb.snr_db(device, satellite, GeoPoint(10.0, 60.0), "linear", MCS)

    def test_geometry_equals_the_public_geo_functions(self, device, satellite):
        # snr_db computes the geocentric angle once; the results stay bit-equal.
        rng = np.random.default_rng(3)
        points = [GeoPoint(0.0, satellite.sub_satellite_lon), GeoPoint(37.2, -122.1)]
        points += [GeoPoint(float(la), float(lo)) for la, lo in rng.uniform([-60, -180], [60, -70], (50, 2))]
        for p in points:
            result = lb.snr_db(device, satellite, p, "linear", MCS)
            assert result.elevation_deg == elevation_deg(p, satellite)
            assert result.slant_range_km == slant_range_km(p, satellite)

    def test_unknown_mode_rejected(self, device, satellite):
        with pytest.raises(ValidationError):
            lb.snr_db(device, satellite, CENTER_DEVICE, "nonsense", MCS)


class TestMcsTable:
    def test_anchors(self):
        table = MCS
        assert table.level_for_snr(-0.45) == 5
        assert table.level_for_snr(5.55) == 11

    def test_below_minimum_is_none(self):
        assert MCS.level_for_snr(-30.0) is None

    def test_ru_anchor(self):
        assert MCS.ru_for_level(5) == 3

    def test_unknown_level_rejected(self):
        with pytest.raises(ValidationError):
            MCS.ru_for_level(99)

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValidationError):
            lb.McsTable(())
        with pytest.raises(ValidationError):
            lb.McsTable((lb.McsRow(0.0, 5, 3), lb.McsRow(1.0, 5, 3)))
        with pytest.raises(ValidationError):
            # RU count increasing with MCS level
            lb.McsTable((lb.McsRow(0.0, 1, 2), lb.McsRow(1.0, 2, 3)))

    @pytest.mark.parametrize(
        "row, field",
        [
            ("nan,5,3", "min_snr_db"),
            ("inf,11,1", "min_snr_db"),
            ("-inf,5,3", "min_snr_db"),
            ("1.0,5,0", "ru_per_20_bytes"),
            ("1.0,5,-3", "ru_per_20_bytes"),
        ],
    )
    def test_bad_row_names_file_and_row(self, tmp_path, row, field):
        path = tmp_path / "mcs.csv"
        path.write_text(f"min_snr_db,mcs_level,ru_per_20_bytes\n-2.0,4,4\n{row}\n")
        with pytest.raises(ValidationError, match=f"mcs.csv:3: {field}"):
            lb.load_mcs_table(path)


class TestFadingParams:
    def test_table_values_at_50_degrees(self):
        p = lb.fading_params(50.0)
        assert p.b == pytest.approx(0.03, abs=0.01)
        assert p.m == pytest.approx(4.96, abs=0.01)
        assert p.zeta == pytest.approx(0.72, abs=0.01)

    def test_m_at_46_8_degrees(self):
        assert lb.fading_params(46.8).m == pytest.approx(3.86, abs=0.01)

    def test_sweep_finite_and_positive(self):
        for theta in np.linspace(20.0, 80.0, 61):
            p = lb.fading_params(float(theta))
            assert math.isfinite(p.b) and p.b > 0
            assert math.isfinite(p.m) and p.m > 0
            assert math.isfinite(p.zeta) and p.zeta >= 0

    def test_low_elevation_rejected(self):
        # The printed cubics give a negative line-of-sight power below ~18
        # degrees, which the parameter type refuses.
        with pytest.raises(ValidationError):
            lb.fading_params(10.0)

    def test_domain(self):
        with pytest.raises(ValidationError):
            lb.fading_params(0.0)
        with pytest.raises(ValidationError):
            lb.fading_params(90.5)


class TestFadingPdf:
    def test_value_at_zero_is_alpha(self):
        p = TABLE_FADING
        alpha = (2 * p.b * p.m) ** p.m / (2 * p.b * (2 * p.b * p.m + p.zeta) ** p.m)
        assert lb.fading_pdf(0.0, p) == pytest.approx(alpha, rel=1e-12)

    def test_matches_scipy_hypergeometric(self):
        p = TABLE_FADING
        beta = 1 / (2 * p.b)
        delta = p.zeta / (2 * p.b * (2 * p.b * p.m + p.zeta))
        alpha = lb.fading_pdf(0.0, p)
        for x in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
            oracle = alpha * math.exp(-beta * x) * float(sp.hyp1f1(p.m, 1, delta * x))
            assert lb.fading_pdf(x, p) == pytest.approx(oracle, rel=1e-9)

    def test_normalizes_to_one(self):
        total, err = scipy.integrate.quad(lambda x: lb.fading_pdf(x, TABLE_FADING), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mean_is_scatter_plus_los_power(self):
        p = TABLE_FADING
        mean, err = scipy.integrate.quad(lambda x: x * lb.fading_pdf(x, p), 0.0, np.inf)
        assert mean == pytest.approx(2 * p.b + p.zeta, abs=1e-4)

    def test_large_argument_finite(self):
        # Far tail crosses into the log-space asymptotic branch.
        val = lb.fading_pdf(100.0, TABLE_FADING)
        assert 0.0 <= val < 1e-30

    def test_negative_x_rejected(self):
        with pytest.raises(ValidationError):
            lb.fading_pdf(-0.1, TABLE_FADING)


class TestFadingSampler:
    def test_mean_matches_model(self):
        p = TABLE_FADING
        samples = lb.fading_sample(p, rng_seed=7, count=10**6)
        assert samples.mean() == pytest.approx(2 * p.b + p.zeta, rel=0.01)

    def test_no_los_reduces_to_rayleigh_power(self):
        p = lb.FadingParams(b=0.03, m=2.0, zeta=0.0)
        samples = lb.fading_sample(p, rng_seed=11, count=10**6)
        assert samples.mean() == pytest.approx(2 * p.b, rel=0.01)
        # Exponential distribution: second moment is twice the squared mean.
        assert (samples**2).mean() == pytest.approx(2 * (2 * p.b) ** 2, rel=0.03)

    def test_deterministic_under_seed(self):
        a = lb.fading_sample(TABLE_FADING, rng_seed=42, count=1000)
        b = lb.fading_sample(TABLE_FADING, rng_seed=42, count=1000)
        assert np.array_equal(a, b)

    def test_chi_square_against_pdf(self):
        p = TABLE_FADING
        samples = lb.fading_sample(p, rng_seed=20240, count=200_000)
        edges = np.linspace(0.0, float(np.quantile(samples, 0.995)), 41)
        observed, _ = np.histogram(samples, bins=edges)
        observed = np.append(observed, len(samples) - observed.sum())
        probs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = scipy.integrate.quad(lambda x: lb.fading_pdf(x, p), lo, hi)
            probs.append(val)
        probs.append(max(1e-12, 1.0 - sum(probs)))
        expected = np.array(probs) * len(samples)
        keep = expected >= 5.0
        stat = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        dof = int(keep.sum()) - 1
        assert stat < scipy.stats.chi2.ppf(0.99, dof)


NAN = math.nan
TIMING = CFG.timing()
TRAFFIC = CFG.traffic("exception")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: lb.fspl_db(NAN, 2e9), "distance_km and carrier_hz must be > 0"),
        (lambda: lb.fspl_db(1000.0, NAN), "distance_km and carrier_hz must be > 0"),
        (lambda: lb.beam_rolloff_factor(NAN, 1000.0), "d_km must be >= 0"),
        (lambda: lb.beam_rolloff_factor(10.0, NAN), "beam_radius_km must be > 0"),
        (lambda: lb.fading_pdf(NAN, lb.fading_params(50.0)), "x must be >= 0"),
        (lambda: lb.FadingParams(b=NAN, m=4.96, zeta=0.72), "b must be > 0"),
        (lambda: lb.FadingParams(b=0.03, m=NAN, zeta=0.72), "m must be > 0"),
        (lambda: lb.FadingParams(b=0.03, m=4.96, zeta=NAN), "zeta must be >= 0"),
        (lambda: replace(TIMING, rtt_ms=NAN), "rtt_ms must be >= 0"),
        (lambda: replace(TIMING, ru_time_ms=NAN), "ru_time_ms must be > 0"),
        (lambda: replace(TIMING, ru_bw_khz=NAN), "ru_bw_khz must be > 0"),
        (lambda: replace(TIMING, carrier_bw_khz=NAN), "carrier_bw_khz must be > 0"),
        (lambda: replace(TRAFFIC, reference_period_s=NAN), "reference_period_s must be > 0"),
        (lambda: replace(TRAFFIC, sessions_per_day_coeff=NAN), "sessions_per_day_coeff must be >= 0"),
        # min() passes over a NaN that is not its first argument.
        (lambda: replace(ECON, device_cost_usd=NAN), "economic parameters must be >= 0"),
        (lambda: replace(ECON, bandwidth_cost_usd=NAN), "economic parameters must be >= 0"),
    ],
    ids=["fspl-distance", "fspl-carrier", "rolloff-d", "rolloff-radius", "fading-pdf-x",
         "fading-b", "fading-m", "fading-zeta", "timing-rtt", "timing-ru-time", "timing-ru-bw",
         "timing-carrier-bw", "traffic-period", "traffic-sessions", "econ-device", "econ-bandwidth"],
)
def test_nan_fails_public_bounds(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()
