import pytest
from hypothesis import given, strategies as st

from firesat.errors import ValidationError
from firesat.fire_model import (
    FireModelParams,
    burned_area_km2,
    p_biomass,
    p_detection,
    p_ignition,
    p_lightning_human,
    p_moisture,
    system_utility,
)
from firesat.placement import Placement

from conftest import TEST_PARAMS, grid_from, region_for

probs = st.floats(0.0, 1.0)


class TestBiomassFactor:
    def test_lower_threshold_gives_zero(self, params):
        assert p_biomass(0.2, params) == 0.0

    def test_upper_threshold_saturates(self, params):
        assert p_biomass(1.0, params) == 1.0
        assert p_biomass(7.5, params) == 1.0

    def test_linear_ramp_midpoint(self, params):
        assert p_biomass(0.6, params) == pytest.approx(0.5, rel=1e-12)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_non_decreasing(self, b1, b2):
        lo, hi = sorted((b1, b2))
        assert p_biomass(lo, TEST_PARAMS) <= p_biomass(hi, TEST_PARAMS)


class TestMoistureFactor:
    def test_at_wilting_point_is_one(self, params):
        assert p_moisture(params.theta_wilt, params) == 1.0
        assert p_moisture(params.theta_wilt - 0.05, params) == 1.0

    def test_scalar_oracle_values(self, params):
        # beta_root = 0.35 with beta_e = 0.35 -> 1 - tanh(1.75)^2
        theta = params.theta_wilt + 0.35 * (params.theta_field - params.theta_wilt)
        assert p_moisture(theta, params) == pytest.approx(0.11381209551894222, rel=1e-12)
        # beta_root = 1 -> 1 - tanh(5)^2
        assert p_moisture(params.theta_field, params) == pytest.approx(
            0.0001815832309438603, rel=1e-12
        )

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_non_increasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert p_moisture(hi, TEST_PARAMS) <= p_moisture(lo, TEST_PARAMS) + 1e-15


class TestLightningHumanFactor:
    def test_no_lightning_reduces_to_human(self, params):
        assert p_lightning_human(0.0, 0.37, params) == 0.37
        assert p_lightning_human(params.l_low, 0.9, params) == 0.9

    def test_saturated_lightning(self, params):
        # beta_L = 1 -> I = 1/(1 + e^-4.5)
        assert p_lightning_human(params.l_up, 0.0, params) == pytest.approx(
            0.9890130573694068, rel=1e-12
        )

    def test_quarter_scalar(self, params):
        # beta_L = 0.25 -> I = 0.25/(0.25 + 1) = 0.2; with p_h = 0.5 -> 0.6
        l = params.l_low + 0.25 * (params.l_up - params.l_low)
        assert p_lightning_human(l, 0.5, params) == pytest.approx(0.6, rel=1e-12)

    @given(st.floats(0.0, 2.0), probs)
    def test_bounded(self, l, ph):
        assert 0.0 <= p_lightning_human(l, ph, TEST_PARAMS) <= 1.0

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), probs)
    def test_non_decreasing_in_lightning(self, l1, l2, ph):
        lo, hi = sorted((l1, l2))
        assert p_lightning_human(lo, ph, TEST_PARAMS) <= p_lightning_human(hi, ph, TEST_PARAMS) + 1e-15

    @given(st.floats(0.0, 2.0), probs, probs)
    def test_non_decreasing_in_human_probability(self, l, ph1, ph2):
        lo, hi = sorted((ph1, ph2))
        assert p_lightning_human(l, lo, TEST_PARAMS) <= p_lightning_human(l, hi, TEST_PARAMS) + 1e-15


class TestIgnition:
    def test_zero_biomass_annihilates(self, params):
        r = region_for(0, 0.0, 0.5)
        assert p_ignition(r["biomass"], r["soil_moisture"], r["lightning"], r["p_human"], params) == 0.0

    def test_product_of_factors(self, params):
        # factors 0.5 * 0.1138... * 0.6 via explicit env values
        theta = params.theta_wilt + 0.35 * (params.theta_field - params.theta_wilt)
        l = params.l_low + 0.25 * (params.l_up - params.l_low)
        assert p_ignition(0.6, theta, l, 0.5, params) == pytest.approx(0.03414362865568266, rel=1e-10)

    def test_all_factors_one(self, params):
        r = region_for(0, 1.0, 0.5)
        assert p_ignition(r["biomass"], r["soil_moisture"], r["lightning"], r["p_human"], params) == 1.0


class TestBurnedArea:
    def test_zero_time(self):
        assert burned_area_km2(1.3, 0.0) == 0.0

    def test_circle_formula(self):
        assert burned_area_km2(1.25, 2.0) == pytest.approx(19.634954084936208, rel=1e-12)

    def test_zero_spread(self):
        assert burned_area_km2(0.0, 8.0) == 0.0


class TestDetection:
    def test_zero_sensors_zero_probability(self):
        assert p_detection(0, 100.0, 50.0) == 0.0
        assert p_detection(0, 100.0, 100.0) == 0.0  # 0**0 == 1 convention

    def test_fire_covers_region(self):
        assert p_detection(1, 100.0, 100.0) == 1.0
        assert p_detection(5, 100.0, 250.0) == 1.0

    def test_direct_evaluation(self):
        burned = 19.634954084936208
        assert p_detection(3, 100.0, burned) == pytest.approx(0.4809590877404716, rel=1e-12)

    @given(st.integers(0, 50), st.floats(0.0, 300.0))
    def test_bounded_and_monotone_in_n(self, n, burned):
        p_n = p_detection(n, 100.0, burned)
        assert 0.0 <= p_n <= 1.0
        assert p_detection(n + 1, 100.0, burned) >= p_n

    @given(st.integers(0, 20), st.floats(0.0, 300.0), st.floats(0.0, 300.0))
    def test_monotone_in_burned_area(self, n, b1, b2):
        lo, hi = sorted((b1, b2))
        assert p_detection(n, 100.0, lo) <= p_detection(n, 100.0, hi) + 1e-15


class TestSystemUtility:
    def test_no_sensors_gives_zero(self, params):
        grid = grid_from([0.5, 0.9], [0.8, 0.7])
        assert system_utility(grid, [0, 0], 4.0, params) == 0.0

    def test_single_region_product(self, params):
        from firesat.grid import RegionGrid

        theta = params.theta_wilt + 0.35 * (params.theta_field - params.theta_wilt)
        l = params.l_low + 0.25 * (params.l_up - params.l_low)
        grid = RegionGrid([36], [-120], [0.6], [theta], [l], [0.5], [1.25], 100.0)
        assert system_utility(grid, [3], 2.0, params) == pytest.approx(
            0.016421688490386558, rel=1e-10
        )

    def test_monotone_in_each_count(self, params):
        grid = grid_from([0.4, 0.6, 0.1], [0.9, 0.5, 0.99])
        base = [2, 1, 0]
        u0 = system_utility(grid, base, 4.0, params)
        for i in range(3):
            bumped = list(base)
            bumped[i] += 1
            assert system_utility(grid, bumped, 4.0, params) >= u0

    def test_length_mismatch_rejected(self, params):
        grid = grid_from([0.5], [0.5])
        with pytest.raises(ValidationError):
            system_utility(grid, [1, 2], 4.0, params)

    def test_marginal_gain_identity(self, params):
        from firesat.fire_model import ignition_and_miss

        grid = grid_from([0.3, 0.8, 0.05, 0.6], [0.95, 0.6, 0.85, 0.2])
        p, q = ignition_and_miss(grid, 4.0, params)
        counts = [0, 3, 7, 1]
        u0 = system_utility(grid, counts, 4.0, params)
        for i in range(4):
            bumped = list(counts)
            bumped[i] += 1
            gain = system_utility(grid, bumped, 4.0, params) - u0
            predicted = p[i] * q[i] ** counts[i] * (1.0 - q[i])
            assert gain == pytest.approx(predicted, abs=1e-12)


def test_params_invariants():
    with pytest.raises(ValidationError):
        FireModelParams(theta_wilt=0.4, theta_field=0.1)
    with pytest.raises(ValidationError):
        FireModelParams(theta_wilt=0.1, theta_field=0.4, b_low=1.0, b_up=0.2)
    with pytest.raises(ValidationError):
        FireModelParams(theta_wilt=0.1, theta_field=0.4, beta_e=0.0)


def test_placement_type_invariants():
    with pytest.raises(ValidationError):
        Placement((1, 2, 3), budget=5)
    with pytest.raises(ValidationError):
        Placement((-1, 0), budget=5)
    p = Placement((2, 3), budget=5)
    assert p.deployed == 5
