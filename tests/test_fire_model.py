import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from firesat import fire_model
from firesat.errors import NumericError, ValidationError
from firesat.fire_model import (
    FireModelParams,
    biomass_factor,
    burned_area_km2,
    ignition_and_miss,
    ignition_columns,
    ignition_probabilities,
    lightning_human_factor,
    moisture_factor,
    system_utility,
)
from firesat.grid import RegionGrid
from firesat.ingest import ingest_regions
from firesat.placement import Placement, optimize_greedy

import fire_model_reference as ref
from conftest import CFG, TEST_PARAMS, grid_from, region_for

probs = st.floats(0.0, 1.0)


def at(factor, *values: float, params=TEST_PARAMS) -> float:
    """A column-form factor evaluated on one-element columns."""
    return float(factor(*(np.array([v], dtype=np.float64) for v in values), params)[0])


class TestBiomassFactor:
    def test_lower_threshold_gives_zero(self, params):
        assert at(biomass_factor, 0.2, params=params) == 0.0

    def test_upper_threshold_saturates(self, params):
        assert at(biomass_factor, 1.0, params=params) == 1.0
        assert at(biomass_factor, 7.5, params=params) == 1.0

    def test_linear_ramp_midpoint(self, params):
        assert at(biomass_factor, 0.6, params=params) == pytest.approx(0.5, rel=1e-12)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_non_decreasing(self, b1, b2):
        lo, hi = sorted((b1, b2))
        assert at(biomass_factor, lo) <= at(biomass_factor, hi)


class TestMoistureFactor:
    def test_at_wilting_point_is_one(self, params):
        assert at(moisture_factor, params.theta_wilt, params=params) == 1.0
        assert at(moisture_factor, params.theta_wilt - 0.05, params=params) == 1.0

    def test_scalar_oracle_values(self, params):
        # beta_root = 0.35 with beta_e = 0.35 -> 1 - tanh(1.75)^2
        theta = params.theta_wilt + 0.35 * (params.theta_field - params.theta_wilt)
        assert at(moisture_factor, theta, params=params) == pytest.approx(0.11381209551894222, rel=1e-12)
        # beta_root = 1 -> 1 - tanh(5)^2
        assert at(moisture_factor, params.theta_field, params=params) == pytest.approx(
            0.0001815832309438603, rel=1e-12
        )

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_non_increasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert at(moisture_factor, hi) <= at(moisture_factor, lo) + 1e-15


class TestLightningHumanFactor:
    def test_no_lightning_reduces_to_human(self, params):
        assert at(lightning_human_factor, 0.0, 0.37, params=params) == 0.37
        assert at(lightning_human_factor, params.l_low, 0.9, params=params) == 0.9

    def test_saturated_lightning(self, params):
        # beta_L = 1 -> I = 1/(1 + e^-4.5)
        assert at(lightning_human_factor, params.l_up, 0.0, params=params) == pytest.approx(
            0.9890130573694068, rel=1e-12
        )

    def test_quarter_scalar(self, params):
        # beta_L = 0.25 -> I = 0.25/(0.25 + 1) = 0.2; with p_h = 0.5 -> 0.6
        l = params.l_low + 0.25 * (params.l_up - params.l_low)
        assert at(lightning_human_factor, l, 0.5, params=params) == pytest.approx(0.6, rel=1e-12)

    @given(st.floats(0.0, 2.0), probs)
    def test_bounded(self, l, ph):
        assert 0.0 <= at(lightning_human_factor, l, ph) <= 1.0

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), probs)
    def test_non_decreasing_in_lightning(self, l1, l2, ph):
        lo, hi = sorted((l1, l2))
        assert at(lightning_human_factor, lo, ph) <= at(lightning_human_factor, hi, ph) + 1e-15

    @given(st.floats(0.0, 2.0), probs, probs)
    def test_non_decreasing_in_human_probability(self, l, ph1, ph2):
        lo, hi = sorted((ph1, ph2))
        assert at(lightning_human_factor, l, lo) <= at(lightning_human_factor, l, hi) + 1e-15


class TestIgnition:
    def test_zero_biomass_annihilates(self, params):
        r = region_for(0, 0.0, 0.5)
        assert at(ignition_columns, r["biomass"], r["soil_moisture"], r["lightning"], r["p_human"], params=params) == 0.0

    def test_product_of_factors(self, params):
        # factors 0.5 * 0.1138... * 0.6 via explicit env values
        theta = params.theta_wilt + 0.35 * (params.theta_field - params.theta_wilt)
        l = params.l_low + 0.25 * (params.l_up - params.l_low)
        assert at(ignition_columns, 0.6, theta, l, 0.5, params=params) == pytest.approx(0.03414362865568266, rel=1e-10)

    def test_all_factors_one(self, params):
        r = region_for(0, 1.0, 0.5)
        assert at(ignition_columns, r["biomass"], r["soil_moisture"], r["lightning"], r["p_human"], params=params) == 1.0


class TestBurnedArea:
    def test_zero_time(self):
        assert burned_area_km2(1.3, 0.0) == 0.0

    def test_circle_formula(self):
        assert burned_area_km2(1.25, 2.0) == pytest.approx(19.634954084936208, rel=1e-12)

    def test_zero_spread(self):
        assert burned_area_km2(0.0, 8.0) == 0.0

    @pytest.mark.parametrize("u, t", [(-1.0, 2.0), (1.0, -2.0), (math.nan, 4.0), (4.0, math.nan)])
    def test_negative_input_rejected(self, u, t):
        with pytest.raises(ValidationError, match="^spread_rate and t must be >= 0$"):
            burned_area_km2(u, t)

    @pytest.mark.parametrize("u, t", [(1.0, 1e200), (0.6, 1e308), (2.0, 1e308), (math.inf, 0.0), (0.0, math.inf)])
    def test_overflow_is_a_numeric_error(self, u, t):
        with pytest.raises(NumericError, match="burned area overflows"):
            burned_area_km2(u, t)

    def test_nan_deadline_fails_the_greedy(self):
        grid = ingest_regions(CFG.regions_csv, CFG.cell_area_km2)
        with pytest.raises(ValidationError, match="^spread_rate and t must be >= 0$"):
            optimize_greedy(grid, 1000, math.nan, CFG.fire_params())


class TestIgnitionAndMissCache:
    P, Q = [0.3, 0.8, 0.05, 0.6], [0.95, 0.6, 0.85, 0.2]

    def test_computed_once_per_t_and_params(self, monkeypatch, params):
        grid = grid_from(self.P, self.Q)
        deadlines = []
        real = fire_model.burned_area_km2
        monkeypatch.setattr(
            fire_model, "burned_area_km2", lambda u, t: deadlines.append(t) or real(u, t)
        )
        first = ignition_and_miss(grid, 4.0, params)
        assert deadlines == [4.0] * 4
        equal_params = replace(params)
        assert ignition_and_miss(grid, 4.0, equal_params) == first
        assert len(deadlines) == 4
        assert ignition_and_miss(grid, 5.0, params) != first
        assert ignition_and_miss(grid, 4.0, replace(params, theta_wilt=0.05)) != first
        assert len(deadlines) == 12
        # A deadline of another type (numpy's powers differ from Python's) and
        # a fresh but equal grid each compute their own.
        assert ignition_and_miss(grid, 4, params) == first
        assert ignition_and_miss(grid_from(self.P, self.Q), 4.0, params) == first
        assert len(deadlines) == 20

    def test_returns_immutable_python_floats(self, params):
        grid = grid_from(self.P, self.Q)
        for _ in range(2):
            p, q = ignition_and_miss(grid, 4.0, params)
            assert type(p) is tuple and type(q) is tuple
            assert all(type(v) is float for v in p + q)
            assert p == pytest.approx(self.P, rel=1e-9)
            assert q == pytest.approx(self.Q, rel=1e-9)


def detection(n: int, spread_rate: float, t: float) -> float:
    """`system_utility` of n sensors in one 100 km2 region whose ignition
    probability is 1: the chance that one of them lies in the burned area."""
    p = TEST_PARAMS
    grid = RegionGrid([36.0], [-120.0], [p.b_up], [p.theta_wilt], [0.0], [1.0], [spread_rate], 100.0)
    return system_utility(grid, [n], t, p)


def spread_for(burned: float) -> float:
    """The spread rate that burns `burned` km2 in one hour."""
    return math.sqrt(burned / math.pi)


class TestDetection:
    def test_zero_sensors_zero_probability(self):
        assert detection(0, spread_for(50.0), 1.0) == 0.0
        assert detection(0, spread_for(250.0), 1.0) == 0.0  # 0**0 == 1 convention

    def test_fire_covers_region(self):
        assert detection(1, spread_for(250.0), 1.0) == 1.0
        assert detection(5, spread_for(250.0), 1.0) == 1.0

    def test_direct_evaluation(self):
        # burned area pi * (1.25 * 2)**2 = 19.634954084936208 km2
        assert detection(3, 1.25, 2.0) == pytest.approx(0.4809590877404716, rel=1e-12)

    @given(st.integers(0, 50), st.floats(0.0, 300.0))
    def test_bounded_and_monotone_in_n(self, n, burned):
        p_n = detection(n, spread_for(burned), 1.0)
        assert 0.0 <= p_n <= 1.0
        assert detection(n + 1, spread_for(burned), 1.0) >= p_n

    @given(st.integers(0, 20), st.floats(0.0, 300.0), st.floats(0.0, 300.0))
    def test_monotone_in_burned_area(self, n, b1, b2):
        lo, hi = sorted((b1, b2))
        assert detection(n, spread_for(lo), 1.0) <= detection(n, spread_for(hi), 1.0) + 1e-15


class TestSystemUtility:
    def test_no_sensors_gives_zero(self, params):
        grid = grid_from([0.5, 0.9], [0.8, 0.7])
        assert system_utility(grid, [0, 0], 4.0, params) == 0.0

    def test_single_region_product(self, params):
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

    def test_negative_count_rejected(self, params):
        grid = grid_from([0.5, 0.9], [0.8, 0.7])
        with pytest.raises(ValidationError, match="^n_sensors must be >= 0$"):
            system_utility(grid, [1, -1], 4.0, params)

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
        replace(TEST_PARAMS, theta_wilt=0.4, theta_field=0.1)
    with pytest.raises(ValidationError):
        replace(TEST_PARAMS, b_low=1.0, b_up=0.2)
    with pytest.raises(ValidationError):
        replace(TEST_PARAMS, beta_e=0.0)


def test_placement_type_invariants():
    with pytest.raises(ValidationError):
        Placement((1, 2, 3), budget=5)
    with pytest.raises(ValidationError):
        Placement((-1, 0), budget=5)
    p = Placement((2, 3), budget=5)
    assert p.deployed == 5


# The column form against the scalar reference, bit for bit: values at, just
# beside and between the thresholds, signed zeros and subnormals.
TINY = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308)


def near(*anchors: float):
    anchor = st.sampled_from(anchors + TINY)
    return st.one_of(
        anchor,
        anchor.map(lambda x: math.nextafter(x, math.inf)),
        anchor.map(lambda x: math.nextafter(x, -math.inf)),
        st.floats(-1.0, 3.0),
    )


@st.composite
def model_params(draw):
    def pair(lo, hi):
        # A lower threshold of 0.0 turns -0.0 and tiny negative inputs into -0.0;
        # a span of one ulp overflows the ramp's ratio to inf.
        a = draw(st.one_of(st.just(0.0), st.floats(lo, hi)))
        up = draw(st.floats(a, a + (hi - lo), exclude_min=True))
        return a, draw(st.sampled_from([up, math.nextafter(a, math.inf)]))

    b_low, b_up = pair(0.0, 2.0)
    theta_wilt, theta_field = pair(-0.2, 1.0)
    l_low, l_up = pair(0.0, 2.0)
    beta_e = draw(st.one_of(st.floats(0.01, 2.0), st.sampled_from([5e-324, 2.2250738585072014e-308])))
    return FireModelParams(theta_wilt, theta_field, b_low, b_up, beta_e, l_low, l_up)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def scalar_outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_column_form_matches_scalar_reference(data):
    params = data.draw(st.one_of(st.just(TEST_PARAMS), model_params()))
    n = data.draw(st.integers(1, 6))
    b = data.draw(st.lists(near(params.b_low, params.b_up), min_size=n, max_size=n))
    theta = data.draw(
        st.lists(near(params.theta_wilt, params.theta_field), min_size=n, max_size=n)
    )
    l = data.draw(st.lists(near(params.l_low, params.l_up), min_size=n, max_size=n))
    ph = data.draw(
        st.lists(st.one_of(near(1.0), st.floats(0.0, 1.0)), min_size=n, max_size=n)
    )
    columns = [np.array(c, dtype=np.float64) for c in (b, theta, l, ph)]

    assert bits(biomass_factor(columns[0], params)) == bits(ref.p_biomass(x, params) for x in b)
    assert bits(moisture_factor(columns[1], params)) == bits(
        ref.p_moisture(x, params) for x in theta
    )
    expected = [scalar_outcome(ref.p_lightning_human, x, y, params) for x, y in zip(l, ph)]
    if any(isinstance(v, str) for v in expected):
        with pytest.raises(ValidationError, match=r"p_human outside \[0, 1\]"):
            ignition_columns(*columns, params)
        return
    assert bits(lightning_human_factor(columns[2], columns[3], params)) == bits(expected)
    reference = [ref.p_ignition(*row, params) for row in zip(b, theta, l, ph)]
    assert bits(ignition_columns(*columns, params)) == bits(reference)


def test_packaged_grid_ignition_matches_scalar_reference():
    grid = ingest_regions(CFG.regions_csv, CFG.cell_area_km2)
    params = CFG.fire_params()
    reference = [
        ref.p_ignition(*row, params)
        for row in zip(
            grid.biomass.tolist(),
            grid.soil_moisture.tolist(),
            grid.lightning.tolist(),
            grid.p_human.tolist(),
        )
    ]
    assert bits(ignition_probabilities(grid, params)) == bits(reference)
