import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import placement_reference
from firesat import placement
from firesat.errors import ValidationError
from firesat.fire_model import ignition_and_miss, system_utility
from firesat.ingest import ingest_regions
from firesat.placement import (
    Placement,
    biomass_uniform,
    optimize_greedy,
    read_placement_csv,
    read_placement_json,
    write_placement_csv,
    write_placement_json,
)

from conftest import TEST_PARAMS, grid_from, grid_of, region_for

from placement_reference import optimize_bruteforce, optimize_greedy_heap

PROPERTY = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Miss probabilities that stress the warm start: a sensor that always or
# never detects, one that almost never does, and generic values.
miss_probs = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(1e-16, 1e-12).map(lambda d: 1.0 - d),
)
ignition_probs = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def pq_rows(draw, max_regions=8, ignition=ignition_probs, miss=miss_probs):
    """(p, q) lists whose rows may repeat, so that gains tie across regions."""
    pool = draw(st.lists(st.tuples(ignition, miss), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_regions))
    return [p for p, _ in rows], [q for _, q in rows]


def positive_gains(p, q, cap: int) -> int:
    """Sensors of positive marginal gain, counting at most `cap` per region."""
    total = 0
    for p_i, q_i in zip(p, q):
        n = 0
        while n < cap and p_i * q_i**n * (1.0 - q_i) > 0.0:
            n += 1
        total += n
    return total


def budgets(n_positive: int):
    """0, 1, budgets around the number of positive-gain sensors, and budgets
    beyond it, where the greedy runs out of sensors worth placing unless a
    region reached the count's cap."""
    return st.one_of(
        st.sampled_from([0, 1]),
        st.integers(max(0, n_positive - 3), n_positive + 3),
        st.integers(n_positive + 1, 2 * n_positive + 10),
        st.integers(0, 2 * n_positive + 10),
    )


class TestGreedy:
    def test_zero_budget(self, params):
        grid = grid_from([0.5, 0.1], [0.9, 0.9])
        assert optimize_greedy(grid, 0, 4.0, params).counts == (0, 0)

    def test_negative_budget_rejected(self, params):
        grid = grid_from([0.5], [0.9])
        with pytest.raises(ValidationError):
            optimize_greedy(grid, -1, 4.0, params)

    def test_dominant_region_takes_all(self, params):
        # marginal gains 0.05, 0.045, 0.0405 all beat region 2's 0.01
        grid = grid_from([0.5, 0.1], [0.9, 0.9])
        placement = optimize_greedy(grid, 3, 4.0, params)
        assert placement.counts == (3, 0)

    def test_tie_breaks_to_lowest_index(self, params):
        grid = grid_from([0.5, 0.5], [0.9, 0.9])
        placement = optimize_greedy(grid, 2, 4.0, params)
        assert placement.counts == (1, 1)

    def test_zero_gain_regions_left_unfunded(self, params):
        # p = 0 and q = 1 (no fire growth) both yield zero marginal gain.
        grid = grid_from([0.0, 0.5, 0.4], [0.5, 1.0, 0.0])
        placement = optimize_greedy(grid, 10, 4.0, params)
        assert placement.counts[0] == 0
        assert placement.counts[1] == 0
        assert placement.counts[2] == 1  # q=0 saturates after one sensor
        assert placement.deployed < 10

    def test_utility_non_decreasing_in_budget(self, params):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, 8).tolist()
        q = rng.uniform(0, 1, 8).tolist()
        grid = grid_from(p, q)
        utilities = [
            system_utility(grid, optimize_greedy(grid, k, 4.0, params).counts, 4.0, params)
            for k in range(0, 25, 3)
        ]
        assert all(b >= a for a, b in zip(utilities, utilities[1:]))



class TestGreedyAgainstHeap:
    """The warm-started greedy against the from-zero heap it replaces,
    compared as whole placements."""

    @PROPERTY
    @given(pq_rows(), st.data())
    def test_equals_heap_on_random_grids(self, rows, data):
        grid = grid_from(*rows)
        p, q = ignition_and_miss(grid, 4.0, TEST_PARAMS)
        budget = data.draw(budgets(positive_gains(p, q, cap=2000)))
        fast = optimize_greedy(grid, budget, 4.0, TEST_PARAMS)
        assert fast == optimize_greedy_heap(grid, budget, 4.0, TEST_PARAMS)

    @PROPERTY
    @given(
        pq_rows(
            ignition=st.one_of(ignition_probs, st.sampled_from([5e-324, 1e-300, 1e-150, 1.0])),
            miss=st.one_of(
                miss_probs,
                st.sampled_from([1.0 - 2.0**-53, 1.0 - 2.0**-52, 5e-324, 1e-300, 0.5]),
            ),
        ),
        st.data(),
    )
    def test_equals_heap_on_extreme_probabilities(self, rows, data):
        p, q = rows
        budget = data.draw(budgets(positive_gains(p, q, cap=2000)))
        assert_equals_heap(p, q, [budget])

    def test_equals_heap_where_gains_barely_decay(self):
        # Gains of q = 1 - 2**-53 change by about one ulp per sensor, so the
        # float counts above a threshold stray from the real-valued ones.
        one_minus = 1.0 - 2.0**-53
        assert_equals_heap([0.3, 0.3, 0.9], [one_minus, one_minus, 0.5], range(0, 1500, 7))

    def test_equals_heap_from_a_shorter_warm_start(self, sample_grid, monkeypatch):
        # Any warm start at most the final counts leaves the result unchanged;
        # cutting it short makes the heap pop gains of the real model.
        grid, t, params = sample_grid
        warm_start = placement._warm_start
        monkeypatch.setattr(
            placement, "_warm_start", lambda *args: [max(0, w - 3) for w in warm_start(*args)]
        )
        budget = 100_000
        fast = optimize_greedy(grid, budget, t, params)
        assert fast == optimize_greedy_heap(grid, budget, t, params)

    @pytest.mark.parametrize(
        "budget", [100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000, 3_000_000]
    )
    def test_equals_heap_on_sample_grid(self, sample_grid, budget):
        grid, t, params = sample_grid
        fast = optimize_greedy(grid, budget, t, params)
        assert fast.deployed == budget
        assert fast == optimize_greedy_heap(grid, budget, t, params)
        # The bisection converges, so the warm start leaves the heap almost
        # nothing (none at these budgets; about 2 500 sensors if it stopped
        # within a factor e of the threshold).
        p, q = ignition_and_miss(grid, t, params)
        assert budget - sum(placement._warm_start(p, q, budget)) <= 10

    @PROPERTY
    @given(pq_rows(), st.integers(0, 300), st.integers(0, 300))
    def test_utility_non_decreasing_in_budget(self, rows, k1, k2):
        k1, k2 = sorted((k1, k2))
        grid = grid_from(*rows)
        small = optimize_greedy(grid, k1, 4.0, TEST_PARAMS)
        large = optimize_greedy(grid, k2, 4.0, TEST_PARAMS)
        assert all(a <= b for a, b in zip(small.counts, large.counts))
        utility = lambda counts: system_utility(grid, counts, 4.0, TEST_PARAMS)
        assert utility(small.counts) <= utility(large.counts)

    @PROPERTY
    @given(
        st.one_of(st.floats(1e-300, 1.0), st.sampled_from([1.0, 0.5])),
        st.one_of(
            miss_probs.filter(lambda q: q < 1.0),
            st.integers(1, 64).map(lambda k: 1.0 - k * 2.0**-53),
        ),
        st.floats(0.0, 1.0),
    )
    def test_count_bounds_hold_the_float_count(self, p, q, depth):
        # The warm start's lemma: lo <= (number of gains above lam) <= hi.
        a = p * (1.0 - q)
        assume(a > placement._THRESHOLD_FLOOR)
        lam = max(placement._THRESHOLD_FLOOR, a * math.exp(-750.0 * depth**3))
        gain = lambda n: p * q**n * (1.0 - q)
        # Gallop, then bisect, to the first n whose gain is not above lam.
        lo_n, hi_n = 0, 1
        while gain(hi_n) > lam:
            lo_n, hi_n = hi_n, 2 * hi_n
        while lo_n < hi_n:
            mid = (lo_n + hi_n) // 2
            if gain(mid) > lam:
                lo_n = mid + 1
            else:
                hi_n = mid
        with np.errstate(divide="ignore"):
            lo, hi = placement._count_bounds(lam, np.array([a]), np.log(np.array([q])))
        assert lo[0] <= lo_n <= hi[0]


def assert_equals_heap(p, q, budgets):
    """Both optimizers, fed these (p, q) instead of the fire model's, agree.

    Reaches floats the fire model cannot produce exactly, such as the float
    just below 1 and subnormals."""
    grid = grid_from([0.5] * len(p), [0.5] * len(p))
    with pytest.MonkeyPatch.context() as mp:
        for module in (placement, placement_reference):
            mp.setattr(module, "ignition_and_miss", lambda *args: (list(p), list(q)))
        for budget in budgets:
            fast = optimize_greedy(grid, budget, 4.0, TEST_PARAMS)
            assert fast == optimize_greedy_heap(grid, budget, 4.0, TEST_PARAMS), budget


@pytest.fixture(scope="module")
def sample_grid(cfg):
    return ingest_regions(cfg.regions_csv, cfg.cell_area_km2), cfg.t_hours, cfg.fire_params()


class TestBruteForce:
    def test_zero_budget(self, params):
        grid = grid_from([0.3, 0.3], [0.5, 0.5])
        assert optimize_bruteforce(grid, 0, 4.0, params).counts == (0, 0)

    def test_single_region_uses_whole_budget(self, params):
        grid = grid_from([0.7], [0.6])
        assert optimize_bruteforce(grid, 5, 4.0, params).counts == (5,)

    def test_cap_refusal(self, params):
        grid = grid_from([0.5] * 10, [0.5] * 10)
        with pytest.raises(ValidationError):
            optimize_bruteforce(grid, 50, 4.0, params, max_allocations=1000)

    def test_matches_greedy_on_random_instances(self, params):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, 13))
            p = rng.uniform(0, 1, n).tolist()
            q = rng.uniform(0, 1, n).tolist()
            grid = grid_from(p, q)
            greedy = optimize_greedy(grid, k, 4.0, params)
            brute = optimize_bruteforce(grid, k, 4.0, params)
            u_greedy = system_utility(grid, greedy.counts, 4.0, params)
            u_brute = system_utility(grid, brute.counts, 4.0, params)
            assert u_greedy == u_brute

    @PROPERTY
    @given(pq_rows(max_regions=5), st.integers(0, 8))
    def test_greedy_optimal_on_random_grids(self, rows, budget):
        # Rows repeat, so several allocations can be optimal; their utilities
        # agree up to the order of the float sum, not bit for bit.
        grid = grid_from(*rows)
        greedy = optimize_greedy(grid, budget, 4.0, TEST_PARAMS)
        brute = optimize_bruteforce(grid, budget, 4.0, TEST_PARAMS)
        u_greedy = system_utility(grid, greedy.counts, 4.0, TEST_PARAMS)
        u_brute = system_utility(grid, brute.counts, 4.0, TEST_PARAMS)
        assert u_greedy == pytest.approx(u_brute, rel=1e-12, abs=1e-300)


class TestBiomassUniform:
    def test_even_split(self):
        regions = [region_for(i, 0.5 if i < 2 else 0.0, 0.5) for i in range(4)]
        grid = grid_of(regions, 100.0)
        placement = biomass_uniform(grid, 4)
        assert placement.counts == (2, 2, 0, 0)

    def test_remainder_goes_to_lowest_indices(self):
        qualifying = 3500
        regions = [region_for(i, 0.5 if i < qualifying else 0.0, 0.5) for i in range(3600)]
        grid = grid_of(regions, 100.0)
        placement = biomass_uniform(grid, 10**5)
        counts = placement.counts
        assert placement.deployed == 10**5
        assert set(counts[:qualifying]) == {28, 29}
        assert all(c == 0 for c in counts[qualifying:])
        # extras (10^5 mod 3500 = 2000) land on the first 2000 qualifying ids
        assert all(c == 29 for c in counts[:2000])
        assert all(c == 28 for c in counts[2000:qualifying])

    def test_no_vegetation_warns_and_places_nothing(self):
        regions = [region_for(i, 0.0, 0.5) for i in range(3)]
        grid = grid_of(regions, 100.0)
        with pytest.warns(UserWarning):
            placement = biomass_uniform(grid, 10)
        assert placement.counts == (0, 0, 0)

    def test_optimized_dominates_uniform(self, params):
        rng = np.random.default_rng(5)
        p = rng.uniform(0, 1, 30).tolist()
        q = rng.uniform(0.2, 0.99, 30).tolist()
        grid = grid_from(p, q)
        k = 40
        u_opt = system_utility(grid, optimize_greedy(grid, k, 4.0, params).counts, 4.0, params)
        u_uni = system_utility(grid, biomass_uniform(grid, k).counts, 4.0, params)
        assert u_opt >= u_uni


def test_counts_are_integers_never_rounded():
    with pytest.raises(ValidationError, match=r"^region 0: sensor count 2\.9 is not an integer$"):
        Placement((2.9,), 3)
    with pytest.raises(ValidationError, match=r"^budget 3\.0 must be an integer >= 0$"):
        Placement((2,), 3.0)
    # numpy integers are integers.
    assert Placement(np.array([1, 2]), np.int64(3)) == Placement((1, 2), 3)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        placement = Placement((3, 0, 7), budget=12)
        path = tmp_path / "placement.csv"
        write_placement_csv(placement, path)
        back = read_placement_csv(path, budget=12)
        assert back.counts == placement.counts
        assert back.budget == 12

    def test_json_round_trip(self, tmp_path):
        placement = Placement((1, 2), budget=3)
        path = tmp_path / "placement.json"
        write_placement_json(placement, path, scheme="optimized")
        back = read_placement_json(path)
        assert back == placement

    def test_csv_rejects_gapped_ids(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("region_id,n_sensors\n0,1\n2,1\n")
        with pytest.raises(ValidationError):
            read_placement_csv(path)

    def test_csv_negative_count_is_named_before_the_budget(self, tmp_path):
        # The budget defaults to the sum of the counts, here -1; the count
        # itself is the fault.
        path = tmp_path / "negative.csv"
        path.write_text("region_id,n_sensors\n0,-1\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: region 0: sensor count -1 must be >= 0$"):
            read_placement_csv(path)

    @pytest.mark.parametrize(
        "body, fault",
        [
            ('{"counts": [0, 1.5], "budget": 9}', "region 1: sensor count 1.5 is not an integer"),
            ('{"counts": [0, "2"], "budget": 9}', "region 1: sensor count '2' is not an integer"),
            ('{"counts": [0, true], "budget": 9}', "region 1: sensor count True is not an integer"),
            ('{"counts": [0, 2], "budget": 9.9}', "budget 9.9 must be an integer >= 0"),
        ],
        ids=["fractional-count", "string-count", "boolean-count", "fractional-budget"],
    )
    def test_json_count_or_budget_is_never_truncated(self, tmp_path, body, fault):
        path = tmp_path / "placement.json"
        path.write_text(body)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {fault}')}$"):
            read_placement_json(path)

    @pytest.mark.parametrize(
        "name, body",
        [
            pytest.param("bad.json", b'{"budget": 3, ', id="truncated-json"),
            pytest.param("bad.json", b"[1, 2]", id="top-level-list"),
            pytest.param("bad.json", b'{"counts": [1, 2]}', id="missing-budget"),
            pytest.param("bad.json", b'{"budget": 3, "counts": 7}', id="counts-not-a-list"),
            pytest.param("bad.json", b"\xff\xfe{}", id="undecodable-json"),
            pytest.param("bad.csv", b"\xff\xferegion_id,n_sensors\n0,1\n", id="undecodable-csv"),
            pytest.param("bad.csv", b"region,n\n0,1\n", id="wrong-csv-header"),
            pytest.param("bad.csv", b"region_id,n_sensors\n0,-1\n", id="negative-csv-count"),
        ],
    )
    def test_bad_file_is_a_validation_error_naming_it(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_bytes(body)
        read = read_placement_json if name.endswith(".json") else read_placement_csv
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
            read(path)
