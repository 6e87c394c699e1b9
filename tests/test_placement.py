import numpy as np
import pytest

from firesat.errors import ValidationError
from firesat.fire_model import system_utility
from firesat.placement import (
    Placement,
    biomass_uniform,
    optimize_bruteforce,
    optimize_greedy,
    read_placement_csv,
    read_placement_json,
    write_placement_csv,
    write_placement_json,
)

from conftest import grid_from, grid_of, region_for


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
