"""The output gate: corrupted, missing or failed outputs count as failed operations."""

import csv

import pytest

from worker import WORKLOADS, check_pass, load_reference, make_workload


def run_tiny(name, tmp_path, seed=3):
    wl = make_workload(name, seed, True, tmp_path)
    wl.prepare()
    status = wl.run_pass()
    clean = check_pass(wl, status, None)
    assert clean["problems"] == {}
    reference = {"fixed": clean["fixed"], "seeded": {str(seed): clean["seeded"]}}
    return wl, status, reference


@pytest.mark.parametrize("name", ["dense-linkmap", "sparse-plan"])
def test_unchanged_outputs_match_their_own_digests(name, tmp_path):
    wl, status, reference = run_tiny(name, tmp_path)
    assert check_pass(wl, status, reference)["problems"] == {}


def test_a_corrupted_file_is_a_failed_operation(tmp_path):
    wl, status, reference = run_tiny("sparse-plan", tmp_path)
    path = tmp_path / "simulate" / "campaign_uniform.json"
    path.write_text(path.read_text().replace('"trials": 1', '"trials": 1 '))
    problems = check_pass(wl, status, reference)["problems"]
    assert list(problems) == ["simulate"]
    assert problems["simulate"] == ["digest mismatch: simulate/campaign_uniform.json"]


def test_a_corrupted_plan_file_is_a_failed_operation(tmp_path):
    wl, status, reference = run_tiny("sparse-plan", tmp_path)
    path = tmp_path / "plan-1000" / "heatmap_optimized.csv"
    path.write_text(path.read_text() + "\n")
    problems = check_pass(wl, status, reference)["problems"]
    assert problems == {"plan-1000": ["digest mismatch: plan-1000/heatmap_optimized.csv"]}


def test_an_out_of_range_rate_breaks_an_invariant_without_a_reference(tmp_path):
    wl, status, _ = run_tiny("sparse-plan", tmp_path)
    path = tmp_path / "simulate" / "fires_optimized.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows[1][3] = "1.5"
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    problems = check_pass(wl, status, None)["problems"]["simulate"]
    assert any("detection_rate outside [0, 1]" in p for p in problems)


def test_a_missing_file_and_a_nonzero_exit_are_failed_operations(tmp_path):
    wl, status, reference = run_tiny("sparse-plan", tmp_path)
    (tmp_path / "simulate" / "fires_uniform.csv").unlink()
    assert "unreadable output" in check_pass(wl, status, reference)["problems"]["simulate"][0]
    assert check_pass(wl, {"simulate": 2}, reference)["problems"] == {
        "simulate": ["exit status 2"]
    }


def test_a_changed_link_result_is_a_failed_operation(tmp_path):
    wl, status, reference = run_tiny("dense-linkmap", tmp_path)
    wl.owner["pdf"].results["pdf"][0][0] += 1e-12
    problems = check_pass(wl, status, reference)["problems"]
    assert problems == {"pdf": ["digest mismatch: pdf/dump"]}


def test_a_seed_without_reference_still_checks_seed_independent_digests(tmp_path):
    wl, status, reference = run_tiny("sparse-plan", tmp_path)
    reference["seeded"] = {}
    path = tmp_path / "simulate" / "fires_uniform.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows[1][1] = str(int(rows[1][1]) + 1)  # region_id cannot depend on the seed
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    problems = check_pass(wl, status, reference)["problems"]
    assert problems == {"simulate": ["digest mismatch: simulate/seed_invariant"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_full_size_workload_has_reference_digests_for_both_seeds(name, tmp_path):
    wl = make_workload(name, 1234, False, tmp_path)
    assert wl.name == name
    reference = load_reference(wl)
    assert reference is not None and reference["fixed"]
    assert {"1234", "4321"} <= set(reference["seeded"])
    assert load_reference(make_workload(name, 1234, True, tmp_path)) is None
