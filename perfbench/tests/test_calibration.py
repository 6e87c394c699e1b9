"""The calibration kernel's helper process and the scaling arithmetic."""

import pytest

import calibration
import run


def test_each_time_is_scaled_by_the_kernel_runs_around_it():
    ref = calibration.REFERENCE_S
    times = [1.0, 3.0]
    assert calibration.scaled(times, [ref, ref, ref]) == times
    half = calibration.scaled(times, [ref, ref / 3, ref])
    assert half == pytest.approx([t * 1.5 ** calibration.ELASTICITY for t in times])


def test_helper_answers_and_stops():
    with calibration.Calibrator() as cal:
        seconds = [cal.kernel_seconds() for _ in range(2)]
    assert all(s > 0 for s in seconds)
    assert cal.proc.poll() is not None


def test_end_to_end_reports_medians_of_scaled_times(monkeypatch):
    monkeypatch.setattr(calibration, "ELASTICITY", 1.0)
    ref = calibration.REFERENCE_S
    record = {
        "passes": [{"wall_s": 2.0, "work": 10.0}, {"wall_s": 4.0, "work": 10.0},
                   {"wall_s": 3.0, "work": 10.0}],
        "kernel_s": [2 * ref, 2 * ref, ref / 2, ref / 2],
        "peak_rss_kb": 2048,
    }
    metrics = run.end_to_end(record, ([0.5, 0.7, 0.6], [2 * ref] * 4))
    # The brackets average 2, 1.25 and 0.5 reference kernels: walls 1.0, 3.2, 6.0.
    assert metrics["wall_s"] == (pytest.approx(3.2), "s")
    assert metrics["work_per_s"] == (pytest.approx(10.0 / 3.2), "1/s")
    assert metrics["setup_s"] == (pytest.approx(0.3), "s")
    assert metrics["peak_rss_mb"] == (2.0, "MB")
