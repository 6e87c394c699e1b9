"""Host-speed calibration for the timed end-to-end metrics.

The shared host the benchmark runs on changes speed by 20-40% over seconds
to minutes, which is larger than any bound a regression gate can use. So a
run also times a fixed calibration kernel, before and after each set-up
probe and each pass, and scales each measured time by how fast the kernel
ran on either side of it:

    scaled = measured * (REFERENCE_S / mean(kernel before, kernel after)) ** ELASTICITY

The metrics are medians of the scaled times. The whole run is pinned to one
CPU: the host slows each virtual CPU on its own, and unpinned, the kernel
often ran on the other CPU and its times barely correlated with the pass
next to it (0.1-0.4); pinned, they correlated at 0.7.

`ELASTICITY` is how strongly the workloads' time follows the kernel's: log-log
fits gave slopes of 0.58-0.82 across runs and 0.73 across pinned passes.
Scaling by the full ratio over-corrects.

`REFERENCE_S` is the kernel's median time on the host where the baseline was
recorded, so a scaled time reads in seconds of that host. The kernel uses
numpy and scipy only, never firesat, so a change to firesat cannot move it.
It builds and queries a KD-tree, as the campaign's hot path does, evaluates
one small numpy expression per point over an 11 000-row table, as the
per-fire resolution does, and streams arrays larger than the last-level
cache through memory. Of the kernels tried (pure-Python dict work, random
draws, sorting, a large KD-tree, each part alone), this mix tracked the
workloads' drift most consistently.

The kernel runs in a helper process, so that its arrays do not count in the
measured process's peak memory. Each request is one line on the helper's
standard input; it answers with the kernel's wall time in seconds.

    with Calibrator() as cal:
        seconds = cal.kernel_seconds()
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# About the kernel's median time on a 2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1. Changing it rescales every scaled metric; leave
# it fixed.
REFERENCE_S = 0.21
ELASTICITY = 0.7

STREAM_FLOATS = 6_000_000  # three arrays of 48 MB: together past a 105 MB L3


def scaled(times: list[float], kernel_seconds: list[float]) -> list[float]:
    """Each time in reference seconds; kernel runs i and i + 1 bracket time i."""
    return [
        t * (REFERENCE_S / ((before + after) / 2.0)) ** ELASTICITY
        for t, before, after in zip(times, kernel_seconds, kernel_seconds[1:])
    ]


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The host slows each virtual CPU on its own, so the kernel only tracks
    the measured code when both run on the same CPU. Everything the
    benchmark runs is sequential, so one CPU costs nothing.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Calibrator:
    """The calibration kernel, run on request in a helper process."""

    def __enter__(self) -> Calibrator:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def kernel_seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited with status {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    """Run the kernel once per line read from stdin; print its seconds."""
    import numpy as np
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(20220803)
    points, queries = rng.random((200_000, 2)), rng.random((5_000, 2))
    centres, weights = rng.random((11_000, 2)), rng.random(11_000)
    targets = rng.random((500, 2))
    a, b = rng.random(STREAM_FLOATS), rng.random(STREAM_FLOATS)
    out = np.empty_like(a)

    def kernel() -> float:
        t0 = time.perf_counter()
        cKDTree(points).query(queries)
        total = 0.0
        for x, y in targets:  # one small numpy expression per point, as per fire
            dx = np.maximum(np.abs(centres[:, 0] - x) - 0.005, 0.0)
            dy = np.maximum(np.abs(centres[:, 1] - y) - 0.005, 0.0)
            near = dx * dx + dy * dy <= 0.0004
            if near.any():
                total += float(weights[near].mean())
        for _ in range(2):
            np.add(a, b, out=out)
        return time.perf_counter() - t0

    kernel()  # touch every page before the first timed request
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    serve()
