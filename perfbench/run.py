"""firesat benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sparse-plan --seed 1234 --seconds 40 --trace 0

Run from anywhere inside a checkout that holds `src/firesat`. With
`--trace 0` it measures set-up time in fresh interpreters, then runs the
workload in one fresh worker process and reports the end-to-end metrics.
With `--trace 1` it runs the workload in one worker that alternates
untraced and traced passes, and reports the per-layer metrics and the
tracing overhead.
Every pass's outputs are checked. The last line of standard output is the
result as JSON; the lines before it give the run manifest, the output
digests and each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from worker import HERE, ROOT, WORKLOADS

SETUP_PROBES = 15
DEADLINE_S = 170.0
PROBE = "import firesat.cli, time; print(repr(time.monotonic()))"


def git_sha(root: Path) -> str:
    """HEAD's commit id read from .git directly, or 'unknown' outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(probes: int) -> tuple[list[float], list[float]]:
    """Seconds from launching an interpreter to `import firesat.cli` done, per probe.

    The calibration kernel runs before the first probe and after each one;
    returns the probes' seconds and the kernel's.
    """
    seconds = []
    with calibration.Calibrator() as cal:
        kernel = [cal.kernel_seconds()]
        for _ in range(probes):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
                capture_output=True, text=True, timeout=60,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"import probe failed:\n{proc.stderr}")
            seconds.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
            kernel.append(cal.kernel_seconds())
    return seconds, kernel


def run_worker(args, work: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--work", str(work),
    ]
    if args.tiny:
        cmd.append("--tiny")
    # The CLI's progress lines go nowhere; the worker's errors reach stderr.
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    with open(work / f"record-{args.trace}.json") as f:
        return json.load(f)


def end_to_end(record: dict, setup: tuple[list[float], list[float]]) -> dict:
    """The end-to-end metrics; times are scaled to reference seconds (see calibration.py)."""
    passes = record["passes"]
    walls = calibration.scaled([p["wall_s"] for p in passes], record["kernel_s"])
    return {
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (statistics.median(p["work"] / w for p, w in zip(passes, walls)), "1/s"),
        "setup_s": (statistics.median(calibration.scaled(*setup)), "s"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
    }


def unscaled(record: dict, setup: tuple[list[float], list[float]]) -> dict:
    """Medians of the times as measured, printed next to the scaled metrics."""
    probes, kernel = setup
    return {
        "wall_s": statistics.median(p["wall_s"] for p in record["passes"]),
        "setup_s": statistics.median(probes),
        "kernel_s": statistics.median(kernel + record["kernel_s"]),
    }


def per_layer(record: dict) -> dict:
    layers = record["per_layer"]
    names = layers[0].keys()
    metrics = {name: (statistics.median(m[name] for m in layers), _unit(name)) for name in names}
    metrics["trace.spans_per_pass"] = (record["spans"] / len(layers), "count")
    return metrics


def trace_overhead_s(record: dict) -> float:
    """Median over cycles of traced minus untraced wall time, passes run side by side.

    It is printed, not reported as a metric: on a noisy host it can be
    below zero, and a relative comparison means nothing across a sign change.
    """
    untraced = [p["wall_s"] for p in record["passes"] if not p["traced"]]
    traced = [p["wall_s"] for p in record["passes"] if p["traced"]]
    return statistics.median(t - u for u, t in zip(untraced, traced))


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("fires_per_indexed_sensor"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="firesat benchmark, one workload run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, no reference digests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "firesat" / "cli.py").is_file():
        print(f"error: no firesat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    calibration.pin_to_one_cpu()
    work = HERE / "_work" / f"{args.workload}-s{args.seed}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = None if args.trace else setup_seconds(SETUP_PROBES)
        record = run_worker(args, work, deadline)
        metrics = per_layer(record) if args.trace else end_to_end(record, setup)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = record["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    manifest = {
        "git_sha": git_sha(ROOT),
        **record["manifest"],
        "reference_checked": record["reference_checked"],
        "passes": len(record["passes"]),
        "trace": args.trace,
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("digests " + json.dumps(record["digests"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        print(f"trace.overhead_s {trace_overhead_s(record):.6g} s (not a metric)")
    else:
        for name, value in unscaled(record, setup).items():
            print(f"unscaled.{name} {value:.6g} s (not a metric)")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
