"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py                       # all workloads, seeds 1..10
    python3 perfbench/sweep.py --seeds 1234,4321 --workloads dense-linkmap
    python3 perfbench/sweep.py --trace 1 --seeds 1234
    python3 perfbench/sweep.py --out perfbench/results/BENCH_<date>_<sha>.json

Each run is one `run.py` process with BENCHMARK.json's `run_seconds`. For
every workload and metric it prints the median, the quartiles, the spread
(interquartile distance over the median) and, for end-to-end metrics, the
bound from BENCHMARK.json; `!` marks a spread above a third of the bound.
It also prints the error rate over all runs and exits non-zero if any
operation failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    manifest = json.loads(next(l for l in lines if l.startswith("manifest "))[len("manifest "):])
    result = json.loads(lines[-1])
    for line in lines:  # printed as text, not metrics
        if line.startswith("trace.overhead_s "):
            result["trace_overhead_s"] = float(line.split()[1])
        elif line.startswith("unscaled."):
            name, value = line.split()[:2]
            result.setdefault("unscaled", {})[name[len("unscaled."):]] = float(value)
    return result, manifest


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="all workloads over several seeds")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default=",".join(str(i) for i in range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the runs and their summary as JSON")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    manifests: dict[str, dict] = {}
    for w in workloads:
        for seed in seeds:
            result, manifests[w] = run_once(w, seed, spec["run_seconds"], args.trace)
            runs[w].append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if not args.trace)
            print(f"# {w} seed {seed}: correct={result['correct']} {values}", flush=True)

    summary: dict[str, dict] = {}
    total_failed = 0
    for w in workloads:
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        total_failed += failed
        print(f"\n{w}: {len(runs[w])} runs, error_rate {failed / attempted:.3g} "
              f"({failed} failed of {attempted} attempted)")
        summary[w] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name, first in runs[w][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = " !" if bound is not None and spread > bound / 3 else ""
            bound_text = f" bound {bound:.3g}" if bound is not None else ""
            print(f"  {name:40s} {med:12.6g} {first['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f}{bound_text}{flag}")
            summary[w]["metrics"][name] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
            }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "date": datetime.date.today().isoformat(),
            "run_seconds": spec["run_seconds"],
            "trace": args.trace,
            "seeds": seeds,
            "manifests": manifests,
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
