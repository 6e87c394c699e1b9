"""Record the reference output digests that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs one full-size pass of every workload for the default seed and a
held-out seed and writes perfbench/reference.json. Digests that must not
depend on the seed are required to agree between the two seeds. Re-record
only when a change is meant to alter the program's outputs, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from run import git_sha
from worker import HERE, REFERENCE, ROOT, WORKLOADS, check_pass, import_firesat, make_workload

DEFAULT_SEED = 1234  # the sample config's seed
HELD_OUT_SEED = 4321


def main() -> int:
    import_firesat()
    work = HERE / "_work" / "reference"
    workloads = {}
    for name in WORKLOADS:
        fixed = None
        seeded = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = make_workload(name, seed, False, work)
            wl.prepare()
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI's progress lines
                status = wl.run_pass()
            check = check_pass(wl, status, None)
            if check["problems"]:
                raise SystemExit(f"{name} seed {seed}: {check['problems']}")
            if fixed is not None and check["fixed"] != fixed:
                raise SystemExit(f"{name}: seed-independent digests differ between seeds")
            fixed = check["fixed"]
            seeded[str(seed)] = check["seeded"]
            print(f"{name} seed {seed}: {len(fixed)} fixed, {len(check['seeded'])} seeded digests")
        workloads[name] = {"fixed": fixed, "seeded": seeded}
    shutil.rmtree(work, ignore_errors=True)
    payload = {"program_git_sha": git_sha(ROOT), "workloads": workloads}
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
