"""Regenerate reference.json: the final average mAP of every pool seed.

    python3 perfbench/make_reference.py

Run from the repository root.  Each (workload, seed) operation runs once in
a spawned worker with one BLAS thread, one worker per usable CPU; the file maps workload -> arm ->
seed -> final average mAP (percent, full precision).  Only regenerate it
when a change is meant to alter training results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from run import worker_env  # noqa: E402


def _one(task: tuple[str, int]) -> tuple[str, int, dict[str, float]]:
    name, seed = task
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        runner = workloads.Runner(name, Path(tmp))
        reports = runner.op(seed)
    return name, seed, {arm: workloads.final_maps(json.loads(raw))[0] for arm, raw in reports.items()}


def main() -> int:
    os.environ.update(worker_env(ROOT / "src"))  # spawned workers load numpy with one BLAS thread
    tasks = [(name, s) for name in workloads.WORKLOADS for s in range(workloads.POOL_SIZE)]
    reference: dict = {name: {} for name in workloads.WORKLOADS}
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        for name, seed, maps in pool.imap_unordered(_one, tasks):
            for arm, value in maps.items():
                reference[name].setdefault(arm, {})[str(seed)] = value
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
