"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--src DIR]

Run from the repository root.  Starts fresh worker processes with one BLAS
thread and the library sources (``--src``, by default this checkout's
``src``) on ``PYTHONPATH``: with ``--trace 0`` several set-up
probes and one measuring worker, with ``--trace 1`` one worker that runs
each seed untraced and then traced.  Prints a human-readable summary, one
``detail:`` line for ``suite.py``, and last the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1)
entries of ``BENCHMARK.json``.  Exits 2 when the library sources are not
there, 1 when a worker fails to report, 0 otherwise.
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

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_tmp"
SETUP_PROBES = 6
DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], src: Path, workdir: Path, deadline: float) -> dict:
    """Start a worker, wait for it, and return its last stdout line as JSON."""
    started = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), *args,
           "--workdir", str(workdir), "--started", repr(started)]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(src), cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker did not finish in time: {' '.join(args)}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def source_lines(src: Path) -> dict[str, int]:
    return {p.name: len(p.read_text().splitlines()) for p in sorted((src / "xmcl").glob("*.py"))}


def git_commit(src: Path) -> str | None:
    """The commit of the repository that holds ``src``, if it is one."""
    if not (src.parent / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=src.parent, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: int, src: Path) -> tuple[dict, dict]:
    """(detail dict, {metric: value}) for one run."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK_ROOT / str(os.getpid())
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        probes = []
        if not trace:
            for _ in range(SETUP_PROBES - 1):
                probes.append(spawn([*common, "--setup-only"], src, workdir, deadline))
        detail = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)], src, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass
    probes.append(detail)
    setups = [p["setup_s"] for p in probes]
    detail.update(
        workload=workload, bench_seed=seed, trace=trace, setup_samples=setups,
        setup_wall_samples=[p["setup_wall_s"] for p in probes],
    )
    detail["env"].update(src=str(src), git_commit=git_commit(src), src_loc=source_lines(src))
    if trace:
        return detail, detail["layers"]
    values = {
        "run_s": detail["run_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": detail["peak_rss_mb"],
        "final_avg_mAP": detail["final_avg_mAP"],
        "task0_final_mAP": detail["task0_final_mAP"],
    }
    return detail, values


def print_summary(detail: dict, metrics: dict) -> None:
    print(
        f"workload {detail['workload']}  seed {detail['bench_seed']}  trace {detail['trace']}  "
        f"master seeds {detail['seeds']}  timed operations {detail['ops']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6f} {m['unit']}")
    attempted, failed = detail["attempted"], detail["failed"]
    print(f"  {'error_rate':<45} {failed / attempted:>14.6f} failed/attempted ({failed}/{attempted})")
    for layer in detail["missing_layers"]:
        print(f"  layer missing: {layer}")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    if detail["trace"]:
        print("  every traced value (per operation):")
        for name, value in detail["layers"].items():
            print(f"    {name:<55} {value:>14.3f}")
    print(f"  env {json.dumps(detail['env'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the library sources to measure")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "xmcl" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no xmcl sources under {src} or no BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        detail, values = measure(args.workload, args.seed, args.seconds, args.trace, src)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.trace:
        # a layer that was not called on this workload reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        missing = [n for n, m in metrics.items() if m["value"] is None]
        if missing:
            print(f"error: no operation gave a value for {missing}", file=sys.stderr)
            return 1
    print_summary(detail, metrics)
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
