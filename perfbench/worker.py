"""One measuring process: set up a workload, warm up, run timed operations.

Started by ``run.py``, which puts one-thread settings for every BLAS pool
in its environment.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR --started T [--setup-only]

``--started`` is the ``time.monotonic()`` reading taken by the parent just
before it started this process; set-up time runs from there until the
workload's inputs are built.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tracer import Tracer, missing_layers  # noqa: E402

# fast-state time of HostScale's kernel on the 2-vCPU Xeon host the
# baseline was taken on; it only fixes the unit of the scaled times
PROBE_REFERENCE_S = 0.0205

LOSS_LAYERS = (
    "losses.triplet_loss_grad",
    "losses.jmmd_with_grad",
    "losses.id_loss_grad",
    "losses.i2tce_loss_grad",
)


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Harness:
    """Runs operations, checks their reports and tallies failures."""

    def __init__(self, runner, reference: dict):
        self.runner = runner
        self.reference = reference.get(runner.name, {})
        self.num_tasks = len(runner.config.tasks)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, seed: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"seed {seed}: {message}")

    def run(self, seed: int, tracer=None, expect: dict | None = None):
        """(seconds, {arm: report bytes}) for one checked operation; (None, None) if it raised."""
        gc.collect()
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                reports = self.runner.op(seed)
                elapsed = time.perf_counter() - t0
            else:
                with tracer.active():
                    t0 = time.perf_counter()
                    reports = self.runner.op(seed)
                    elapsed = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self._fail(seed, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None, None
        finally:
            self.runner.cleanup()
        problems = []
        for arm, raw in reports.items():
            expected = self.reference.get(arm, {}).get(str(seed))
            problems += [f"{arm}: {p}" for p in workloads.check_report(json.loads(raw), self.num_tasks, expected)]
            if expect is not None and expect.get(arm) != raw:
                problems.append(f"{arm}: traced report differs from untraced report")
        if problems:
            self._fail(seed, "; ".join(problems))
        return elapsed, reports


class HostScale:
    """Converts measured seconds to seconds at the reference host speed.

    The hosts this runs on switch between speed states about 1.5x apart,
    every few seconds to a minute, whatever the code does.  A fixed numpy +
    Python kernel timed between operations tracks that state: an
    operation's time is multiplied by ``PROBE_REFERENCE_S`` over the mean of
    the kernel times just before and just after it.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 64))
        self._b = rng.normal(size=(64, 64))
        self.last = self.probe()

    def _kernel(self) -> None:
        import numpy as np

        for _ in range(1000):
            np.tanh(self._a @ self._b)
        x = 0
        for i in range(100_000):
            x += i * i

    def probe(self) -> float:
        """Mean of three timings of the fixed kernel.

        The mean tracks a state change during the probe better than the
        minimum: over 94 ``wide_three_task`` operations, scaled per-operation
        times spread (log s.d.) 0.082 with the mean, 0.098 with the minimum
        and 0.133 unscaled.
        """
        total = 0.0
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            total += time.perf_counter() - t0
        return total / 3

    def factor(self) -> float:
        """Scale factor for the operation that just ended."""
        now = self.probe()
        factor = PROBE_REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return factor


def _median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def measure_plain(args, harness: Harness, seeds: list[int], host: HostScale) -> dict:
    """End-to-end metrics: every seed once, then more operations until time is up."""
    wall, scaled, first_pass = [], [], []
    begin = time.perf_counter()
    i = 0
    while i < len(seeds) or time.perf_counter() - begin < args.seconds:
        seconds, reports = harness.run(seeds[i % len(seeds)])
        factor = host.factor()
        if seconds is not None:
            wall.append(seconds)
            scaled.append(seconds * factor)
        if i < len(seeds) and reports is not None:
            first_pass.append([workloads.final_maps(json.loads(r)) for r in reports.values()])
        i += 1
    # one value per seed: the mean over its arms
    per_seed = [[sum(col) / len(col) for col in zip(*maps)] for maps in first_pass]
    return {
        "ops": len(scaled),
        "run_s": _median_or_none(scaled),
        "run_wall_s": _median_or_none(wall),
        "op_wall_s": wall,
        "op_scaled_s": scaled,
        "final_avg_mAP": _median_or_none(v[0] for v in per_seed),
        "task0_final_mAP": _median_or_none(v[1] for v in per_seed),
    }


def _span_stats(tracer: Tracer) -> dict[str, float]:
    """One traced operation's span stats, by ``<layer>.<stat>`` name."""
    out = {f"{key}.calls": n for key, n in tracer.arm_calls.items()}
    for name, calls in tracer.calls.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_ms"] = 1000.0 * tracer.total[name]
        out[f"{name}.self_ms"] = 1000.0 * tracer.self_time[name]
    return out


def measure_traced(args, harness: Harness, seeds: list[int], host: HostScale, fixed: int) -> dict:
    """Per-layer metrics: each seed untraced, then traced, until time is up.

    Times are medians over every traced operation.  Counts are means over
    the first ``fixed`` seeds, so they repeat exactly for a given seed list.
    """
    wall, scaled, traced = [], [], []
    begin = time.perf_counter()
    i = 0
    while i < fixed or time.perf_counter() - begin < args.seconds:
        seed = seeds[i % len(seeds)]
        seconds, reports = harness.run(seed)
        factor = host.factor()
        if seconds is not None:
            wall.append(seconds)
            scaled.append(seconds * factor)
        tracer = Tracer()
        seconds, _ = harness.run(seed, tracer=tracer, expect=reports)
        factor = host.factor()
        if seconds is not None:
            traced.append((seconds, seconds * factor, tracer))
        i += 1
    if not traced or not scaled:
        return {"ops": len(traced), "layers": {}}

    stats = [_span_stats(tr) for _, _, tr in traced]
    counted = [tr for _, _, tr in traced[:fixed]]
    layers = {}
    for key in sorted({k for s in stats for k in s}):
        if key.endswith(".calls"):
            layers[key] = sum(s.get(key, 0) for s in stats[:fixed]) / len(counted)
        else:
            layers[key] = statistics.median(s.get(key, 0.0) for s in stats)
    offered = sum(t.offered for t in counted)
    admitted = sum(t.admitted for t in counted)
    sizes = [size for t in counted for size in t.set_sizes]
    layers.update({
        "trainer.skipped_terms": sum(t.skipped_terms for t in counted) / len(counted),
        "banks.offered": offered / len(counted),
        "banks.admitted": admitted / len(counted),
        "banks.admit_ratio": admitted / offered if offered else 0.0,
        "conformal.set_size_mean": sum(sizes) / len(sizes) if sizes else 0.0,
        "metrics.queries": sum(t.queries for t in counted) / len(counted),
        "losses.share_pct": statistics.median(
            100.0 * sum(s.get(f"{n}.total_ms", 0.0) for n in LOSS_LAYERS) / (1000.0 * t)
            for (t, _, _), s in zip(traced, stats)
        ),
        "metrics.evaluate.share_pct": statistics.median(
            100.0 * s.get("metrics.evaluate.total_ms", 0.0) / (1000.0 * t)
            for (t, _, _), s in zip(traced, stats)
        ),
        "run_wall_s": statistics.median(wall),
        "trace.overhead_s": statistics.median(s for _, s, _ in traced) - statistics.median(scaled),
    })
    return {"ops": len(traced), "layers": layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import xmcl  # noqa: F401 - set-up time includes the import

    runner = workloads.Runner(args.workload, Path(args.workdir))
    setup_wall_s = time.monotonic() - args.started
    host = HostScale()
    setup = {"setup_s": setup_wall_s * PROBE_REFERENCE_S / host.last, "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.master_seeds(workload, args.seed)
    harness = Harness(runner, workloads.load_reference())
    harness.run(seeds[0])  # warm-up, untimed
    host.factor()
    if args.trace:
        result = measure_traced(args, harness, seeds, host, workload.traced_pairs)
    else:
        result = measure_plain(args, harness, seeds, host)
    result.update(
        setup,
        seeds=seeds,
        missing_layers=missing_layers(),
        attempted=harness.attempted,
        failed=harness.failed,
        problems=harness.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
