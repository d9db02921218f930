"""The three benchmark workloads, their inputs and their correctness checks.

A workload turns a benchmark seed into a fixed list of master seeds drawn
from a pool of ``POOL_SIZE`` seeds.  ``reference.json`` holds the final
average mAP of every pool seed for every workload (and arm), so each
operation's result can be checked against it.

An operation is one ``run_sequence`` call, or for ``cli_arms`` one
``xmcl run`` invocation with two arms.  It returns one report per arm.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
from pathlib import Path

POOL_SIZE = 32
# absolute tolerance on final average mAP (percentage points) against the
# per-seed reference; see README.md for how it was chosen
MAP_TOLERANCE = 1.0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
CLI_ARMS = ("no_mpm", "alpha_zero")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seeds_per_run: int  # operations whose reports give the quality metrics
    traced_pairs: int  # untraced + traced pairs whose counts are reported


# the workloads' reasons are in BENCHMARK.json; sizes are chosen so that
# one pass over the seeds fits in a 30-s run at the slow host speed (about
# 1.9, 4.3 and 3.0 s an operation on the 2-vCPU Xeon host)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("two_task_standard", seeds_per_run=14, traced_pairs=3),
        Workload("wide_three_task", seeds_per_run=6, traced_pairs=2),
        Workload("cli_arms", seeds_per_run=8, traced_pairs=2),
    )
}


def master_seeds(workload: Workload, bench_seed: int) -> list[int]:
    """The run's master seeds: a seeded draw without replacement from the pool."""
    return random.Random(bench_seed).sample(range(POOL_SIZE), workload.seeds_per_run)


def wide_three_task_config():
    from xmcl import ExperimentConfig, JmmdSpec, Schedule, standard_task_specs

    specs = [
        dataclasses.replace(s, num_train_ids=200, num_test_ids=200)
        for s in standard_task_specs(num_tasks=3)
    ]
    return ExperimentConfig(
        tasks=specs,
        schedule=Schedule(
            epochs_first_task=4,
            epochs_later_tasks=4,
            warmup_epochs=2,
            base_lr=1e-2,
            warmup_start_lr=1e-3,
            decay_epochs=(30, 50),
            decay_factor=0.1,
        ),
        jmmd=JmmdSpec(alpha=5.0),
        hidden_dims=(64, 64),
        embedding_dim=32,
    )


def config_payload(config) -> dict:
    """An ``xmcl run`` config file that parses back to ``config``."""
    return {
        "tasks": [dataclasses.asdict(t) for t in config.tasks],
        "schedule": {
            **dataclasses.asdict(config.schedule),
            "decay_epochs": list(config.schedule.decay_epochs),
        },
        "cp": dataclasses.asdict(config.cp),
        "jmmd": {
            "layer_set": config.jmmd.layer_set,
            "bandwidths": config.jmmd.bandwidths,
            "alpha": config.jmmd.alpha,
        },
        "encoder": {
            "hidden_dims": list(config.hidden_dims),
            "embedding_dim": config.embedding_dim,
            "temperature": config.temperature,
        },
        "pk": {"p": config.pk_p, "k": config.pk_k},
        "mpm": config.mpm,
        "train": {
            "triplet_margin": config.triplet_margin,
            "label_smoothing": config.label_smoothing,
            "freeze_shared_on_replay": config.freeze_shared_on_replay,
        },
        "eval": {
            "use_cosine": config.use_cosine_eval,
            "swap_direction": config.swap_eval_direction,
        },
    }


def report_bytes(report: dict) -> bytes:
    """The bytes ``xmcl run`` writes for a report."""
    return (json.dumps(report, sort_keys=True, indent=1) + "\n").encode()


class Runner:
    """Builds a workload's inputs once; ``op(seed)`` runs one operation.

    ``op`` returns ``{arm: report_bytes}``; the caller times it.
    """

    def __init__(self, name: str, workdir: Path):
        import xmcl.cli
        import xmcl.trainer
        from xmcl import standard_two_task_config

        self.name = name
        self._trainer = xmcl.trainer
        self._cli = xmcl.cli
        self._workdir = workdir
        self._count = 0
        if name == "two_task_standard":
            self.config = standard_two_task_config()
        elif name == "wide_three_task":
            self.config = wide_three_task_config()
        elif name == "cli_arms":
            self.config = standard_two_task_config()
            workdir.mkdir(parents=True, exist_ok=True)
            self.config_path = workdir / "config.json"
            self.config_path.write_text(json.dumps(config_payload(self.config)))
        else:
            raise KeyError(f"unknown workload {name!r}")

    def op(self, seed: int) -> dict[str, bytes]:
        if self.name != "cli_arms":
            # looked up per call so a traced run goes through the wrapper
            report, _ = self._trainer.run_sequence(self.config, seed)
            return {"full": report_bytes(report)}
        self._count += 1
        out = self._workdir / f"op_{self._count}"
        argv = ["run", "--config", str(self.config_path), "--out", str(out), "--seed", str(seed)]
        for arm in CLI_ARMS:
            argv += ["--arm", arm]
        code = self._cli.main(argv)
        if code != 0:
            raise RuntimeError(f"xmcl run exited with {code}")
        return {arm: (out / arm / f"seed_{seed}" / "report.json").read_bytes() for arm in CLI_ARMS}

    def cleanup(self) -> None:
        """Remove the output directories of finished operations."""
        for path in self._workdir.glob("op_*"):
            shutil.rmtree(path)


# ---------------------------------------------------------------------------
# correctness


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def check_report(report: dict, num_tasks: int, expected_map: float | None) -> list[str]:
    """Problems with one report; an empty list means it passed."""
    problems = []
    if not _finite(report["steps"]) or not _finite(report["loss_history"]):
        problems.append("non-finite metric or loss")
    if len(report["steps"]) != 2 * num_tasks + 1:
        problems.append(f"{len(report['steps'])} grid steps, expected {2 * num_tasks + 1}")
    for entry in report["steps"]:
        rows = [*entry["records"], entry["average"]]
        if any(not r["r1"] <= r["r5"] <= r["r10"] for r in rows):
            problems.append(f"CMC not monotone at step {entry['step']}")
    final = report["steps"][-1]["average"]["mAP"]
    if expected_map is None:
        problems.append("no reference mAP for this seed")
    elif not abs(final - expected_map) <= MAP_TOLERANCE:
        problems.append(f"final avg mAP {final:.4f} vs reference {expected_map:.4f}")
    return problems


def final_maps(report: dict) -> tuple[float, float]:
    """(mean mAP over tasks at the last step, first task's mAP at the last step)."""
    last = report["steps"][-1]
    first_task = report["task_ids"][0]
    task0 = next(r["mAP"] for r in last["records"] if r["task_id"] == first_task)
    return last["average"]["mAP"], task0
