"""Property tests: tiny run_sequence configs, edge cases included.

Each drawn config has one to three tasks with a handful of identities.  The
draws cover PK batches with k = 1, tasks whose train split holds one
modality only (single-modality batches and banks), replay chunks of one
identity, zero-epoch tasks, and P above a task's identity count, which must
fail before training with the documented error.  Hypothesis profiles are
registered in conftest.py.
"""

import dataclasses
import json
import logging
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, example, given, strategies as st  # noqa: E402

from xmcl.data import SynthSpec, generate_synthetic_task, save_task  # noqa: E402
from xmcl.losses import JmmdSpec  # noqa: E402
from xmcl.trainer import ExperimentConfig, Schedule, run_sequence  # noqa: E402


@st.composite
def tiny_configs(draw):
    """(config builder, the task files it needs) for a tiny experiment."""
    pk_p = draw(st.integers(2, 4))
    pk_k = draw(st.integers(1, 3))
    first, later = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    schedule = Schedule(
        epochs_first_task=first,
        epochs_later_tasks=later,
        warmup_epochs=draw(st.integers(0, max(first, later))),
        base_lr=1e-2,
        warmup_start_lr=1e-3,
        decay_epochs=(2,),
    )
    tasks = []
    for t in range(draw(st.integers(1, 3))):
        spec = SynthSpec(
            task_id=t,
            latent_dim=3,
            feature_dim=6,
            num_train_ids=max(1, pk_p + draw(st.integers(-1, 4))),
            num_test_ids=draw(st.integers(1, 3)),
            sketches_per_id=draw(st.integers(1, 2)),
            photos_per_id=draw(st.integers(1, 2)),
            modality_gap=1.0,
            task_shift=0.5 * t,
            noise_sigma=0.2,
            seed=draw(st.integers(0, 3)),
        )
        keep = draw(st.sampled_from(["both", "both", "sketch", "photo"]))
        tasks.append((spec, keep))
    settings = dict(
        schedule=schedule,
        jmmd=JmmdSpec(alpha=draw(st.sampled_from([0.0, 5.0]))),
        hidden_dims=(draw(st.integers(3, 6)),),
        embedding_dim=draw(st.integers(2, 4)),
        pk_p=pk_p,
        pk_k=pk_k,
        mpm=draw(st.booleans()),
    )
    return tasks, settings, draw(st.integers(0, 2**16))


def build(tasks, settings, directory: Path) -> ExperimentConfig:
    """The config; a one-modality task goes through a task file without the other modality."""
    entries = []
    for spec, keep in tasks:
        if keep == "both":
            entries.append(spec)
            continue
        task = generate_synthetic_task(spec)
        rows = task.train.is_sketch if keep == "sketch" else ~task.train.is_sketch
        path = directory / f"task{spec.task_id}.jsonl"
        save_task(dataclasses.replace(task, train=task.train[rows]), path)
        entries.append(str(path))
    return ExperimentConfig(tasks=entries, **settings)


def check_report(report, exp, config, num_tasks):
    for step in report["steps"]:
        assert len(step["records"]) == num_tasks
        for row in [*step["records"], step["average"]]:
            values = [row[m] for m in ("mAP", "r1", "r5", "r10")]
            assert all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values), row
            assert row["r1"] <= row["r5"] <= row["r10"], row
    for losses in report["loss_history"].values():
        assert all(math.isfinite(v) for v in losses)
    stored = exp.banks.rows
    slots = list(zip(stored.ids.tolist(), stored.is_sketch.tolist()))
    # one row per (identity, modality), by identity with the sketch first
    assert slots == sorted(set(slots), key=lambda slot: (slot[0], not slot[1]))
    for identity, task_id in zip(stored.ids.tolist(), exp.banks.tasks.tolist()):
        assert identity in exp.head_ids[task_id]
    if not config.mpm:
        assert exp.banks.is_empty()


def record_events(tasks, settings, budgets):
    event(f"{len(tasks)} task(s)")
    if settings["pk_k"] == 1:
        event("k = 1")
    if any(keep != "both" for _, keep in tasks):
        event("single-modality task")
    if 0 in budgets:
        event("zero-epoch task")
    p = settings["pk_p"]
    replays = settings["mpm"] and len(tasks) > 1 and budgets[0] > 0 and budgets[1] > 1
    if replays and tasks[0][0].num_train_ids % p == 1:
        event("one-identity replay chunk")


def tiny_spec(task_id, num_train_ids):
    return SynthSpec(
        task_id=task_id, latent_dim=3, feature_dim=6, num_train_ids=num_train_ids,
        num_test_ids=2, sketches_per_id=2, photos_per_id=1, modality_gap=1.0,
        task_shift=0.5 * task_id, noise_sigma=0.2, seed=1,
    )


def tiny_settings(first, later, k=1):
    schedule = Schedule(
        epochs_first_task=first, epochs_later_tasks=later, warmup_epochs=0,
        base_lr=1e-2, warmup_start_lr=1e-3, decay_epochs=(2,),
    )
    return dict(schedule=schedule, jmmd=JmmdSpec(), hidden_dims=(4,), embedding_dim=3,
                pk_p=2, pk_k=k, mpm=True)


@given(tiny_configs())
# three tasks, k = 1; task 0's five identities replay in chunks of 2, 2 and 1;
# tasks 1 and 2 train, and bank, one modality each
@example(([(tiny_spec(0, 5), "both"), (tiny_spec(1, 2), "sketch"), (tiny_spec(2, 3), "photo")],
          tiny_settings(2, 2), 0))
# zero-epoch later tasks, one of them with fewer identities than P
@example(([(tiny_spec(0, 3), "both"), (tiny_spec(1, 1), "both"), (tiny_spec(2, 2), "photo")],
          tiny_settings(2, 0, k=2), 1))
def test_tiny_runs_are_finite_consistent_and_reproducible(case):
    tasks, settings, seed = case
    logging.disable(logging.WARNING)  # skipped terms are expected here
    try:
        with tempfile.TemporaryDirectory() as tmp:
            config = build(tasks, settings, Path(tmp))
            schedule = settings["schedule"]
            budgets = [schedule.epochs_first_task] + [schedule.epochs_later_tasks] * (len(tasks) - 1)
            train_ids = [spec.num_train_ids for spec, _ in tasks]
            if any(b > 0 and n < settings["pk_p"] for b, n in zip(budgets, train_ids)):
                event("P above a task's identity count")
                with pytest.raises(ValueError, match=r"pk_p=\d+ needs at least \d+ train identities"):
                    run_sequence(config, seed)
                return
            report, exp = run_sequence(config, seed)
            record_events(tasks, settings, budgets)
            again, _ = run_sequence(build(tasks, settings, Path(tmp)), seed)
    finally:
        logging.disable(logging.NOTSET)
    check_report(report, exp, config, len(tasks))
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)
