"""Canned experiment configurations used by the demos and the test harness.

The standard two-task scheme draws 50 training and 20 test identities per
task from a 16-d latent space, with a moderate modality gap and a strong
geometry shift between the tasks; it is sized so a full multi-seed ablation
finishes in well under a minute on one core.  The high-gap single-task
scheme maximizes the modality gap (orthogonal sketch transform) to isolate
the effect of the alignment weight.

The learning-rate endpoints here override the Schedule defaults: the
default endpoints suit fine-tuning a pretrained backbone, while these
schemes train a small encoder from scratch.
"""

from __future__ import annotations

import dataclasses

from .data import SynthSpec
from .losses import JmmdSpec
from .trainer import ExperimentConfig, Schedule

STANDARD_GAP = 1.45
HIGH_GAP = 1.57
STANDARD_SHIFT = 1.57
STANDARD_NOISE = 0.2


def standard_schedule() -> Schedule:
    return Schedule(base_lr=1e-2, warmup_start_lr=1e-3)


def standard_task_specs(num_tasks: int = 2) -> list[SynthSpec]:
    """Equally sized tasks whose geometries are spread across the shift range."""
    return [
        SynthSpec(
            task_id=t,
            latent_dim=16,
            feature_dim=64,
            num_train_ids=50,
            num_test_ids=20,
            sketches_per_id=4,
            photos_per_id=4,
            modality_gap=STANDARD_GAP,
            task_shift=STANDARD_SHIFT * t / max(1, num_tasks - 1) if num_tasks > 1 else 0.0,
            noise_sigma=STANDARD_NOISE,
            seed=0,
        )
        for t in range(num_tasks)
    ]


def standard_two_task_config(mpm: bool = True, reverse_order: bool = False) -> ExperimentConfig:
    tasks = standard_task_specs(num_tasks=2)
    if reverse_order:
        tasks = list(reversed(tasks))
    return ExperimentConfig(
        tasks=tasks,
        schedule=standard_schedule(),
        hidden_dims=(64, 64),
        embedding_dim=32,
        mpm=mpm,
    )


def high_gap_single_task_config(alpha: float = JmmdSpec.alpha) -> ExperimentConfig:
    spec = dataclasses.replace(
        standard_task_specs(num_tasks=1)[0],
        modality_gap=HIGH_GAP,
        noise_sigma=0.35,
    )
    return ExperimentConfig(
        tasks=[spec],
        schedule=standard_schedule(),
        jmmd=JmmdSpec(alpha=alpha),
        hidden_dims=(64, 64),
        embedding_dim=32,
        mpm=False,
    )
