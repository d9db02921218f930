#!/usr/bin/env python3
"""Driving the CLI end to end: gen-data, run with two arms, then report.

Everything lands in a throwaway directory; rerunning reproduces every file
byte for byte.  The script exits with the first failing step's exit code.
"""

import json
import sys
import tempfile
from pathlib import Path

from xmcl.cli import main


def step(*argv: str) -> None:
    code = main(list(argv))
    if code != 0:
        sys.exit(code)


work = Path(tempfile.mkdtemp(prefix="xmcl-demo-"))
print(f"working in {work}\n")

# 1. render one synthetic task to a file, then point the config at it
spec = {
    "task_id": 0,
    "latent_dim": 6,
    "feature_dim": 16,
    "num_train_ids": 12,
    "num_test_ids": 6,
    "sketches_per_id": 3,
    "photos_per_id": 3,
    "modality_gap": 1.4,
    "noise_sigma": 0.2,
    "seed": 0,
}
(work / "task0.spec.json").write_text(json.dumps(spec))
step("gen-data", "--spec", str(work / "task0.spec.json"), "--out", str(work / "task0.jsonl"))

config = {
    "tasks": [
        {"path": str(work / "task0.jsonl")},
        {**spec, "task_id": 1, "task_shift": 1.5},
    ],
    "schedule": {
        "epochs_first_task": 10,
        "epochs_later_tasks": 6,
        "warmup_epochs": 2,
        "base_lr": 1e-2,
        "warmup_start_lr": 1e-3,
        "decay_epochs": [8],
    },
    "encoder": {"hidden_dims": [16, 16], "embedding_dim": 8},
    "pk": {"p": 4, "k": 2},
    "arms": ["full", "no_mpm"],
    "seed": 0,
    "seeds": 2,
}
(work / "config.json").write_text(json.dumps(config, indent=2))

# 2. run both arms across two seeds
print()
step("run", "--config", str(work / "config.json"), "--out", str(work / "runs"))

# 3. score a few probability vectors through the same conformal rule
(work / "pi.jsonl").write_text("[0.6,0.3,0.1]\n[0.9,0.05,0.05]\n")
print()
step("score", "--input", str(work / "pi.jsonl"))

# 4. summarize medians over seeds per arm
print()
step("report", str(work / "runs"))
