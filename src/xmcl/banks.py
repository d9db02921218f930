"""Replay banks: the lowest-uncertainty sketch and photo per past identity.

After a task finishes training, every training sample is scored with the
conformal uncertainty under that task's head.  Each identity keeps at most
one sketch and one photo; a stored sample is replaced only when a strictly
lower-uncertainty candidate arrives (exact ties keep the incumbent).
Samples whose prediction set came back empty (uncertainty 0) carry no
usable confidence signal and are rejected outright.

Banks store raw feature vectors, not activations: activations would go
stale as the encoder keeps training.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conformal import CpConfig, uncertainties
from .data import Sample, TaskDataset, features_of
from .encoder import EncoderState, forward

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BankEntry:
    sample: Sample
    uncertainty: float
    task_id: int


@dataclass
class ReplayBanks:
    sketch: dict[int, BankEntry] = field(default_factory=dict)
    photo: dict[int, BankEntry] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.sketch and not self.photo

    def identities(self, task_id: int | None = None) -> list[int]:
        ids = set(self.sketch) | set(self.photo)
        if task_id is not None:
            ids = {
                i
                for i in ids
                if (i in self.sketch and self.sketch[i].task_id == task_id)
                or (i in self.photo and self.photo[i].task_id == task_id)
            }
        return sorted(ids)

    def task_ids(self) -> list[int]:
        return sorted({e.task_id for e in (*self.sketch.values(), *self.photo.values())})


def score_task(
    state: EncoderState, task: TaskDataset, cp_config: CpConfig = CpConfig()
) -> list[tuple[Sample, float]]:
    """Conformal uncertainty of every training sample under the task head."""
    if task.task_id not in state.heads:
        raise RuntimeError(f"task {task.task_id} has no registered head")
    if not task.train:
        return []
    stack = forward(state, features_of(task.train), task.task_id)
    return list(zip(task.train, uncertainties(stack.probs, cp_config).tolist()))


def update_bank(
    banks: ReplayBanks, sample: Sample, unc: float, task_id: int
) -> ReplayBanks:
    """Offer one candidate; admit it if its slot is empty or strictly better."""
    if unc <= 0.0:
        logger.debug("rejecting identity %d %s: empty prediction set", sample.identity, sample.modality)
        return banks
    bank = banks.sketch if sample.modality == "sketch" else banks.photo
    incumbent = bank.get(sample.identity)
    if incumbent is None or unc < incumbent.uncertainty:
        bank[sample.identity] = BankEntry(sample=sample, uncertainty=unc, task_id=task_id)
    return banks


def ingest_task(
    banks: ReplayBanks,
    state: EncoderState,
    task: TaskDataset,
    cp_config: CpConfig = CpConfig(),
) -> ReplayBanks:
    """Score a finished task's train split and offer every sample."""
    for sample, unc in score_task(state, task, cp_config):
        update_bank(banks, sample, unc, task.task_id)
    return banks


def replay_epoch_batches(
    banks: ReplayBanks,
    p: int,
    k: int,
    rng: np.random.Generator | int,
    task_id: int | None = None,
) -> list[list[Sample]]:
    """Batches covering every banked identity once, mirroring a PK epoch.

    Identities are shuffled and chunked into groups of P (one smaller final
    group when they do not divide evenly; all of them when fewer than P
    exist), each identity contributing K samples tiled from its stored
    sketch/photo pair.
    """
    if banks.is_empty():
        raise RuntimeError("both banks are empty; nothing to replay")
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    ids = banks.identities(task_id)
    if not ids:
        raise RuntimeError(f"banks hold no identities for task {task_id}")
    order = [ids[int(i)] for i in rng.permutation(len(ids))]
    chunks = [order[i : i + p] for i in range(0, len(order), p)] or [order]
    batches = []
    for chunk in chunks:
        batch: list[Sample] = []
        for identity in chunk:
            pool = []
            if identity in banks.sketch:
                pool.append(banks.sketch[identity].sample)
            if identity in banks.photo:
                pool.append(banks.photo[identity].sample)
            batch.extend(pool[j % len(pool)] for j in range(k))
        batches.append(batch)
    return batches


# ---------------------------------------------------------------------------
# audit file: one entry per row


def save_banks(banks: ReplayBanks, path: str | Path) -> None:
    lines = []
    for modality, bank in (("sketch", banks.sketch), ("photo", banks.photo)):
        for identity in sorted(bank):
            e = bank[identity]
            feats = ",".join(format(float(v), ".17g") for v in e.sample.features)
            lines.append(
                f'{{"task":{e.task_id},"id":{identity},"modality":"{modality}",'
                f'"uncertainty":{format(e.uncertainty, ".17g")},"features":[{feats}]}}'
            )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_banks(path: str | Path) -> ReplayBanks:
    banks = ReplayBanks()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            continue
        row = json.loads(raw)
        sample = Sample(
            identity=int(row["id"]),
            modality=row["modality"],
            features=np.asarray(row["features"], dtype=np.float64),
            split="train",
        )
        entry = BankEntry(sample=sample, uncertainty=float(row["uncertainty"]), task_id=int(row["task"]))
        bank = banks.sketch if sample.modality == "sketch" else banks.photo
        bank[sample.identity] = entry
    return banks
