"""Replay banks: the lowest-uncertainty sketch and photo per past identity.

After a task finishes training, every training row is scored with the
conformal uncertainty under that task's head.  Each identity keeps at most
one sketch and one photo; a stored row is replaced only when a strictly
lower-uncertainty candidate arrives.  Rows whose prediction set came back
empty (uncertainty 0) carry no usable confidence signal and are rejected
outright.

The banks are arrays: the stored rows are one ``Split`` sorted by identity,
an identity's sketch before its photo, with each row's task and uncertainty
in parallel arrays.  ``admit`` appends the candidates to the stored rows and
keeps the first row of each (identity, modality) after one stable sort by
(identity, modality, uncertainty).  Stored rows come first, so on an exact
tie the incumbent stays, and among tied candidates the first offered wins.

Banks store raw feature vectors, not activations: activations would go
stale as the encoder keeps training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conformal import CpConfig, uncertainties
from .data import MODALITIES, Split, TaskDataset
from .encoder import EncoderState, forward


def _no_rows() -> Split:
    return Split(np.empty((0, 0)), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))


@dataclass
class ReplayBanks:
    """Stored rows sorted by (identity, sketch first); tasks/uncs are per row."""

    rows: Split = field(default_factory=_no_rows)
    tasks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    uncs: np.ndarray = field(default_factory=lambda: np.empty(0))

    def is_empty(self) -> bool:
        return not len(self.rows)

    def task_ids(self) -> list[int]:
        return np.unique(self.tasks).tolist()


def score_task(
    state: EncoderState, task: TaskDataset, cp_config: CpConfig = CpConfig()
) -> np.ndarray:
    """Conformal uncertainty of every training row under the task head (UsageError if none)."""
    return uncertainties(forward(state, task.train.features, task.task_id).probs, cp_config)


def admit(banks: ReplayBanks, rows: Split, uncs: np.ndarray, task_id: int) -> ReplayBanks:
    """Offer candidate rows of one task; each slot keeps its lowest uncertainty."""
    offered = uncs > 0.0
    stored, rows = banks.rows, rows[offered]
    pool = Split(
        np.concatenate([stored.features.reshape(-1, rows.features.shape[1]), rows.features]),
        np.concatenate([stored.ids, rows.ids]),
        np.concatenate([stored.is_sketch, rows.is_sketch]),
    )
    tasks = np.concatenate([banks.tasks, np.full(len(rows), task_id)])
    uncs = np.concatenate([banks.uncs, uncs[offered]])
    order = np.lexsort((uncs, ~pool.is_sketch, pool.ids))
    ids, sketch = pool.ids[order], pool.is_sketch[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (sketch[1:] != sketch[:-1])
    keep = order[first]
    banks.rows, banks.tasks, banks.uncs = pool[keep], tasks[keep], uncs[keep]
    return banks


def ingest_task(
    banks: ReplayBanks,
    state: EncoderState,
    task: TaskDataset,
    cp_config: CpConfig = CpConfig(),
) -> ReplayBanks:
    """Score a finished task's train split and offer every row."""
    return admit(banks, task.train, score_task(state, task, cp_config), task.task_id)


def replay_epoch_batches(
    banks: ReplayBanks,
    p: int,
    k: int,
    rng: np.random.Generator | int,
    task_id: int | None = None,
) -> list[Split]:
    """Batches covering every banked identity once, mirroring a PK epoch.

    Identities are shuffled and chunked into groups of P (one smaller final
    group when they do not divide evenly; all of them when fewer than P
    exist), each identity contributing K rows tiled from its stored
    sketch/photo pair.  With a task id, only identities holding a row of
    that task are replayed, each with its whole pair.
    """
    if banks.is_empty():
        raise RuntimeError("both banks are empty; nothing to replay")
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    stored = banks.rows
    # an identity's rows are consecutive: its first row and how many it has
    _, starts, sizes = np.unique(stored.ids, return_index=True, return_counts=True)
    if task_id is not None:
        from_task = np.logical_or.reduceat(banks.tasks == task_id, starts)
        starts, sizes = starts[from_task], sizes[from_task]
    if not starts.size:
        raise RuntimeError(f"banks hold no identities for task {task_id}")
    perm = rng.permutation(starts.size)
    tile = np.arange(k)
    return [
        stored[(starts[chunk, None] + tile % sizes[chunk, None]).ravel()]
        for chunk in (perm[i : i + p] for i in range(0, perm.size, p))
    ]


# ---------------------------------------------------------------------------
# audit file: one entry per row


def save_banks(banks: ReplayBanks, path: str | Path) -> None:
    """Sketch rows, then photo rows, each ascending by identity."""
    order = np.argsort(~banks.rows.is_sketch, kind="stable")
    rows = banks.rows[order]
    columns = zip(
        banks.tasks[order].tolist(), rows.ids.tolist(), rows.is_sketch.tolist(),
        banks.uncs[order].tolist(), rows.features,
    )
    lines = []
    for task, identity, sketch, unc, features in columns:
        feats = ",".join(format(float(v), ".17g") for v in features)
        modality = MODALITIES[0] if sketch else MODALITIES[1]
        lines.append(
            f'{{"task":{task},"id":{identity},"modality":"{modality}",'
            f'"uncertainty":{format(unc, ".17g")},"features":[{feats}]}}'
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
