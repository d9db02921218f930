"""Replay banks: the lowest-uncertainty sketch and photo per past identity.

After a task finishes training, every training row is scored with the
conformal uncertainty under that task's head, a block of rows at a time;
this is the only place that blocks rows for scoring.
Each identity keeps at most one sketch and one photo; a stored row is
replaced only when a strictly lower-uncertainty candidate arrives.  Rows whose prediction set came back
empty (uncertainty 0) carry no usable confidence signal and are rejected
outright.

The banks are arrays: the stored rows are one ``Split`` sorted by identity,
an identity's sketch before its photo, with each row's task and uncertainty
in parallel arrays.  ``admit`` appends the candidates' identities,
modalities and uncertainties to the stored rows' and keeps the first row of
each (identity, modality) after one stable sort by (identity, modality,
uncertainty).  Stored rows come first, so on an exact tie the incumbent
stays, and among tied candidates the first offered wins.  Only the kept
rows' features are then gathered, into one new array that the banks own.

Banks store raw feature vectors, not activations: activations would go
stale as the encoder keeps training.  The replay sampler draws one past
task's identities and returns index arrays into the stored rows, as the PK
sampler does into a split, so the trainer gathers one batch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conformal import CpConfig, uncertainties
from .data import MODALITIES, Split, TaskDataset
from .encoder import EncoderState, forward

# rows per block in score_task; small blocks keep the logits, probabilities
# and sorted scores well below the forward pass's activations
_ROW_BLOCK = 64


@dataclass(eq=False)
class ReplayBanks:
    """Stored rows sorted by (identity, sketch first); tasks/uncs are per row."""

    rows: Split = field(default_factory=lambda: Split.empty(0))
    tasks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    uncs: np.ndarray = field(default_factory=lambda: np.empty(0))

    def is_empty(self) -> bool:
        return not len(self.rows)

    def task_ids(self) -> list[int]:
        return np.unique(self.tasks).tolist()


def score_task(state: EncoderState, task: TaskDataset, cp_config: CpConfig) -> np.ndarray:
    """Conformal uncertainty of every training row under the task head.

    Raises UsageError when the task has no registered head.

    Rows go through the forward pass and the scoring in blocks of
    _ROW_BLOCK, the last block taking the remainder, so no N x C
    logits or probabilities are built.  A block's values equal the whole
    split's when the BLAS computes the block's cosine product with the same
    kernel as the whole matrix's.  OpenBLAS 0.3.31 on an x86-64 Xeon did so
    for heads of 19 to 200 identities, the standard 50 and the wide 200
    among them; with fewer, or with 300 or more, a value can differ in its
    last bit.
    """
    features = task.train.features
    unc = np.empty(len(features))
    starts = list(range(0, max(len(features) - _ROW_BLOCK + 1, 1), _ROW_BLOCK))
    for start, stop in zip(starts, [*starts[1:], len(features)]):
        probs = forward(state, features[start:stop], task.task_id).probs
        unc[start:stop] = uncertainties(probs, cp_config)
    return unc


def admit(banks: ReplayBanks, rows: Split, uncs: np.ndarray, task_id: int) -> ReplayBanks:
    """Offer candidate rows of one task; each slot keeps its lowest uncertainty."""
    stored = banks.rows
    offered = np.flatnonzero(uncs > 0.0)
    # pool index i < len(stored) is stored row i, else offered row i - len(stored)
    ids = np.concatenate([stored.ids, rows.ids[offered]])
    sketch = np.concatenate([stored.is_sketch, rows.is_sketch[offered]])
    tasks = np.concatenate([banks.tasks, np.full(offered.size, task_id)])
    uncs = np.concatenate([banks.uncs, uncs[offered]])
    order = np.lexsort((uncs, ~sketch, ids))
    ids, sketch = ids[order], sketch[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (sketch[1:] != sketch[:-1])
    keep = order[first]
    from_store = keep < len(stored)
    dim = rows.features.shape[1]
    features = np.empty((keep.size, dim))
    # empty banks hold (0, 0) features
    features[from_store] = stored.features.reshape(-1, dim)[keep[from_store]]
    features[~from_store] = rows.features[offered[keep[~from_store] - len(stored)]]
    banks.rows = Split(features, ids[first], sketch[first])
    banks.tasks, banks.uncs = tasks[keep], uncs[keep]
    return banks


def ingest_task(
    banks: ReplayBanks, state: EncoderState, task: TaskDataset, cp_config: CpConfig
) -> ReplayBanks:
    """Score a finished task's train split and offer every row."""
    return admit(banks, task.train, score_task(state, task, cp_config), task.task_id)


def replay_epoch_batches(
    banks: ReplayBanks,
    p: int,
    k: int,
    rng: np.random.Generator,
    task_id: int,
) -> list[np.ndarray]:
    """Index batches into ``banks.rows`` covering task_id's banked identities once, as a PK epoch.

    The identities holding a row of task_id are shuffled and chunked into
    groups of P (one smaller final group when they do not divide evenly; all
    of them when fewer than P exist), each identity contributing K rows
    tiled from its whole stored sketch/photo pair.  A batch is one gather,
    ``banks.rows[rows]``, which the caller makes when it needs it.
    """
    if banks.is_empty():
        raise RuntimeError("both banks are empty; nothing to replay")
    # an identity's rows are consecutive: its first row and how many it has
    _, starts, sizes = np.unique(banks.rows.ids, return_index=True, return_counts=True)
    from_task = np.logical_or.reduceat(banks.tasks == task_id, starts)
    starts, sizes = starts[from_task], sizes[from_task]
    if not starts.size:
        raise RuntimeError(f"banks hold no identities for task {task_id}")
    perm = rng.permutation(starts.size)
    tile = np.arange(k)
    return [
        (starts[chunk, None] + tile % sizes[chunk, None]).ravel()
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
        # one row's Python floats at a time: the whole array's would outweigh the text
        feats = ",".join(format(v, ".17g") for v in features.tolist())
        modality = MODALITIES[0] if sketch else MODALITIES[1]
        lines.append(
            f'{{"task":{task},"id":{identity},"modality":"{modality}",'
            f'"uncertainty":{format(unc, ".17g")},"features":[{feats}]}}'
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
