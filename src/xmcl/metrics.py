"""Cross-modal retrieval metrics: mAP and CMC rank@k, plus task averaging.

Queries default to the sketch split and the gallery to the photo split;
ranking is by ascending Euclidean distance with ties broken by gallery
index.  Metrics are reported as percentages.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import TaskDataset, features_of, labels_of
from .encoder import EncoderState, embed
from .losses import _sq_dists

logger = logging.getLogger(__name__)

CMC_KS = (1, 5, 10)


@dataclass(frozen=True)
class MetricsRecord:
    task_id: int
    step: int
    map: float
    r1: float
    r5: float
    r10: float
    num_queries: int

    def __post_init__(self) -> None:
        if not (self.r1 <= self.r5 + 1e-12 and self.r5 <= self.r10 + 1e-12):
            raise ValueError("CMC curve must be non-decreasing")

    def as_row(self) -> dict:
        return {
            "task_id": self.task_id,
            "step": self.step,
            "mAP": self.map,
            "r1": self.r1,
            "r5": self.r5,
            "r10": self.r10,
            "num_queries": self.num_queries,
        }


def average_precision(relevance: np.ndarray) -> float:
    """Mean over relevant positions r of (relevant in top-r) / r.

    Evaluated in exact rational arithmetic with a single rounding at the
    end, so hand values like AP([1,0,1]) = 5/6 hold to the last bit.
    """
    rel = np.asarray(relevance, dtype=bool)
    if rel.ndim != 1 or rel.size == 0:
        raise ValueError("relevance must be a non-empty flat array")
    total = int(rel.sum())
    if total == 0:
        raise ValueError("query has no relevant gallery item")
    acc = Fraction(0)
    hits = 0
    for position, flag in enumerate(rel, start=1):
        if flag:
            hits += 1
            acc += Fraction(hits, position)
    return float(acc / total)


def _rank_gallery(distances: np.ndarray) -> np.ndarray:
    """Ascending-distance order per query; ties broken by gallery index."""
    n_g = distances.shape[1]
    return np.stack(
        [np.lexsort((np.arange(n_g), row)) for row in distances]
    )


def ranking_metrics(
    query_emb: np.ndarray,
    query_ids: np.ndarray,
    gallery_emb: np.ndarray,
    gallery_ids: np.ndarray,
    use_cosine: bool = False,
) -> tuple[float, dict[int, float], int]:
    """(mAP, {k: rank@k}, evaluated query count), all fractions in [0, 1]."""
    if use_cosine:
        qn = query_emb / np.linalg.norm(query_emb, axis=1, keepdims=True)
        gn = gallery_emb / np.linalg.norm(gallery_emb, axis=1, keepdims=True)
        distances = 1.0 - qn @ gn.T
    else:
        distances = np.sqrt(_sq_dists(query_emb, gallery_emb))
    order = _rank_gallery(distances)
    aps = []
    first_hit = []
    skipped = 0
    for q in range(len(query_ids)):
        rel = gallery_ids[order[q]] == query_ids[q]
        if not rel.any():
            skipped += 1
            continue
        aps.append(average_precision(rel))
        first_hit.append(int(np.flatnonzero(rel)[0]) + 1)
    if skipped:
        logger.warning("excluded %d queries with no relevant gallery item", skipped)
    if not aps:
        raise ValueError("no query has a relevant gallery item")
    first = np.array(first_hit)
    cmc = {k: float((first <= k).mean()) for k in CMC_KS}
    return float(np.mean(aps)), cmc, len(aps)


def evaluate(
    state: EncoderState,
    task: TaskDataset,
    step: int = 0,
    use_cosine: bool = False,
    swap_direction: bool = False,
) -> MetricsRecord:
    """Embed the test split and score sketch-to-photo retrieval."""
    queries = task.gallery if swap_direction else task.query
    gallery = task.query if swap_direction else task.gallery
    if not queries or not gallery:
        raise ValueError(f"task {task.task_id} has an empty test split")
    query_ids = labels_of(queries)
    gallery_ids = labels_of(gallery)
    missing = set(query_ids.tolist()) - set(gallery_ids.tolist())
    if missing:
        raise ValueError(f"query identities {sorted(missing)[:5]} absent from gallery")
    q_emb = embed(state, features_of(queries))
    g_emb = embed(state, features_of(gallery))
    m, cmc, n = ranking_metrics(q_emb, query_ids, g_emb, gallery_ids, use_cosine=use_cosine)
    return MetricsRecord(
        task_id=task.task_id,
        step=step,
        map=100.0 * m,
        r1=100.0 * cmc[1],
        r5=100.0 * cmc[5],
        r10=100.0 * cmc[10],
        num_queries=n,
    )


def aggregate(records: list[MetricsRecord]) -> dict:
    """Unweighted mean across tasks at one step."""
    if not records:
        raise ValueError("nothing to aggregate")
    steps = {r.step for r in records}
    if len(steps) != 1:
        raise ValueError(f"records span multiple steps: {sorted(steps)}")
    return {
        "step": records[0].step,
        "mAP": float(np.mean([r.map for r in records])),
        "r1": float(np.mean([r.r1 for r in records])),
        "r5": float(np.mean([r.r5 for r in records])),
        "r10": float(np.mean([r.r10 for r in records])),
    }
