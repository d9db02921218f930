"""Cross-modal retrieval metrics: mAP and CMC rank@k, plus task averaging.

Queries default to the sketch split and the gallery to the photo split;
ranking is by ascending Euclidean distance with ties broken by gallery
index.  Metrics are reported as percentages.

The gallery is never sorted: only the relevant items' ranks are needed, and
each is counted as the number of gallery items ahead of it.  AP is summed
from those ranks as one integer fraction and rounded once, so it equals the
exact rational value to the last bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import TaskDataset
from .encoder import EncoderState, embed
from .losses import _sq_dists

logger = logging.getLogger(__name__)

CMC_KS = (1, 5, 10)
# (query, relevant item) pairs ranked per block in ranking_metrics
_PAIR_BLOCK = 64


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


def _ap_from_positions(positions: list[int]) -> float:
    """AP of a query from the ascending 1-based positions p_1 < ... < p_T.

    AP = (sum_j j / p_j) / T, summed exactly as an integer numerator over
    lcm(p) * T; int / int true division rounds once, correctly, so hand
    values like AP([1,0,1]) = 5/6 hold to the last bit.
    """
    common = math.lcm(*positions)
    numerator = sum(j * (common // p) for j, p in enumerate(positions, start=1))
    return numerator / (common * len(positions))


def average_precision(relevance: np.ndarray) -> float:
    """Mean over relevant positions r of (relevant in top-r) / r."""
    rel = np.asarray(relevance, dtype=bool)
    if rel.ndim != 1 or rel.size == 0:
        raise ValueError("relevance must be a non-empty flat array")
    if not rel.any():
        raise ValueError("query has no relevant gallery item")
    return _ap_from_positions((np.flatnonzero(rel) + 1).tolist())


def _relevant_positions(
    distances: np.ndarray, query_ids: np.ndarray, gallery_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(query, 1-based rank) of every relevant gallery item, by query then rank.

    The rank of relevant item g for query q is 1 + #(d < d_qg) +
    #(d == d_qg and gallery index < g): the position in ascending-distance
    order with ties broken by gallery index.  The tie term is counted only
    for pairs whose distance is shared, and pairs are counted in blocks of
    _PAIR_BLOCK rows, so no (pairs x gallery) temporary is built at once.
    """
    q_idx, g_idx = np.nonzero(gallery_ids[None, :] == query_ids[:, None])
    columns = np.arange(distances.shape[1])
    positions = np.empty(q_idx.size, dtype=np.int64)
    for start in range(0, q_idx.size, _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        rows = distances[q_idx[block]]
        g = g_idx[block, None]
        own = np.take_along_axis(rows, g, axis=1)
        ahead = np.count_nonzero(rows < own, axis=1)
        tied = np.flatnonzero(np.count_nonzero(rows <= own, axis=1) - ahead > 1)
        if tied.size:
            ties = (rows[tied] == own[tied]) & (columns < g[tied])
            ahead[tied] += np.count_nonzero(ties, axis=1)
        positions[block] = ahead + 1
    order = np.lexsort((positions, q_idx))
    return q_idx[order], positions[order]


def ranking_metrics(
    query_emb: np.ndarray,
    query_ids: np.ndarray,
    gallery_emb: np.ndarray,
    gallery_ids: np.ndarray,
    use_cosine: bool = False,
) -> tuple[float, dict[int, float], int]:
    """(mAP, {k: rank@k}, evaluated query count), all fractions in [0, 1].

    Raises ValueError on a non-finite distance: ranks are counted, which
    needs a total order.
    """
    if use_cosine:
        qn = query_emb / np.linalg.norm(query_emb, axis=1, keepdims=True)
        gn = gallery_emb / np.linalg.norm(gallery_emb, axis=1, keepdims=True)
        distances = 1.0 - qn @ gn.T
    else:
        distances = np.sqrt(_sq_dists(query_emb, gallery_emb))
    if not np.isfinite(distances).all():
        raise ValueError("non-finite query-gallery distance")
    queries, positions = _relevant_positions(
        distances, np.asarray(query_ids), np.asarray(gallery_ids)
    )
    if not queries.size:
        raise ValueError("no query has a relevant gallery item")
    starts = np.flatnonzero(np.diff(queries, prepend=-1))
    skipped = len(query_ids) - starts.size
    if skipped:
        logger.warning("excluded %d queries with no relevant gallery item", skipped)
    bounds = [*starts.tolist(), queries.size]
    ranks = positions.tolist()
    aps = [_ap_from_positions(ranks[a:b]) for a, b in zip(bounds, bounds[1:])]
    first = positions[starts]
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
    missing = set(queries.ids.tolist()) - set(gallery.ids.tolist())
    if missing:
        raise ValueError(f"query identities {sorted(missing)[:5]} absent from gallery")
    q_emb = embed(state, queries.features)
    g_emb = embed(state, gallery.features)
    m, cmc, n = ranking_metrics(q_emb, queries.ids, g_emb, gallery.ids, use_cosine=use_cosine)
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
