"""Cross-modal retrieval metrics: mAP and CMC rank@k, plus task averaging.

Queries default to the sketch split and the gallery to the photo split;
ranking is by ascending Euclidean distance with ties broken by gallery
index.  Metrics are reported as percentages.

Only the relevant items' ranks are needed.  Each query's row of keys
(squared distances, or cosine distances) is sorted once, and every relevant
item's rank comes from one binary search, run for all (query, relevant
item) pairs at once, for its distance in that sorted row; the few pairs
whose distance is shared add the index tie-break from the unsorted row.
The clip at zero and the square root are monotone, so they are applied only
where a rank reads a value: the pairs' own keys, the probes of the search
and the tie rows.  AP is summed from those ranks as one integer fraction
and rounded once, so it equals the exact rational value to the last bit:
for every query at once in int64 (np.lcm.reduceat over its ranks) while
T * prod(ranks) stays below 2^52, and in Python integers for the rare query
past that bound.

The queries are ranked in blocks of _BLOCK_ELEMENTS // G rows (at least
one), G the gallery size, so no Q x G matrix is ever built.  Each call
allocates two block-sized float64 buffers, 512 KiB each, which fit a 2 MiB
per-core L2 cache together, and ranks every block in them: one holds the
block's keys, the other first the query-gallery product, then the sorted
keys and the tie rows.  The squared norms and the gallery's identity order
are computed once per call.  A query's ranks depend on its own row only, so
blocking changes no result.
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
_BLOCK_ELEMENTS = 2**16
# T * prod(p) below 2^52 leaves a bit of margin under the 2^53 of exact doubles
# for the float sum of log2 that tests it
_EXACT_BITS = 52


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


def _average_precisions(positions: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """AP of every query; query i's ascending positions are positions[starts[i]:starts[i + 1]].

    A query with T positions whose T * prod(p) is below 2^_EXACT_BITS is
    summed in int64 at once: its lcm, numerator and lcm * T are exact below
    2^53, so one float division rounds the exact quotient once, as
    _ap_from_positions does.  The rest go through _ap_from_positions.
    """
    sizes = np.diff(starts, append=positions.size)
    exact = np.add.reduceat(np.log2(positions), starts) + np.log2(sizes) < _EXACT_BITS
    aps = np.empty(starts.size)
    if exact.any():
        p = positions[np.repeat(exact, sizes)]
        n = sizes[exact]
        first = np.cumsum(n) - n
        common = np.lcm.reduceat(p, first)
        j = np.arange(1, p.size + 1) - np.repeat(first, n)
        aps[exact] = np.add.reduceat(j * (np.repeat(common, n) // p), first) / (common * n)
    for q in np.flatnonzero(~exact).tolist():
        aps[q] = _ap_from_positions(positions[starts[q] : starts[q] + sizes[q]].tolist())
    return aps


def _to_distances(keys: np.ndarray, root: bool) -> np.ndarray:
    """keys as distances, in place: sqrt(max(key, 0)) of squared Euclidean keys."""
    if root:
        np.maximum(keys, 0.0, out=keys)
        np.sqrt(keys, out=keys)
    return keys


def _relevant_positions(
    keys: np.ndarray,
    spare: np.ndarray,
    query_ids: np.ndarray,
    by_id: np.ndarray,
    sorted_ids: np.ndarray,
    root: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(query, 1-based rank) of every relevant gallery item, by query then rank.

    keys holds a block of queries' rows against the whole gallery: the
    distances, or with root their unclipped squares, whose distance is
    sqrt(max(key, 0)).  by_id orders the gallery by identity and sorted_ids
    is gallery_ids[by_id].  spare, a buffer with at least keys' rows, is
    overwritten; keys is left as it is.

    The rank of relevant item g for query q is 1 + #(d < d_qg) +
    #(d == d_qg and gallery index < g): the position in ascending-distance
    order with ties broken by gallery index.  The relevant pairs come from
    the id-sorted gallery.  The distance is a non-decreasing function of
    the key, so a row's sorted keys give its sorted distances, and
    #(d < d_qg) is a binary search, run for all pairs at once, of q's
    sorted keys that takes the distance of each key it reads.  The tie
    term reads the unsorted row only for pairs whose distance is shared.
    Raises ValueError on a NaN or +inf key.
    """
    n_q, n_g = keys.shape
    first = np.searchsorted(sorted_ids, query_ids, side="left")
    counts = np.searchsorted(sorted_ids, query_ids, side="right") - first
    q_idx = np.repeat(np.arange(n_q), counts)
    # pair i of query q is the (i - its first pair)-th of q's id run in by_id
    pair_starts = np.cumsum(counts) - counts
    g_idx = by_id[np.arange(q_idx.size) + np.repeat(first - pair_starts, counts)]
    ranked = spare[:n_q]
    np.copyto(ranked, keys)
    ranked.sort(axis=1)
    # NaN sorts after +inf, so a row holds either only if its last key is one
    if not (ranked[:, -1:] < np.inf).all():
        raise ValueError("non-finite query-gallery distance")
    own = _to_distances(keys[q_idx, g_idx], root)
    # sorted_flat[row_start + i] is the key of the (i+1)-th smallest distance of
    # the pair's query; a probe past the row end reads the row maximum, >= own
    sorted_flat = ranked.reshape(-1)
    row_start = q_idx * n_g
    ahead = np.zeros(q_idx.size, dtype=np.int64)
    for step in (1 << k for k in reversed(range(n_g.bit_length()))):
        probe = np.minimum(ahead + step, n_g)
        ahead += step * (_to_distances(sorted_flat[row_start + probe - 1], root) < own)
    # position ahead holds g's own distance, and the next one may repeat it; at
    # the row end "next" is g's own, a false tie that counts 0
    after = np.minimum(ahead + 1, n_g - 1)
    tied = np.flatnonzero(_to_distances(sorted_flat[row_start + after], root) == own)
    # the sorted rows are spent: tied pairs' unsorted rows are gathered into
    # spare, as many at a time as it has rows, however many pairs tie
    chunk = max(len(spare), 1)
    for start in range(0, tied.size, chunk):
        t = tied[start : start + chunk]
        rows = np.take(keys, q_idx[t], axis=0, out=spare[: t.size], mode="clip")
        ties = (_to_distances(rows, root) == own[t, None]) & (np.arange(n_g) < g_idx[t, None])
        ahead[t] += np.count_nonzero(ties, axis=1)
    positions = ahead + 1
    order = np.lexsort((positions, q_idx))
    return q_idx[order], positions[order]


def _query_positions(
    query_emb: np.ndarray,
    query_ids: np.ndarray,
    gallery_emb: np.ndarray,
    gallery_ids: np.ndarray,
    use_cosine: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(query, 1-based rank) of every relevant gallery item, by query then rank.

    Every block of queries is ranked in the same two (rows, G) buffers: its
    keys in one; in the other, first the product that _sq_dists adds to the
    keys, then the sorted keys and the tie rows.  They are freed on return.
    """
    if use_cosine:
        query_emb = query_emb / np.linalg.norm(query_emb, axis=1, keepdims=True)
        gallery_emb = gallery_emb / np.linalg.norm(gallery_emb, axis=1, keepdims=True)
    else:
        q_norms = (query_emb * query_emb).sum(axis=1)
        g_norms = (gallery_emb * gallery_emb).sum(axis=1)
    n_q, n_g = len(query_ids), len(gallery_ids)
    rows = min(max(1, _BLOCK_ELEMENTS // max(n_g, 1)), max(n_q, 1))
    key_rows, spare = np.empty((rows, n_g)), np.empty((rows, n_g))
    by_id = np.argsort(gallery_ids)
    sorted_ids = gallery_ids[by_id]
    block_queries, block_positions = [], []
    for start in range(0, max(n_q, 1), rows):
        block = slice(start, start + rows)
        keys = key_rows[: len(query_ids[block])]
        if use_cosine:
            np.subtract(1.0, np.matmul(query_emb[block], gallery_emb.T, out=keys), out=keys)
        else:
            _sq_dists(
                query_emb[block], gallery_emb, keys,
                sq_norms=(q_norms[block], g_norms), product=spare[: len(keys)], clip=False,
            )
        queries, positions = _relevant_positions(
            keys, spare, query_ids[block], by_id, sorted_ids, root=not use_cosine
        )
        block_queries.append(queries + start)
        block_positions.append(positions)
    return np.concatenate(block_queries), np.concatenate(block_positions)


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
    query_ids, gallery_ids = np.asarray(query_ids), np.asarray(gallery_ids)
    queries, positions = _query_positions(
        query_emb, query_ids, gallery_emb, gallery_ids, use_cosine
    )
    if not queries.size:
        raise ValueError("no query has a relevant gallery item")
    starts = np.flatnonzero(np.diff(queries, prepend=-1))
    skipped = len(query_ids) - starts.size
    if skipped:
        logger.warning("excluded %d queries with no relevant gallery item", skipped)
    aps = _average_precisions(positions, starts)
    first = positions[starts]
    cmc = {k: float((first <= k).mean()) for k in CMC_KS}
    return float(np.mean(aps)), cmc, aps.size


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
