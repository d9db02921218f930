"""Cross-modal retrieval metrics: mAP and CMC rank@k, plus task averaging.

Queries default to the sketch split and the gallery to the photo split;
ranking is by ascending Euclidean distance with ties broken by gallery
index.  Metrics are reported as percentages.

Only the relevant items' ranks are needed.  Each query's row of keys
(squared distances, or cosine distances) is sorted once, and one binary
search, run for all (query, relevant item) pairs at once with one add per
probe, counts the keys below each pair's own key in that sorted row.  The
clip at zero and the square root are monotone, so the count is the number
of smaller distances unless a neighbour of the own key in the sorted row
shares its distance: an equal key, a negative key that clips to the same 0,
or a square-root collision.  Those few pairs take both terms of their rank,
with the tie-break by gallery index, from their unsorted row.  Distances are
taken only where a rank reads them: the pairs' own keys, their two
neighbours and those rows.  A block's ranks are put in query order by one
integer sort of row * G + rank.  AP is summed from those ranks as one
integer fraction and rounded once, so it equals the exact rational value to
the last bit: for every query at once in int64 (np.lcm.reduceat over its
ranks) while T * prod(ranks) stays below 2^52, and in Python integers for
the rare query past that bound.

The queries are ranked in blocks of _BLOCK_ELEMENTS // G rows (at least
one), G the gallery size, so no Q x G matrix is ever built.  Each call
allocates two block-sized float64 buffers, 512 KiB each, which fit a 2 MiB
per-core L2 cache together, and ranks every block in them: one holds the
block's keys, the other first the query-gallery product, then the sorted
keys and the tie rows.  The squared norms, the gallery's identity order and
each query's run of relevant items in it are found once per call; each
block builds the (query, item) pairs of its own queries only.  A query's
ranks depend on its own row of keys only, but the BLAS may round a block's
product differently for another row count, so the block shape is a fixed
function of Q and G.
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
    pair_rows: np.ndarray,
    pair_items: np.ndarray,
    root: bool,
) -> np.ndarray:
    """1-based ranks of (row, gallery item) pairs, ascending within each row.

    keys holds a block of queries' rows against the whole gallery: the
    distances, or with root their unclipped squares, whose distance is
    sqrt(max(key, 0)).  pair_rows is non-decreasing, and the ranks of a
    row's pairs fill that row's slots in ascending order.  spare, a buffer
    with at least keys' rows, is overwritten; keys is left as it is.

    The rank of item g in row q is 1 + #(d < d_qg) + #(d == d_qg and gallery
    index < g): the position in ascending-distance order with ties broken by
    gallery index.  Each row is sorted once, and a binary search, run for
    all pairs at once with one add per probe, counts the keys below the
    pair's own key in its sorted row.  The own key is in the row, so the
    count is at most G - 1: with the first probe at G - 2^floor(log2 G) and
    the halving steps after it, no probe passes the row end.  The distance
    is a non-decreasing function of the key, so the count is #(d < d_qg)
    unless a neighbour of the own key in the sorted row shares its
    distance: an equal key, a smaller key that clips to the same 0, or a
    square-root collision such as 4.0 and nextafter(4.0, 5.0).  Only those
    pairs read their unsorted row, which gives both terms of the rank.
    Raises ValueError on a NaN or +inf key.
    """
    n_g = keys.shape[1]
    ranked = spare[: len(keys)]
    np.copyto(ranked, keys)
    ranked.sort(axis=1)
    # NaN sorts after +inf, so a row holds either only if its last key is one
    if not (ranked[:, -1:] < np.inf).all():
        raise ValueError("non-finite query-gallery distance")
    # ptr is a pair's flat index into the sorted rows: its row start plus the
    # count of keys below its own
    row_start = pair_rows * n_g
    own_key = keys.reshape(-1).take(row_start + pair_items)
    own = _to_distances(own_key.copy(), root)
    flat = ranked.reshape(-1)
    ptr = row_start.copy()
    # top is 2^floor(log2 G); the probe of a step reads the key at ptr + step - 1
    top = 1 << max(n_g.bit_length() - 1, 0)
    steps = [n_g - top] if n_g > top else []
    for step in steps + [top >> k for k in range(1, top.bit_length())]:
        ptr += step * (flat[step - 1 :].take(ptr) < own_key)
    # a neighbour read across a row end, or clipped to the own key at the
    # block's ends, at most adds a false tie, which the recount ranks the same
    below = _to_distances(flat.take(ptr - 1, mode="clip"), root)
    above = _to_distances(flat.take(ptr + 1, mode="clip"), root)
    tied = np.flatnonzero((below == own) | (above == own))
    # the sorted rows are spent: tied pairs' unsorted rows are gathered into
    # spare, as many at a time as it has rows, however many pairs tie
    chunk = max(len(spare), 1)
    for start in range(0, tied.size, chunk):
        t = tied[start : start + chunk]
        rows = _to_distances(
            np.take(keys, pair_rows[t], axis=0, out=spare[: t.size], mode="clip"), root
        )
        o = own[t, None]
        ahead = np.count_nonzero(rows < o, axis=1) + np.count_nonzero(
            (rows == o) & (np.arange(n_g) < pair_items[t, None]), axis=1
        )
        ptr[t] = row_start[t] + ahead
    # ptr is row start + rank - 1, so one sort orders the ranks within each
    # row's own slots, as pair_rows is sorted
    ptr.sort()
    ptr -= row_start
    ptr += 1
    return ptr


def _query_positions(
    query_emb: np.ndarray,
    query_ids: np.ndarray,
    gallery_emb: np.ndarray,
    gallery_ids: np.ndarray,
    use_cosine: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, starts): the 1-based ranks of every relevant gallery item,
    by query then rank, and the index in positions where each query that has
    a relevant item begins.

    Every block of queries is ranked in the same two (rows, G) buffers: its
    keys in one; in the other, first the product that _sq_dists adds to the
    keys, then the sorted keys and the tie rows.  They are freed on return.
    The relevant pairs come from the id-sorted gallery: each query's run of
    its identity there is found once per call, and each block builds only
    its own queries' pairs.  Raises ValueError when use_cosine meets an
    embedding of zero norm, which has no direction.
    """
    if use_cosine:
        q_len = np.linalg.norm(query_emb, axis=1, keepdims=True)
        g_len = np.linalg.norm(gallery_emb, axis=1, keepdims=True)
        zero_q, zero_g = np.count_nonzero(q_len == 0), np.count_nonzero(g_len == 0)
        if zero_q or zero_g:
            raise ValueError(
                f"cosine distance needs a direction: {zero_q} query and {zero_g} "
                "gallery embeddings have zero norm"
            )
        query_emb, gallery_emb = query_emb / q_len, gallery_emb / g_len
    else:
        q_norms = (query_emb * query_emb).sum(axis=1)
        g_norms = (gallery_emb * gallery_emb).sum(axis=1)
    n_q, n_g = len(query_ids), len(gallery_ids)
    rows = min(max(1, _BLOCK_ELEMENTS // max(n_g, 1)), max(n_q, 1))
    key_rows, spare = np.empty((rows, n_g)), np.empty((rows, n_g))
    by_id = np.argsort(gallery_ids)
    sorted_ids = gallery_ids[by_id]
    first = np.searchsorted(sorted_ids, query_ids, side="left")
    counts = np.searchsorted(sorted_ids, query_ids, side="right") - first
    pair_bounds = np.concatenate(([0], np.cumsum(counts)))
    # pair p, counted over all queries, of query q is gallery item by_id[p + shift[q]]
    shift = first - pair_bounds[:-1]
    block_positions = []
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
        n = counts[block]
        pairs = np.arange(pair_bounds[start], pair_bounds[start + n.size])
        pair_rows = np.repeat(np.arange(n.size), n)
        pair_items = by_id[pairs + np.repeat(shift[block], n)]
        block_positions.append(
            _relevant_positions(keys, spare, pair_rows, pair_items, not use_cosine)
        )
    return np.concatenate(block_positions), pair_bounds[:-1][counts > 0]


def ranking_metrics(
    query_emb: np.ndarray,
    query_ids: np.ndarray,
    gallery_emb: np.ndarray,
    gallery_ids: np.ndarray,
    use_cosine: bool = False,
) -> tuple[float, dict[int, float], int]:
    """(mAP, {k: rank@k}, evaluated query count), all fractions in [0, 1].

    Raises ValueError on a non-finite distance: ranks are counted, which
    needs a total order.  With use_cosine it also raises ValueError, naming
    how many rows, on a query or gallery embedding of zero norm.
    """
    query_ids, gallery_ids = np.asarray(query_ids), np.asarray(gallery_ids)
    positions, starts = _query_positions(
        query_emb, query_ids, gallery_emb, gallery_ids, use_cosine
    )
    if not starts.size:
        raise ValueError("no query has a relevant gallery item")
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
    gallery_ids = np.sort(gallery.ids)
    at = gallery_ids.searchsorted(queries.ids).clip(max=gallery_ids.size - 1)
    absent = gallery_ids[at] != queries.ids
    if absent.any():
        missing = np.unique(queries.ids[absent])
        raise ValueError(f"query identities {missing[:5].tolist()} absent from gallery")
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
