"""Cross-modal retrieval metrics: mAP and CMC rank@k, plus task averaging.

Queries are the sketch split and the gallery the photo split; every query
identity needs a gallery item.  Ranking is by ascending Euclidean distance
with ties broken by gallery index.  Metrics are reported as percentages.

Only the relevant items' ranks are needed.  Each query's row of keys, the
unclipped squared distances, is rounded to float32 and sorted once, and one
binary search, run for all (query, relevant item) pairs at once with one
add per probe, counts the float32 keys below each pair's own float32 key in
that sorted row.  Rounding, the clip at zero and sqrt are monotone, so the
count is the number of smaller distances when no other key of the row lies
within one float32 step of the own key and the own key is above 0.  Every
other pair -- an equal key, a key of the same float32 value, a negative key
that clips to the same 0, two keys with one sqrt, keys on either side of a
float32 rounding midpoint -- takes both terms of its rank, with the
tie-break by gallery index, from its unsorted float64 row.  Distances are
taken only for those pairs.  A block's ranks are put in query order by one
integer sort of row * G + rank.  AP is summed from those ranks as one
integer fraction and rounded once, so it equals the exact rational value to
the last bit: for every query at once in int64 (np.lcm.reduceat over its
ranks) while T * prod(ranks) stays below 2^52, and in Python integers for
the rare query past that bound.

The queries are ranked in blocks of _BLOCK_ELEMENTS // G rows (at least
one), G the gallery size, so no Q x G matrix is ever built.  Each call
allocates two block-sized float64 buffers, 512 KiB each, which fit a 2 MiB
per-core L2 cache together, and ranks every block in them: one holds the
block's keys, the other first the query-gallery product, then in its first
half the float32 sorted keys, then the rows of the pairs that are
recounted.  The squared norms, the gallery's identity order and each
query's run of relevant items in it are found once per call; each block
builds the (query, item) pairs of its own queries only.  A query's ranks
depend on its own row of keys only, but the BLAS may round a block's
product differently for another row count, so the block shape is a fixed
function of Q and G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TaskDataset
from .encoder import EncoderState, embed
from .losses import _sq_dists

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


def _to_distances(keys: np.ndarray) -> np.ndarray:
    """Squared Euclidean keys as distances, in place: sqrt(max(key, 0))."""
    np.maximum(keys, 0.0, out=keys)
    np.sqrt(keys, out=keys)
    return keys


def _relevant_positions(
    keys: np.ndarray,
    spare: np.ndarray,
    pair_rows: np.ndarray,
    pair_items: np.ndarray,
) -> np.ndarray:
    """1-based ranks of (row, gallery item) pairs, ascending within each row.

    keys holds a block of queries' rows against the whole gallery: the
    unclipped squared distances, whose distance is sqrt(max(key, 0)).
    pair_rows is non-decreasing, and the ranks of a row's pairs fill that
    row's slots in ascending order.  spare, a C-contiguous float64 buffer
    with at least keys' rows, is overwritten; keys is left as it is.

    The rank of item g in row q is 1 + #(d < d_qg) + #(d == d_qg and gallery
    index < g): the position in ascending-distance order with ties broken by
    gallery index.  Each row's keys are rounded to float32 into the first
    half of spare and sorted there, and a binary search, run for all pairs
    at once with one add per probe, counts the float32 keys below the pair's
    own float32 key.  The own key is in the row, so the count is at most
    G - 1: with the first probe at G - 2^floor(log2 G) and the halving steps
    after it, no probe passes the row end.  Rounding is monotone, so a key
    whose float32 lies two or more float32 steps from the own key's is below
    or above it in float64 by at least half a float32 step, far more than
    sqrt can merge.  A pair is settled when both its neighbours in the
    sorted row lie that far away and its own float32 key is above 0: its
    rank is then the count plus one.  Every other pair -- an equal key, keys
    that clip to the same 0, two keys with one sqrt such as 4.0 and
    nextafter(4.0, 5.0), keys that straddle a float32 rounding midpoint --
    takes both terms of its rank from its unsorted float64 row.
    Raises ValueError on a NaN or +inf key; -inf and finite keys beyond
    float32's range, which round to -inf and +inf, still rank.
    """
    n_g = keys.shape[1]
    ranked = spare.reshape(-1).view(np.float32)[: keys.size].reshape(keys.shape)
    with np.errstate(over="ignore"):
        np.copyto(ranked, keys, casting="same_kind")
    # ptr is a pair's flat index into the rows: its row start, to which the
    # search adds the count of float32 keys below the pair's own
    row_start = pair_rows * n_g
    flat = ranked.reshape(-1)
    own = flat.take(row_start + pair_items)
    ranked.sort(axis=1)
    # NaN sorts after +inf, so a row holds either only if its last key is one;
    # a finite key past float32's range is +inf there too, and then the
    # float64 keys decide
    if not (ranked[:, -1:] < np.inf).all() and not (keys < np.inf).all():
        raise ValueError("non-finite query-gallery distance")
    ptr = row_start.copy()
    # top is 2^floor(log2 G); the probe of a step reads the key at ptr + step - 1
    top = 1 << max(n_g.bit_length() - 1, 0)
    steps = [n_g - top] if n_g > top else []
    for step in steps + [top >> k for k in range(1, top.bit_length())]:
        ptr += step * (flat[step - 1 :].take(ptr) < own)
    # a pair first or last in its row has no neighbour on that side; the key
    # read there, from another row or clipped at the block's ends, is ignored
    first, last = ptr == row_start, ptr == row_start + (n_g - 1)
    settled = first | (flat.take(ptr - 1, mode="clip") < np.nextafter(own, -np.inf))
    settled &= last | (flat.take(ptr + 1, mode="clip") > np.nextafter(own, np.inf))
    # a float32 key above 0 is rounded from a float64 key above 0
    settled &= own > 0
    unsettled = np.flatnonzero(~settled)
    # the sorted rows are spent: unsettled pairs' unsorted rows are gathered
    # into spare, as many at a time as it has rows, however many pairs there are
    chunk = max(len(spare), 1)
    for start in range(0, unsettled.size, chunk):
        t = unsettled[start : start + chunk]
        o = _to_distances(keys.reshape(-1).take(row_start[t] + pair_items[t]))[:, None]
        rows = _to_distances(np.take(keys, pair_rows[t], axis=0, out=spare[: t.size], mode="clip"))
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
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, starts): the 1-based ranks of every relevant gallery item,
    by query then rank, and the index in positions where each query begins.

    Every block of queries is ranked in the same two (rows, G) float64
    buffers: its keys in one; in the other, first the product that _sq_dists
    adds to the keys, then, in its first half, the keys rounded to float32 and
    sorted, then the float64 rows of the pairs that _relevant_positions
    recounts.  They are freed on return.
    The relevant pairs come from the id-sorted gallery: each query's run of
    its identity there is found once per call, and each block builds only
    its own queries' pairs.  Raises ValueError on no queries and on query
    ids absent from the gallery (the first five, ascending).
    """
    n_q, n_g = len(query_ids), len(gallery_ids)
    if not n_q:
        raise ValueError("no queries to rank")
    by_id = np.argsort(gallery_ids)
    sorted_ids = gallery_ids[by_id]
    first = np.searchsorted(sorted_ids, query_ids, side="left")
    counts = np.searchsorted(sorted_ids, query_ids, side="right") - first
    if not counts.all():
        missing = np.unique(query_ids[counts == 0])
        raise ValueError(f"query identities {missing[:5].tolist()} absent from gallery")
    q_norms = (query_emb * query_emb).sum(axis=1)
    g_norms = (gallery_emb * gallery_emb).sum(axis=1)
    rows = min(max(1, _BLOCK_ELEMENTS // n_g), n_q)
    key_rows, spare = np.empty((rows, n_g)), np.empty((rows, n_g))
    pair_bounds = np.concatenate(([0], np.cumsum(counts)))
    # pair p, counted over all queries, of query q is gallery item by_id[p + shift[q]]
    shift = first - pair_bounds[:-1]
    block_positions = []
    for start in range(0, n_q, rows):
        block = slice(start, start + rows)
        keys = key_rows[: len(query_ids[block])]
        _sq_dists(
            query_emb[block], gallery_emb, keys,
            sq_norms=(q_norms[block], g_norms), product=spare[: len(keys)], clip=False,
        )
        n = counts[block]
        pair_rows = np.repeat(np.arange(n.size), n)
        pair_items = by_id[
            np.arange(pair_bounds[start], pair_bounds[start + n.size]) + np.repeat(shift[block], n)
        ]
        block_positions.append(_relevant_positions(keys, spare, pair_rows, pair_items))
    return np.concatenate(block_positions), pair_bounds[:-1]


def ranking_metrics(
    query_emb: np.ndarray,
    query_ids: np.ndarray,
    gallery_emb: np.ndarray,
    gallery_ids: np.ndarray,
) -> tuple[float, dict[int, float], int]:
    """(mAP, {k: rank@k}, query count) of Euclidean ranking, all fractions in [0, 1].

    Raises ValueError on no queries, on query ids absent from the gallery,
    and on a non-finite distance: ranks are counted, which needs a total
    order.
    """
    query_ids, gallery_ids = np.asarray(query_ids), np.asarray(gallery_ids)
    positions, starts = _query_positions(query_emb, query_ids, gallery_emb, gallery_ids)
    aps = _average_precisions(positions, starts)
    first = positions[starts]
    cmc = {k: float((first <= k).mean()) for k in CMC_KS}
    return float(np.mean(aps)), cmc, aps.size


def evaluate(state: EncoderState, task: TaskDataset, step: int) -> MetricsRecord:
    """Embed the test split and score sketch-to-photo retrieval."""
    queries, gallery = task.query, task.gallery
    if not queries or not gallery:
        raise ValueError(f"task {task.task_id} has an empty test split")
    q_emb = embed(state, queries.features)
    g_emb = embed(state, gallery.features)
    m, cmc, n = ranking_metrics(q_emb, queries.ids, g_emb, gallery.ids)
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
