import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import xmcl.metrics
from xmcl.data import Split, SynthSpec, TaskDataset, generate_synthetic_task
from xmcl.encoder import EncoderConfig, init_encoder
from xmcl.losses import _sq_dists
from xmcl.metrics import (
    _BLOCK_ELEMENTS,
    _EXACT_BITS,
    CMC_KS,
    MetricsRecord,
    _ap_from_positions,
    _average_precisions,
    _relevant_positions,
    aggregate,
    evaluate,
    ranking_metrics,
)


def brute_force_metrics(q_emb, q_ids, g_emb, g_ids):
    """Loop-based mAP and CMC, entirely independent of the library path."""
    aps, first_hits = [], []
    for qi in range(len(q_ids)):
        scored = sorted(
            range(len(g_ids)),
            key=lambda gi: (float(np.linalg.norm(q_emb[qi] - g_emb[gi])), gi),
        )
        rel = [g_ids[gi] == q_ids[qi] for gi in scored]
        if not any(rel):
            continue
        hits = 0
        precisions = []
        for pos, flag in enumerate(rel, start=1):
            if flag:
                hits += 1
                precisions.append(hits / pos)
        aps.append(sum(precisions) / len(precisions))
        first_hits.append(rel.index(True) + 1)
    cmc = {k: sum(1 for f in first_hits if f <= k) / len(first_hits) for k in (1, 5, 10)}
    return sum(aps) / len(aps), cmc


def fraction_ap(rel):
    """AP summed in exact rationals, rounded once."""
    acc, hits = Fraction(0), 0
    for position, flag in enumerate(rel, start=1):
        if flag:
            hits += 1
            acc += Fraction(hits, position)
    return float(acc / hits)


def lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=False):
    """Per-row lexsort ranking with Fraction AP: the sort-based reference."""
    if use_cosine:
        qn = q_emb / np.linalg.norm(q_emb, axis=1, keepdims=True)
        gn = g_emb / np.linalg.norm(g_emb, axis=1, keepdims=True)
        distances = 1.0 - qn @ gn.T
    else:
        distances = np.sqrt(_sq_dists(q_emb, g_emb))
    n_g = distances.shape[1]
    aps, first_hit = [], []
    for q, row in enumerate(distances):
        rel = g_ids[np.lexsort((np.arange(n_g), row))] == q_ids[q]
        if rel.any():
            aps.append(fraction_ap(rel))
            first_hit.append(int(np.flatnonzero(rel)[0]) + 1)
    first = np.array(first_hit)
    return float(np.mean(aps)), {k: float((first <= k).mean()) for k in CMC_KS}, len(aps)


def blocked_pair_positions(distances, query_ids, gallery_ids, block=64):
    """(query, rank) of every relevant item by scanning each pair's whole row: the reference.

    Pairs come from the Q x G id-equality matrix; for `block` pairs at a time
    the rank is 1 + #(row < own) + #(row == own at a smaller gallery index).
    """
    q_idx, g_idx = np.nonzero(gallery_ids[None, :] == query_ids[:, None])
    columns = np.arange(distances.shape[1])
    positions = np.empty(q_idx.size, dtype=np.int64)
    for start in range(0, q_idx.size, block):
        rows = distances[q_idx[start : start + block]]
        g = g_idx[start : start + block, None]
        own = np.take_along_axis(rows, g, axis=1)
        ahead = np.count_nonzero(rows < own, axis=1)
        tied = np.flatnonzero(np.count_nonzero(rows <= own, axis=1) - ahead > 1)
        if tied.size:
            ahead[tied] += np.count_nonzero((rows[tied] == own[tied]) & (columns < g[tied]), axis=1)
        positions[start : start + block] = ahead + 1
    order = np.lexsort((positions, q_idx))
    return q_idx[order], positions[order]


POSITION_CASES = ["grid", "duplicate_rows", "zero_distance", "cosine", "negative", "single_item"]


def position_case(rng, case):
    """(keys, root, query ids, gallery ids) with unsorted, repeated gallery ids.

    With root the keys are unclipped squared Euclidean distances, whose
    distance is sqrt(max(key, 0)); cosine keys are the distances.
    """
    n_g = 1 if case == "single_item" else int(rng.integers(2, 90))
    n_q = int(rng.integers(1, 40))
    dim = int(rng.integers(1, 5))
    g_ids = rng.integers(0, max(1, n_g // int(rng.integers(1, 5))), size=n_g)
    q_ids = np.concatenate([g_ids[rng.integers(0, n_g, size=n_q)], rng.integers(-3, 0, size=2)])
    if case == "grid":
        # a coarse integer grid forces many equal distances
        g_emb = rng.integers(-1, 2, size=(n_g, dim)).astype(float)
        q_emb = rng.integers(-1, 2, size=(q_ids.size, dim)).astype(float)
    else:
        g_emb = rng.normal(size=(n_g, dim))
        q_emb = rng.normal(size=(q_ids.size, dim))
    if case in ("duplicate_rows", "cosine"):
        g_emb = g_emb[rng.integers(0, n_g, size=n_g)]
    if case in ("zero_distance", "cosine"):
        # queries that coincide with gallery rows (up to scale, for cosine)
        copies = rng.random(q_ids.size) < 0.5
        q_emb[copies] = g_emb[rng.integers(0, n_g, size=int(copies.sum()))] * rng.uniform(0.5, 3.0)
    if case == "cosine":
        q_emb[~q_emb.any(axis=1), 0] = 1.0
        g_emb[~g_emb.any(axis=1), 0] = 1.0
        qn = q_emb / np.linalg.norm(q_emb, axis=1, keepdims=True)
        gn = g_emb / np.linalg.norm(g_emb, axis=1, keepdims=True)
        keys, root = 1.0 - qn @ gn.T, False
    else:
        keys, root = _sq_dists(q_emb, g_emb, clip=False), True
    if case == "negative":
        # squared keys below zero all clip to distance 0; other keys stay negative
        root = bool(rng.random() < 0.5)
        keys = keys if root else distances_of(keys, True)
        keys -= rng.uniform(0.0, 2.0 * keys.max() + 1.0)
    return keys, root, q_ids, g_ids


def distances_of(keys, root):
    return np.sqrt(np.maximum(keys, 0.0)) if root else keys


def relevant_positions(keys, query_ids, gallery_ids, root, spare_rows=0):
    """(query, rank) of every relevant pair of a whole key matrix, by _relevant_positions.

    The spare buffer is NaN-filled; spare_rows extra rows stand for a last
    block shorter than the buffers.
    """
    pair_rows, pair_items = np.nonzero(gallery_ids[None, :] == query_ids[:, None])
    spare = np.full((len(keys) + spare_rows, keys.shape[1]), np.nan)
    before = keys.copy()
    positions = _relevant_positions(keys, spare, pair_rows, pair_items, root)
    assert np.array_equal(keys, before, equal_nan=True), "keys changed"
    return pair_rows, positions


# ties: coarse integer embeddings; wide: Q != G with G in the hundreds
REFERENCE_CASES = ["ties", "ties_cosine", "continuous", "cosine", "no_relevant", "single_relevant", "wide"]


def average_precision(relevance):
    """AP of one ranked relevance list, through the positions ranking_metrics passes on."""
    return _ap_from_positions((np.flatnonzero(relevance) + 1).tolist())


class TestAveragePrecision:
    def test_relevant_first_only(self):
        assert average_precision([1, 0, 0]) == 1.0

    def test_zero_one(self):
        assert average_precision([0, 1]) == 0.5

    def test_one_zero_one(self):
        assert np.isclose(average_precision([1, 0, 1]), (1 + 2 / 3) / 2)
        assert np.isclose(average_precision([1, 0, 1]), 5 / 6)

    def test_no_relevant_rejected(self):
        # a query without a relevant gallery item has no AP; with none at all there is no mAP
        with pytest.raises(ValueError, match="no query has a relevant gallery item"):
            ranking_metrics(np.zeros((2, 2)), np.array([0, 1]), np.ones((3, 2)), np.array([2, 3, 3]))

    def test_exact_where_float_summation_drifts(self):
        rng = np.random.default_rng(4)
        rel = rng.random(5000) < 0.3
        positions = np.flatnonzero(rel) + 1
        naive = sum(j / p for j, p in enumerate(positions, start=1)) / positions.size
        assert naive != fraction_ap(rel)
        assert average_precision(rel) == fraction_ap(rel)

    def test_matches_fraction_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            rel = rng.random(int(rng.integers(1, 400))) < rng.uniform(0.01, 1.0)
            rel[int(rng.integers(0, rel.size))] = True
            assert average_precision(rel) == fraction_ap(rel)


def fraction_ap_of_positions(positions):
    return float(sum(Fraction(j, p) for j, p in enumerate(positions, start=1)) / len(positions))


class TestIntegerApPass:
    """_average_precisions sums in int64 below the bound, and per query above it."""

    @staticmethod
    def queries(rng, n, t, g):
        """n queries of t ascending distinct positions in 1..g, and their starts."""
        rows = [np.sort(rng.choice(g, size=t, replace=False)) + 1 for _ in range(n)]
        return np.concatenate(rows).astype(np.int64), np.arange(n) * t

    @staticmethod
    def fits(positions):
        return math.log2(len(positions)) + sum(math.log2(p) for p in positions) < _EXACT_BITS

    @pytest.mark.parametrize("t,g", [(1, 800), (4, 800), (12, 5000)])
    def test_equals_fraction(self, t, g):
        rng = np.random.default_rng(t)
        positions, starts = self.queries(rng, 300, t, g)
        got = _average_precisions(positions, starts)
        rows = np.split(positions, starts[1:])
        assert got.tolist() == [fraction_ap_of_positions(r.tolist()) for r in rows]
        # T=1 and T=4 over G=800 take the integer pass; T=12 over 5000 cannot
        assert [self.fits(r.tolist()) for r in rows] == [t <= 4] * len(rows)

    def test_mixed_sizes_on_both_sides_of_the_bound(self):
        rng = np.random.default_rng(9)
        rows = [
            np.sort(rng.choice(3000, size=int(rng.integers(1, 12)), replace=False)) + 1
            for _ in range(400)
        ]
        positions = np.concatenate(rows).astype(np.int64)
        starts = np.cumsum([0] + [r.size for r in rows[:-1]])
        fits = [self.fits(r.tolist()) for r in rows]
        assert any(fits) and not all(fits)
        got = _average_precisions(positions, starts)
        assert got.tolist() == [fraction_ap_of_positions(r.tolist()) for r in rows]

    def test_ranking_with_an_identity_past_the_bound(self):
        # identity 0 has 40 gallery items, so its queries need the per-query sum
        rng = np.random.default_rng(12)
        g_ids = np.concatenate([np.zeros(40, dtype=np.int64), rng.integers(1, 60, size=400)])
        g_emb = rng.normal(size=(g_ids.size, 6))
        q_ids = np.concatenate([[0, 0, 0], g_ids[rng.integers(40, g_ids.size, size=50)]])
        q_emb = rng.normal(size=(q_ids.size, 6))
        got = ranking_metrics(q_emb, q_ids, g_emb, g_ids)
        assert got == lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids)
        assert math.log2(40) + sum(math.log2(p) for p in range(1, 41)) > _EXACT_BITS


class TestRelevantPositions:
    def test_matches_blocked_pair_counter(self):
        rng = np.random.default_rng(11)
        seen = {
            "tied pairs": 0,
            "zero distances": 0,
            "negative keys": 0,
            "distinct keys, one distance": 0,
            "single item": 0,
        }
        for i in range(600):
            case = POSITION_CASES[i % len(POSITION_CASES)]
            keys, root, q_ids, g_ids = position_case(rng, case)
            spare_rows = int(rng.integers(0, 3))
            queries, positions = relevant_positions(keys, q_ids, g_ids, root, spare_rows)
            distances = distances_of(keys, root)
            ref_queries, ref_positions = blocked_pair_positions(distances, q_ids, g_ids)
            np.testing.assert_array_equal(queries, ref_queries)
            np.testing.assert_array_equal(positions, ref_positions)
            q_idx, g_idx = np.nonzero(g_ids[None, :] == q_ids[:, None])
            own = distances[q_idx, g_idx, None]
            equal_distances = np.count_nonzero(distances[q_idx] == own, axis=1)
            equal_keys = np.count_nonzero(keys[q_idx] == keys[q_idx, g_idx, None], axis=1)
            seen["tied pairs"] += int((equal_distances > 1).sum())
            seen["zero distances"] += int((distances == 0).any())
            seen["negative keys"] += int((keys < 0).any())
            seen["distinct keys, one distance"] += int((equal_distances > equal_keys).sum())
            seen["single item"] += int(distances.shape[1] == 1)
        assert all(count > 0 for count in seen.values()), seen

    def test_tie_broken_by_gallery_index(self):
        distances = np.array([[0.5, 0.2, 0.5, 0.5, 0.1]])
        gallery_ids = np.array([3, 1, 7, 7, 7])
        queries, positions = relevant_positions(distances, np.array([7]), gallery_ids, root=False)
        assert queries.tolist() == [0, 0, 0]
        assert positions.tolist() == [1, 4, 5]

    @pytest.mark.parametrize("relevant", [0, 1])
    def test_keys_with_one_square_root_tie_by_gallery_index(self, relevant):
        # 4.0 and the next double both have square root 2.0: a tie, not an order
        above = np.nextafter(4.0, 5.0)
        assert above != 4.0 and np.sqrt(above) == np.sqrt(4.0) == 2.0
        keys = np.array([[above, 4.0, 1.0, 9.0]])
        gallery_ids = np.array([8, 8, 2, 5])
        gallery_ids[relevant] = 5
        queries, positions = relevant_positions(keys, np.array([5]), gallery_ids, root=True)
        assert queries.tolist() == [0, 0]
        # item 0 is second by index though its key is the larger; item 1 third
        assert positions.tolist() == [2 + relevant, 4]

    def test_negative_squared_keys_are_distance_zero(self):
        # all three clip to 0, so they rank by gallery index, not by key
        keys = np.array([[-1e-16, -3e-16, 0.0, 2.0]])
        gallery_ids = np.array([0, 1, 0, 1])
        _, positions = relevant_positions(keys, np.array([1]), gallery_ids, root=True)
        assert positions.tolist() == [2, 4]

    def test_all_distances_equal_rank_by_gallery_index(self):
        # every pair ties, and the 12 tied pairs outnumber the 3 queries
        gallery_ids = np.tile(np.arange(3), 4)
        for root in (False, True):
            keys = np.zeros((3, 12))
            queries, positions = relevant_positions(keys, np.arange(3), gallery_ids, root)
            assert queries.tolist() == [0] * 4 + [1] * 4 + [2] * 4
            assert positions.tolist() == [1, 4, 7, 10, 2, 5, 8, 11, 3, 6, 9, 12]

    def test_no_queries_no_pairs(self):
        no_ids = np.array([], dtype=int)
        queries, positions = relevant_positions(np.zeros((0, 4)), no_ids, np.arange(4), True)
        assert queries.size == positions.size == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("root", [False, True])
    def test_nan_or_inf_key_rejected(self, bad, root):
        # in a row with no relevant item, and away from its last column
        keys = np.array([[1.0, 2.0, 3.0], [bad, 2.0, 3.0]])
        with pytest.raises(ValueError, match="non-finite"):
            relevant_positions(keys, np.array([0, 9]), np.array([0, 1, 2]), root)

    @pytest.mark.parametrize("relevant,position", [(1, 2), (3, 3)])
    def test_smaller_keys_at_the_same_distance_rank_by_gallery_index(self, relevant, position):
        # -3.0 and -1.0 sort below 0.0 but clip to its distance 0: item 1 has two
        # smaller keys ahead of it in its sorted row and one lower index among
        # the three zeros; item 3, the smallest key, has two lower indices
        keys = np.array([[-1.0, 0.0, 5.0, -3.0]])
        gallery_ids = np.array([4, 4, 4, 4])
        gallery_ids[relevant] = 7
        _, positions = relevant_positions(keys, np.array([7]), gallery_ids, root=True)
        assert positions.tolist() == [position]

    def test_square_root_collisions_several_keys_below(self):
        # three items at key 4.0 below the relevant key, all at distance 2.0
        above = np.nextafter(4.0, 5.0)
        keys = np.array([[4.0, 9.0, 4.0, above, 1.0, 4.0]])
        gallery_ids = np.array([0, 0, 0, 5, 0, 0])
        _, positions = relevant_positions(keys, np.array([5]), gallery_ids, root=True)
        # 1.0 ranks first, then the distance-2.0 items by index: 0, 2, 3
        assert positions.tolist() == [4]

    @pytest.mark.parametrize("n_g", [0, 1, 2, 3, 4, 5, 8, 9, 64, 65, 256, 257])
    @pytest.mark.parametrize("root", [False, True])
    def test_every_rank_for_gallery_sizes_around_powers_of_two(self, n_g, root):
        # the whole gallery is relevant to every query, so each search meets
        # every count from 0 to G - 1: distinct keys, keys on a coarse grid, and
        # keys around 0 (negative squared keys clip to distance 0)
        rng = np.random.default_rng(n_g)
        keys = np.stack([
            rng.permutation(n_g).astype(float),
            rng.integers(0, 3, size=n_g).astype(float),
            rng.integers(-2, 2, size=n_g) * 0.5,
        ])
        ids = np.zeros(n_g, dtype=np.int64)
        queries, positions = relevant_positions(keys, np.zeros(3, dtype=np.int64), ids, root)
        ref_queries, ref_positions = blocked_pair_positions(distances_of(keys, root), np.zeros(3), ids)
        np.testing.assert_array_equal(queries, ref_queries)
        np.testing.assert_array_equal(positions, ref_positions)
        assert positions.tolist() == list(range(1, n_g + 1)) * 3

    def test_minus_inf_squared_key_is_distance_zero(self):
        keys = np.array([[1.0, -np.inf, 4.0]])
        queries, positions = relevant_positions(keys, np.array([2]), np.array([0, 1, 2]), root=True)
        assert positions.tolist() == [3]


class TestRankingMetrics:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_q = int(rng.integers(2, 31))
            n_g = int(rng.integers(max(5, n_q), 101))
            dim = int(rng.integers(2, 8))
            g_ids = rng.integers(0, max(2, n_g // 3), size=n_g)
            q_ids = g_ids[rng.integers(0, n_g, size=n_q)]
            q_emb = rng.normal(size=(n_q, dim))
            g_emb = rng.normal(size=(n_g, dim))
            m, cmc, n = ranking_metrics(q_emb, q_ids, g_emb, g_ids)
            bm, bcmc = brute_force_metrics(q_emb, q_ids, g_emb, g_ids)
            assert abs(m - bm) < 1e-12
            for k in (1, 5, 10):
                assert abs(cmc[k] - bcmc[k]) < 1e-12

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_lexsort_fraction_reference(self, case):
        rng = np.random.default_rng(REFERENCE_CASES.index(case))
        for _ in range(40):
            n_q = int(rng.integers(1, 40))
            n_g = int(rng.integers(1, 120)) if case != "wide" else int(rng.integers(300, 700))
            dim = int(rng.integers(1, 6))
            if case == "single_relevant":
                g_ids = rng.permutation(n_g)
            else:
                g_ids = rng.integers(0, max(1, n_g // 3), size=n_g)
            q_ids = g_ids[rng.integers(0, n_g, size=n_q)]
            if case == "no_relevant":
                q_ids = np.concatenate([q_ids, [-1, -2]])
            if case.startswith("ties"):
                # a coarse integer grid forces many equal distances
                q_emb = rng.integers(-1, 2, size=(q_ids.size, dim)).astype(float)
                g_emb = rng.integers(-1, 2, size=(n_g, dim)).astype(float)
                q_emb[~q_emb.any(axis=1), 0] = 1.0
                g_emb[~g_emb.any(axis=1), 0] = 1.0
            else:
                q_emb = rng.normal(size=(q_ids.size, dim))
                g_emb = rng.normal(size=(n_g, dim))
            cosine = case.endswith("cosine")
            got = ranking_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=cosine)
            assert got == lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=cosine)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cosine", [False, True])
    def test_non_finite_distance_rejected(self, bad, cosine):
        q_emb = np.ones((3, 2))
        q_emb[1, 0] = bad
        g_emb = np.eye(2)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
            ranking_metrics(q_emb, np.array([0, 1, 0]), g_emb, np.array([0, 1]), use_cosine=cosine)

    @pytest.mark.parametrize("zero_queries,zero_gallery", [(1, 0), (0, 2), (2, 1)])
    def test_cosine_rejects_zero_norm_embeddings(self, zero_queries, zero_gallery):
        # raised before any division, which would warn (an error under this
        # suite's filters) and then fail as a non-finite distance
        q_emb, g_emb = np.ones((4, 3)), np.ones((5, 3))
        q_emb[:zero_queries] = 0.0
        g_emb[:zero_gallery] = 0.0
        ids = np.zeros(5, dtype=np.int64)
        match = f"{zero_queries} query and {zero_gallery} gallery embeddings have zero norm"
        with pytest.raises(ValueError, match=match):
            ranking_metrics(q_emb, ids[:4], g_emb, ids, use_cosine=True)
        # Euclidean ranking has no direction to take
        assert ranking_metrics(q_emb, ids[:4], g_emb, ids)[2] == 4

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        q_emb = rng.normal(size=(10, 5))
        g_emb = rng.normal(size=(40, 5))
        g_ids = rng.integers(0, 8, size=40)
        q_ids = g_ids[rng.integers(0, 40, size=10)]
        base = ranking_metrics(q_emb, q_ids, g_emb, g_ids)
        scaled = ranking_metrics(q_emb * 37.5, q_ids, g_emb * 37.5, g_ids)
        assert base[0] == scaled[0]
        assert base[1] == scaled[1]

    def test_injected_top_hit_never_decreases_ap(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            g_emb = rng.normal(size=(20, 4))
            g_ids = rng.integers(0, 5, size=20)
            q = rng.normal(size=(1, 4))
            q_id = np.array([int(rng.integers(0, 5))])
            if not (g_ids == q_id[0]).any():
                g_ids[0] = q_id[0]
            before, *_ = ranking_metrics(q, q_id, g_emb, g_ids)
            # plant an exact duplicate of the query with the right identity
            g2 = np.vstack([q, g_emb])
            ids2 = np.concatenate([[q_id[0]], g_ids])
            after, *_ = ranking_metrics(q, q_id, g2, ids2)
            assert after >= before - 1e-12

    def test_random_embeddings_within_permutation_band(self):
        # coverage check: across seeds ~95% of draws land inside; this seed does
        rng = np.random.default_rng(0)
        n_g = 60
        g_ids = np.repeat(np.arange(20), 3)
        q_ids = np.arange(20)
        q_emb = rng.normal(size=(20, 6))
        g_emb = rng.normal(size=(n_g, 6))
        observed, *_ = ranking_metrics(q_emb, q_ids, g_emb, g_ids)
        null = []
        for _ in range(200):
            null.append(ranking_metrics(q_emb, q_ids, g_emb, rng.permutation(g_ids))[0])
        lo, hi = np.percentile(null, [2.5, 97.5])
        assert lo <= observed <= hi


def traced_peak(fn, *args, **kwargs):
    """(fn's result, peak bytes tracemalloc saw while fn ran); earlier allocations excluded."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedRanking:
    """Queries are ranked in blocks of _BLOCK_ELEMENTS // G rows.

    Embeddings are exact in floating point (an integer grid; scaled signed
    axis vectors for cosine), so a block's distances equal the full
    matrix's bit for bit and the reference may build the whole matrix.
    """

    N_G = 4096
    N_Q = 100

    def case(self, seed, cosine):
        rng = np.random.default_rng(seed)
        rows = _BLOCK_ELEMENTS // self.N_G
        assert self.N_Q > 2 * rows and self.N_Q % rows, "need >= 3 blocks, the last partial"
        g_ids = rng.integers(0, 600, size=self.N_G)
        q_ids = g_ids[rng.integers(0, self.N_G, size=self.N_Q)]
        q_ids[rows : 2 * rows] = -1 - np.arange(rows)  # a whole block with no relevant item
        q_ids[rng.integers(0, self.N_Q, size=5)] = 10_000  # and a few more elsewhere
        if cosine:
            dim = 4
            q_emb = np.zeros((self.N_Q, dim))
            g_emb = np.zeros((self.N_G, dim))
            for emb in (q_emb, g_emb):
                axes = rng.integers(0, dim, size=len(emb))
                emb[np.arange(len(emb)), axes] = rng.choice([-3.0, -1.0, 2.0, 4.0], size=len(emb))
        else:
            q_emb = rng.integers(-3, 4, size=(self.N_Q, 3)).astype(float)
            g_emb = rng.integers(-3, 4, size=(self.N_G, 3)).astype(float)
        return q_emb, q_ids, g_emb, g_ids

    @pytest.mark.parametrize("cosine", [False, True])
    def test_blocks_match_lexsort_reference(self, cosine):
        for seed in range(3):
            q_emb, q_ids, g_emb, g_ids = self.case(seed, cosine)
            got = ranking_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=cosine)
            assert got == lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=cosine)
            assert got[2] < self.N_Q - _BLOCK_ELEMENTS // self.N_G

    def test_each_block_keeps_its_own_queries(self):
        # only each block's first query has a relevant item: every block yields
        # local query 0, and only the block offset keeps them four queries
        q_emb, q_ids, g_emb, g_ids = self.case(3, False)
        rows = _BLOCK_ELEMENTS // self.N_G
        firsts = np.arange(0, self.N_Q, rows)
        q_ids[:] = -1
        q_ids[firsts] = g_ids[firsts]
        got = ranking_metrics(q_emb, q_ids, g_emb, g_ids)
        assert got == lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids)
        assert got[2] == firsts.size

    @pytest.mark.xfail(
        reason="the BLAS may round a 1-row block's product apart from the whole "
        "matrix's, so cosines that tie only up to rounding rank by block shape",
        strict=False,
    )
    def test_block_shape_keeps_ranks_of_rounded_cosine_ties(self, monkeypatch):
        # normalized integer rows: query 1's cosines to gallery items 0, 1 and 3
        # are equal in the whole product and round apart in a 1-row block
        # (mAP 0.9722 against 1.0 with OpenBLAS 0.3.31)
        q_emb = np.array([[1.0, 0, 0, 0], [2, 2, 1, 2]] + [[1.0, 0, 0, 0]] * 4)
        q_ids = np.array([1, 1, 1, -1, -1, -1])
        g_emb = np.array([[1.0, 0, 0, 0], [1, 0, 0, 0], [2, 2, 0, -1], [1, 0, 0, 0]])
        g_ids = np.array([1, 1, 0, 1])
        monkeypatch.setattr(xmcl.metrics, "_BLOCK_ELEMENTS", 1)
        got = ranking_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=True)
        assert got == lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=True)

    def test_no_queries_rejected(self):
        _, _, g_emb, g_ids = self.case(0, False)
        with pytest.raises(ValueError, match="no query has a relevant gallery item"):
            ranking_metrics(np.zeros((0, 3)), np.array([], dtype=int), g_emb, g_ids)

    @pytest.mark.parametrize("tied", [False, True])
    def test_peak_memory_below_one_distance_matrix(self, tied):
        # Q = G = 1000: the full Q x G float64 matrix alone would be 7.6 MiB.  The
        # ranking works in two (rows, G) float64 buffers of at most _BLOCK_ELEMENTS
        # values, 1 MiB together; half as much again covers the pair arrays, the
        # boolean tie masks and numpy's own ufunc buffers
        rng = np.random.default_rng(5)
        n = 1000
        ids = np.arange(n) // 4
        q_emb = np.zeros((n, 32)) if tied else rng.normal(size=(n, 32))
        g_emb = np.zeros((n, 32)) if tied else rng.normal(size=(n, 32))
        _, peak = traced_peak(ranking_metrics, q_emb, ids, g_emb, ids)
        assert peak < 1.5 * 2 * 8 * _BLOCK_ELEMENTS, f"peak {peak / 2**20:.2f} MiB"


class TestEvaluate:
    def test_degenerate_task_is_perfect(self):
        spec = SynthSpec(
            task_id=0,
            latent_dim=4,
            feature_dim=8,
            num_train_ids=5,
            num_test_ids=4,
            modality_gap=0.0,
            noise_sigma=0.0,
            seed=5,
        )
        task = generate_synthetic_task(spec)
        state = init_encoder(EncoderConfig(input_dim=8, hidden_dims=(8,), embedding_dim=6, seed=0))
        rec = evaluate(state, task, step=1)
        assert rec.map == 100.0
        assert rec.r1 == 100.0

    def test_swap_direction_runs(self):
        task = generate_synthetic_task(
            SynthSpec(task_id=0, latent_dim=4, feature_dim=8, num_train_ids=5, num_test_ids=4, seed=6)
        )
        state = init_encoder(EncoderConfig(input_dim=8, hidden_dims=(8,), embedding_dim=6, seed=0))
        rec = evaluate(state, task, step=2, swap_direction=True)
        assert rec.num_queries == len(task.gallery)

    def test_cmc_monotone(self):
        task = generate_synthetic_task(
            SynthSpec(task_id=0, latent_dim=4, feature_dim=8, num_train_ids=5, num_test_ids=6, seed=8)
        )
        state = init_encoder(EncoderConfig(input_dim=8, hidden_dims=(8,), embedding_dim=6, seed=1))
        rec = evaluate(state, task, step=1)
        assert rec.r1 <= rec.r5 <= rec.r10
        assert 0 <= rec.map <= 100

    @pytest.mark.parametrize("swap", [False, True])
    def test_query_ids_absent_from_gallery_are_named(self, swap):
        # the first five missing identities, ascending and without repeats
        def split(ids):
            return Split(np.zeros((len(ids), 8)), np.array(ids, dtype=np.int64), np.ones(len(ids), bool))

        queries, gallery = split([11, 7, 3, 9, 2, 1, 5, 7, 13]), split([2, 13, 2])
        if swap:
            queries, gallery = gallery, queries
        # unvalidated: a loaded task could not be built this way
        task = TaskDataset(0, train=split([]), query=queries, gallery=gallery)
        state = init_encoder(EncoderConfig(input_dim=8, hidden_dims=(8,), embedding_dim=6, seed=0))
        with pytest.raises(ValueError, match=r"^query identities \[1, 3, 5, 7, 9\] absent from gallery$"):
            evaluate(state, task, swap_direction=swap)


class TestAggregate:
    def rec(self, task_id, m, r1):
        return MetricsRecord(task_id=task_id, step=5, map=m, r1=r1, r5=r1, r10=r1, num_queries=10)

    def test_identical_records_unchanged(self):
        out = aggregate([self.rec(0, 40.0, 30.0), self.rec(1, 40.0, 30.0)])
        assert out["mAP"] == 40.0
        assert out["r1"] == 30.0

    def test_two_task_hand_value(self):
        out = aggregate([self.rec(0, 27.19, 31.69), self.rec(1, 96.59, 94.24)])
        assert np.isclose(out["mAP"], 61.89)

    def test_three_task_mean(self):
        out = aggregate([self.rec(0, 10.0, 0.0), self.rec(1, 20.0, 0.0), self.rec(2, 40.0, 0.0)])
        assert np.isclose(out["mAP"], (10 + 20 + 40) / 3)

    def test_mixed_steps_rejected(self):
        a = MetricsRecord(task_id=0, step=1, map=1, r1=1, r5=1, r10=1, num_queries=1)
        b = MetricsRecord(task_id=1, step=2, map=1, r1=1, r5=1, r10=1, num_queries=1)
        with pytest.raises(ValueError):
            aggregate([a, b])
