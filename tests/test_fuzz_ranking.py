"""Property test: ranking_metrics equals the per-row lexsort reference exactly.

Each draw is a query set and a gallery of independent sizes (Q != G), with
embeddings on a coarse integer grid (many tied distances) or continuous,
Euclidean or cosine distances, and query identities that the gallery may
not hold.  Hypothesis profiles are registered in conftest.py.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from test_metrics import lexsort_fraction_metrics  # noqa: E402
from xmcl.metrics import ranking_metrics  # noqa: E402


@st.composite
def retrieval_cases(draw):
    """(query emb, query ids, gallery emb, gallery ids, cosine) with >= 1 relevant query."""
    n_g = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    g_ids = draw(hnp.arrays(np.int64, n_g, elements=st.integers(0, max(1, n_g // 2))))
    q_ids = np.array(draw(st.lists(st.sampled_from(g_ids.tolist()), min_size=1, max_size=30)))
    missing = draw(st.lists(st.integers(-5, -1), max_size=3))
    q_ids = np.concatenate([q_ids, np.array(missing, dtype=np.int64)])
    if draw(st.booleans()):
        event("integer grid")
        cells = st.integers(-2, 2).map(float)
        q_emb = draw(hnp.arrays(np.float64, (q_ids.size, dim), elements=cells))
        g_emb = draw(hnp.arrays(np.float64, (n_g, dim), elements=cells))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q_emb = rng.normal(size=(q_ids.size, dim))
        g_emb = rng.normal(size=(n_g, dim))
    cosine = draw(st.booleans())
    if cosine:
        # a zero row has no direction
        q_emb[~q_emb.any(axis=1), 0] = 1.0
        g_emb[~g_emb.any(axis=1), 0] = 1.0
    if missing:
        event("query ids missing from the gallery")
    if q_ids.size != n_g:
        event("Q != G")
    return q_emb, q_ids, g_emb, g_ids, cosine


@given(retrieval_cases())
def test_ranking_metrics_equals_lexsort_reference(case):
    q_emb, q_ids, g_emb, g_ids, cosine = case
    event("cosine" if cosine else "euclidean")
    got = ranking_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=cosine)
    assert got == lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=cosine)
