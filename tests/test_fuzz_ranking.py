"""Property test: ranking_metrics equals the per-row lexsort reference exactly.

Each draw is a query set and a gallery of independent sizes (Q != G), with
Euclidean or cosine distances and query identities that the gallery may not
hold.  Embeddings are continuous, or on a coarse grid for many tied
distances: integer rows in [-2, 2], or, for cosine ranked in several
blocks, scaled signed axis vectors.  The cosines of other grid rows tie
only up to rounding, and a block's product may round apart from the whole
matrix's (test_metrics.py records such a case as an expected failure); one
block of every query has the reference's product bit for bit.  About one
gallery in four has a few hundred items, so its binary searches take 8 to
10 probes; the rest have at most 40.  The block size is drawn too, from one
query row a block up to all of them in one, so rankings span several blocks
with a partial last one.  Hypothesis profiles are registered in conftest.py.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import xmcl.metrics  # noqa: E402
from test_metrics import lexsort_fraction_metrics  # noqa: E402
from xmcl.metrics import ranking_metrics  # noqa: E402


def axis_rows(rng, n, dim):
    """n rows, each one axis vector scaled by -3, -1, 2 or 4."""
    rows = np.zeros((n, dim))
    rows[np.arange(n), rng.integers(0, dim, size=n)] = rng.choice([-3.0, -1.0, 2.0, 4.0], size=n)
    return rows


@st.composite
def retrieval_cases(draw):
    """(query emb, query ids, gallery emb, gallery ids, cosine, block elements).

    At least one query has a relevant gallery item.
    """
    wide = draw(st.sampled_from([False, False, False, True]))
    n_g = draw(st.integers(150, 600) if wide else st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if wide:
        event("wide gallery")
        g_ids = rng.integers(0, n_g // 2, size=n_g)
    else:
        g_ids = draw(hnp.arrays(np.int64, n_g, elements=st.integers(0, max(1, n_g // 2))))
    q_ids = np.array(draw(st.lists(st.sampled_from(g_ids.tolist()), min_size=1, max_size=30)))
    missing = draw(st.lists(st.integers(-5, -1), max_size=3))
    q_ids = np.concatenate([q_ids, np.array(missing, dtype=np.int64)])
    # rows a block is block_elements // G, at least one
    block_elements = draw(st.integers(1, n_g * (q_ids.size + 1)))
    rows = max(1, block_elements // n_g)
    grid = draw(st.booleans())
    cosine = draw(st.booleans())
    if grid and cosine and rows < q_ids.size:
        # several blocks: only exact products tie in every block shape
        event("axis grid")
        q_emb, g_emb = axis_rows(rng, q_ids.size, dim), axis_rows(rng, n_g, dim)
    elif grid:
        event("integer grid")
        if wide:
            q_emb = rng.integers(-2, 3, size=(q_ids.size, dim)).astype(float)
            g_emb = rng.integers(-2, 3, size=(n_g, dim)).astype(float)
        else:
            cells = st.integers(-2, 2).map(float)
            q_emb = draw(hnp.arrays(np.float64, (q_ids.size, dim), elements=cells))
            g_emb = draw(hnp.arrays(np.float64, (n_g, dim), elements=cells))
        if cosine:
            # a zero row has no direction
            q_emb[~q_emb.any(axis=1), 0] = 1.0
            g_emb[~g_emb.any(axis=1), 0] = 1.0
    else:
        q_emb = rng.normal(size=(q_ids.size, dim))
        g_emb = rng.normal(size=(n_g, dim))
    if missing:
        event("query ids missing from the gallery")
    if q_ids.size != n_g:
        event("Q != G")
    if rows == 1:
        event("one row a block")
    if rows < q_ids.size:
        event("several blocks" + (", the last partial" if q_ids.size % rows else ""))
    return q_emb, q_ids, g_emb, g_ids, cosine, block_elements


@given(retrieval_cases())
def test_ranking_metrics_equals_lexsort_reference(case):
    q_emb, q_ids, g_emb, g_ids, cosine, block_elements = case
    event("cosine" if cosine else "euclidean")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(xmcl.metrics, "_BLOCK_ELEMENTS", block_elements)
        got = ranking_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=cosine)
    assert got == lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids, use_cosine=cosine)
