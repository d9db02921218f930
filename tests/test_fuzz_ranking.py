"""Property test: ranking_metrics equals the per-row lexsort reference exactly.

Each draw is a query set and a gallery of independent sizes (Q != G), with
query identities that the gallery may not hold, which must raise the
ValueError naming them.  Embeddings are continuous, or on a coarse grid for
many tied distances: integer rows in [-2, 2], whose squared distances are
exact in every block shape.  Continuous galleries may be near-float32 ties:
copies of a few rows, each entry perturbed by about 1e-7 relative, so the
ranking's float32 sort meets keys that share a float32 value or lie one
float32 step apart and must take the exact float64 recount.  About one
gallery in four has a few hundred items, so its binary searches take 8 to
10 probes; the rest have at most 40.  The block size is drawn too, from one
query row a block up to all of them in one, so rankings span several blocks
with a partial last one.  Hypothesis profiles are registered in conftest.py.
"""

import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import xmcl.metrics  # noqa: E402
from test_metrics import lexsort_fraction_metrics  # noqa: E402
from xmcl.metrics import ranking_metrics  # noqa: E402


@st.composite
def retrieval_cases(draw):
    """(query emb, query ids, gallery emb, gallery ids, block elements).

    At least one query has a relevant gallery item, and up to three may have none.
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
    if draw(st.booleans()):
        event("integer grid")
        if wide:
            q_emb = rng.integers(-2, 3, size=(q_ids.size, dim)).astype(float)
            g_emb = rng.integers(-2, 3, size=(n_g, dim)).astype(float)
        else:
            cells = st.integers(-2, 2).map(float)
            q_emb = draw(hnp.arrays(np.float64, (q_ids.size, dim), elements=cells))
            g_emb = draw(hnp.arrays(np.float64, (n_g, dim), elements=cells))
    else:
        q_emb = rng.normal(size=(q_ids.size, dim))
        g_emb = rng.normal(size=(n_g, dim))
        if draw(st.booleans()):
            # gallery rows copied from a few others, each entry scaled by about
            # 1 + 1e-7: a query's keys to copies of one row share a float32
            # value or lie a float32 step or two apart, far above the
            # product's rounding, so every block shape orders them alike
            event("near-float32 ties")
            g_emb = g_emb[rng.integers(0, max(1, n_g // 4), size=n_g)]
            g_emb *= 1.0 + 1e-7 * rng.standard_normal(g_emb.shape)
    if missing:
        event("query ids missing from the gallery")
    if q_ids.size != n_g:
        event("Q != G")
    if rows == 1:
        event("one row a block")
    if rows < q_ids.size:
        event("several blocks" + (", the last partial" if q_ids.size % rows else ""))
    return q_emb, q_ids, g_emb, g_ids, block_elements


@given(retrieval_cases())
def test_ranking_metrics_equals_lexsort_reference(case):
    q_emb, q_ids, g_emb, g_ids, block_elements = case
    missing = sorted(set(q_ids.tolist()) - set(g_ids.tolist()))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(xmcl.metrics, "_BLOCK_ELEMENTS", block_elements)
        if missing:
            with pytest.raises(
                ValueError, match=re.escape(f"query identities {missing[:5]} absent from gallery")
            ):
                ranking_metrics(q_emb, q_ids, g_emb, g_ids)
            return
        got = ranking_metrics(q_emb, q_ids, g_emb, g_ids)
    assert got == lexsort_fraction_metrics(q_emb, q_ids, g_emb, g_ids)
