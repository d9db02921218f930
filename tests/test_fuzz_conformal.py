"""Property test: the batched conformal scores equal the per-row set and the loop oracle.

Each draw is an (N, C) matrix of probability rows, continuous or on a
coarse integer grid (many tied probabilities), with zero entries and C = 1
among the draws, under a random lam, k_reg and tau.  Some draws set tau to
one of the oracle's scores, so a score equal to tau decides membership.
Hypothesis profiles are registered in conftest.py.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from test_conformal import oracle_prediction_set  # noqa: E402
from xmcl.conformal import CpConfig, prediction_set, uncertainties  # noqa: E402


@st.composite
def scoring_cases(draw):
    """(probability matrix, CpConfig)."""
    n = draw(st.integers(0, 12))
    c = draw(st.integers(1, 30))
    if draw(st.booleans()):
        event("integer grid")
        raw = draw(hnp.arrays(np.float64, (n, c), elements=st.integers(0, 3).map(float)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        raw = rng.exponential(size=(n, c)) * (rng.random((n, c)) < draw(st.floats(0.3, 1.0)))
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    probs = raw / raw.sum(axis=1, keepdims=True)
    if (probs == 0).any():
        event("zero entries")
    if c == 1:
        event("C = 1")
    lam = draw(st.floats(0.0, 2.0))
    k_reg = draw(st.integers(1, 35))
    tau = draw(st.floats(1e-3, 10.0))
    if n and draw(st.booleans()):
        event("tau equal to a score")
        row = probs[draw(st.integers(0, n - 1))].tolist()
        scores = oracle_prediction_set(row, CpConfig(lam=lam, k_reg=k_reg, tau=tau))[1]
        tau = scores[draw(st.integers(0, c - 1))]
    return probs, CpConfig(lam=lam, k_reg=k_reg, tau=tau)


@given(scoring_cases())
def test_uncertainties_equal_prediction_sets_and_oracle(case):
    probs, config = case
    sets = [prediction_set(row, config) for row in probs]
    oracle = [oracle_prediction_set(row.tolist(), config) for row in probs]
    got = uncertainties(probs, config)
    assert got.shape == (len(probs),)
    assert np.array_equal(got, [ps.unc for ps in sets])
    assert np.array_equal(got, [o[4] for o in oracle])
    assert [ps.members.tolist() for ps in sets] == [o[0] for o in oracle]
