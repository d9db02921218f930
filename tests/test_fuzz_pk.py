"""Property test: pk_epoch_batches equals the per-identity rng.choice sampler.

Each draw is a train split of 2 to 12 identities with 1 to 40 rows each,
sizes below K among them, its rows shuffled across identities; P and K; the
bit generator (PCG64, PCG64DXSM, SFC64 or Philox, which all take the one raw
draw an epoch); and whether the generator starts on a buffered 32-bit half.
The batches must equal pk_oracle's, and the generator must be left in the
oracle's state.  Hypothesis profiles are registered in conftest.py.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, strategies as st  # noqa: E402

from test_array_oracles import (  # noqa: E402
    BIT_GENERATORS,
    Sample,
    generator,
    generator_state,
    pk_oracle,
    rows_of,
    rows_of_split,
    split_of,
)
from xmcl.data import identity_groups, pk_epoch_batches  # noqa: E402


@st.composite
def pk_cases(draw):
    """(samples, P, K, bit generator, seed, buffered start)."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=2, max_size=12))
    k = draw(st.integers(1, 8))
    p = draw(st.integers(2, len(sizes)))
    # one distinct feature value per row names the row in a batch
    samples = [
        Sample(identity, "sketch" if row % 2 else "photo", np.array([float(len(sizes) * row + identity)]))
        for identity, n in enumerate(sizes)
        for row in range(n)
    ]
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(samples))
    bit_generator = draw(st.sampled_from(BIT_GENERATORS))
    buffered = draw(st.booleans())
    event(f"{bit_generator}, buffered start {buffered}")
    if min(sizes) < k:
        event("an identity below K")
    return [samples[i] for i in order], p, k, bit_generator, draw(st.integers(0, 2**32 - 1)), buffered


@given(pk_cases())
def test_pk_epoch_batches_equal_the_choice_calls(case):
    samples, p, k, bit_generator, seed, buffered = case
    train = split_of(samples)
    a, b = generator(bit_generator, seed), generator(bit_generator, seed)
    if buffered:
        a.choice(5, 3, replace=False)
        b.choice(5, 3, replace=False)
    expected = pk_oracle(samples, p, k, a)
    got = pk_epoch_batches(identity_groups(train), p, k, b)
    assert [rows_of_split(train[rows]) for rows in got] == [rows_of(batch) for batch in expected]
    assert generator_state(a) == generator_state(b)
