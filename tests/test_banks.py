import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcl.banks import (
    ReplayBanks,
    admit,
    ingest_task,
    replay_epoch_batches,
    save_banks,
    score_task,
)
from xmcl.conformal import CpConfig, uncertainties
from xmcl.data import Split, SynthSpec, generate_synthetic_task
from xmcl.encoder import EncoderConfig, init_encoder, register_task_head


def rows_of(*entries):
    """A Split of (identity, modality, value) rows, each row's features [value, value]."""
    return Split(
        np.array([[value, value] for _, _, value in entries], dtype=np.float64),
        np.array([identity for identity, _, _ in entries], dtype=np.int64),
        np.array([modality == "sketch" for _, modality, _ in entries], dtype=bool),
    )


def offer(banks, identity, modality="sketch", unc=2.0, value=0.0, task_id=0):
    """Offer one candidate row."""
    return admit(banks, rows_of((identity, modality, value)), np.array([unc]), task_id)


def mk_banks(*entries):
    banks = ReplayBanks()
    for identity, modality, unc in entries:
        offer(banks, identity, modality, unc)
    return banks


def slot(banks, identity, modality="sketch"):
    """(uncertainty, features, task) of the one row stored for the slot."""
    (row,) = np.flatnonzero(
        (banks.rows.ids == identity) & (banks.rows.is_sketch == (modality == "sketch"))
    )
    return banks.uncs[row], banks.rows.features[row], banks.tasks[row]


def slots(banks):
    """{(modality, identity): uncertainty}, after checking one row per slot."""
    keys = [
        ("sketch" if sketch else "photo", identity)
        for identity, sketch in zip(banks.rows.ids.tolist(), banks.rows.is_sketch.tolist())
    ]
    assert len(set(keys)) == len(keys)
    return dict(zip(keys, banks.uncs.tolist()))


class TestUpdateBank:
    def test_empty_slot_inserted(self):
        banks = mk_banks((1, "sketch", 3.5))
        assert slots(banks) == {("sketch", 1): 3.5}

    def test_lower_uncertainty_replaces(self):
        banks = mk_banks((1, "sketch", 3.5))
        offer(banks, 1, value=9.0, unc=2.0)
        unc, features, _ = slot(banks, 1)
        assert unc == 2.0
        assert features[0] == 9.0

    def test_exact_tie_keeps_incumbent(self):
        banks = mk_banks((1, "sketch", 2.0))
        offer(banks, 1, value=9.0, unc=2.0, task_id=1)
        unc, features, task = slot(banks, 1)
        assert (unc, features[0], task) == (2.0, 0.0, 0)
        # between tied candidates of one offer, the first offered wins
        fresh = admit(ReplayBanks(), rows_of((1, "sketch", 5.0), (1, "sketch", 6.0)), np.array([2.0, 2.0]), 0)
        assert slot(fresh, 1)[1][0] == 5.0

    def test_higher_uncertainty_ignored(self):
        banks = mk_banks((1, "photo", 1.5))
        offer(banks, 1, "photo", value=9.0, unc=4.0)
        assert slot(banks, 1, "photo")[0] == 1.5

    def test_empty_prediction_set_rejected(self):
        banks = ReplayBanks()
        offer(banks, 1, unc=0.0)
        assert banks.is_empty()
        offer(banks, 1, unc=3.0)
        offer(banks, 1, value=9.0, unc=0.0)
        assert slots(banks) == {("sketch", 1): 3.0}

    def test_modalities_use_separate_slots(self):
        banks = mk_banks((1, "sketch", 3.0), (1, "photo", 2.0))
        assert slots(banks) == {("sketch", 1): 3.0, ("photo", 1): 2.0}
        # an identity's sketch row is stored before its photo row
        assert banks.rows.is_sketch.tolist() == [True, False]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=49),
                st.sampled_from(["sketch", "photo"]),
                st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_min_retention_against_shadow_list(self, offers):
        banks = ReplayBanks()
        shadow: dict[tuple[str, int], list[float]] = {}
        for identity, modality, unc in offers:
            offer(banks, identity, modality, unc)
            shadow.setdefault((modality, identity), []).append(unc)
        expected = {key: min(uncs) for key, uncs in shadow.items()}
        # capacity: at most one entry per identity per bank (checked by slots)
        assert slots(banks) == expected
        # the same offers as one candidate set keep the same minima
        together = rows_of(*((identity, modality, 0.0) for identity, modality, _ in offers))
        uncs = np.array([unc for _, _, unc in offers])
        assert slots(admit(ReplayBanks(), together, uncs, 0)) == expected


def replay_batches(banks, *args, **kwargs):
    """The replay epoch's index batches, checked and gathered from the stored rows."""
    batches = replay_epoch_batches(banks, *args, **kwargs)
    assert all(rows.dtype == np.int64 and rows.ndim == 1 for rows in batches)
    return [banks.rows[rows] for rows in batches]


class TestReplayBatch:
    def test_tiling_single_identity(self):
        banks = mk_banks((1, "sketch", 2.0), (1, "photo", 2.5))
        (batch,) = replay_batches(banks, p=1, k=4, rng=np.random.default_rng(0), task_id=0)
        assert len(batch) == 4
        assert set(batch.is_sketch.tolist()) == {True, False}
        stored = {f.tobytes() for f in banks.rows.features}
        assert {f.tobytes() for f in batch.features} <= stored

    def test_pk_shape(self):
        entries = [(i, m, 2.0) for i in range(20) for m in ("sketch", "photo")]
        banks = mk_banks(*entries)
        batches = replay_batches(banks, p=16, k=4, rng=np.random.default_rng(1), task_id=0)
        assert len(batches[0]) == 64
        assert len(set(batches[0].ids.tolist())) == 16
        # every banked identity is replayed, each in exactly one batch
        chunks = [set(batch.ids.tolist()) for batch in batches]
        assert sorted(i for chunk in chunks for i in chunk) == list(range(20))

    def test_deterministic_per_seed(self):
        entries = [(i, "sketch", 2.0) for i in range(10)]
        banks = mk_banks(*entries)
        a = replay_epoch_batches(banks, p=4, k=2, rng=np.random.default_rng(7), task_id=0)
        b = replay_epoch_batches(banks, p=4, k=2, rng=np.random.default_rng(7), task_id=0)
        assert [x.tolist() for x in a] == [y.tolist() for y in b]

    def test_purity_only_bank_samples(self):
        entries = [(i, m, 2.0) for i in range(6) for m in ("sketch", "photo")]
        banks = mk_banks(*entries)
        stored = {f.tobytes() for f in banks.rows.features}
        batches = replay_batches(banks, p=4, k=5, rng=np.random.default_rng(3), task_id=0)
        assert {f.tobytes() for batch in batches for f in batch.features} <= stored

    def test_fewer_identities_than_p(self):
        banks = mk_banks((0, "sketch", 2.0), (1, "sketch", 2.0))
        (batch,) = replay_batches(banks, p=16, k=2, rng=np.random.default_rng(0), task_id=0)
        assert len(batch) == 4

    def test_empty_banks_rejected(self):
        with pytest.raises(RuntimeError):
            replay_epoch_batches(ReplayBanks(), p=4, k=2, rng=np.random.default_rng(0), task_id=0)

    def test_task_filter(self):
        banks = ReplayBanks()
        offer(banks, 1, task_id=0)
        offer(banks, 2, task_id=1)
        batches = replay_batches(banks, p=4, k=1, rng=np.random.default_rng(0), task_id=0)
        assert {i for batch in batches for i in batch.ids.tolist()} == {1}
        # a photo from task 1 brings its identity's task-0 sketch along
        offer(banks, 1, "photo", value=9.0, task_id=1)
        (batch,) = replay_batches(banks, p=4, k=2, rng=np.random.default_rng(0), task_id=1)
        assert sorted(zip(batch.ids.tolist(), batch.is_sketch.tolist())) == [
            (1, False), (1, True), (2, True), (2, True)
        ]


class TestScoreTask:
    def make_task_and_state(self, seed=0):
        spec = SynthSpec(
            task_id=0,
            latent_dim=4,
            feature_dim=8,
            num_train_ids=6,
            num_test_ids=3,
            sketches_per_id=2,
            photos_per_id=2,
            noise_sigma=0.05,
            seed=seed,
        )
        task = generate_synthetic_task(spec)
        state = init_encoder(EncoderConfig(input_dim=8, hidden_dims=(10,), embedding_dim=6, seed=1))
        register_task_head(state, 0, 6, seed=2)
        return task, state

    def test_one_uncertainty_per_sample(self):
        task, state = self.make_task_and_state()
        scored = score_task(state, task, CpConfig())
        assert len(scored) == len(task.train)
        c = len(task.train_identities)
        # tau=5 always admits the top identity, and the rank penalty caps the set
        for unc in scored:
            assert 1.0 <= unc <= min(c, 26) + 1.0

    def test_matches_per_sample_prediction_set(self):
        from xmcl.conformal import prediction_set
        from xmcl.encoder import forward

        task, state = self.make_task_and_state()
        probs = forward(state, task.train.features, 0).probs
        for config in (CpConfig(), CpConfig(lam=0.05, k_reg=2, tau=0.6)):
            scored = score_task(state, task, config)
            assert scored.dtype == np.float64 and scored.shape == (len(task.train),)
            assert scored.tolist() == [prediction_set(p, config).unc for p in probs]

    @pytest.mark.parametrize("standard", [False, True])
    def test_row_blocks_equal_one_whole_pass(self, standard):
        from xmcl.banks import _ROW_BLOCK
        from xmcl.encoder import forward

        task, state = self.make_task_and_state()
        if standard:
            # the standard task's shape: 400 rows, 64-d features, a 50-identity head
            rng = np.random.default_rng(3)
            ids = np.repeat(np.arange(50), 8)
            task.train = Split(rng.normal(size=(400, 64)), ids, np.arange(400) % 8 < 4)
            state = register_task_head(init_encoder(EncoderConfig(seed=4)), 0, 50, seed=5)
        else:
            task.train = task.train[np.arange(2 * _ROW_BLOCK + 5) % len(task.train)]
        assert len(task.train) % _ROW_BLOCK
        probs = forward(state, task.train.features, 0).probs
        # the small sets of the second config make uncertainties read more last bits
        for config in (CpConfig(), CpConfig(lam=0.05, k_reg=2, tau=0.6)):
            assert np.array_equal(score_task(state, task, config), uncertainties(probs, config))

    def test_duplicate_samples_identical_uncertainty(self):
        task, state = self.make_task_and_state()
        task.train = task.train[np.r_[0 : len(task.train), 0]]
        scored = score_task(state, task, CpConfig())
        assert scored[0] == scored[-1]

    def test_empty_split_empty_list(self):
        task, state = self.make_task_and_state()
        task.train = task.train[:0]
        assert score_task(state, task, CpConfig()).shape == (0,)

    def test_unregistered_task_rejected(self):
        task, state = self.make_task_and_state()
        task.task_id = 5
        with pytest.raises(RuntimeError):
            score_task(state, task, CpConfig())

    def test_cleaner_samples_score_lower(self):
        # prototype-aligned embeddings produce near-one-hot probabilities,
        # which must score strictly lower than a uniform distribution
        sharp = np.zeros(30)
        sharp[0] = 0.97
        sharp[1:] = 0.03 / 29
        unc_sharp, unc_uniform = uncertainties(np.stack([sharp, np.full(30, 1 / 30)]), CpConfig())
        assert unc_sharp < unc_uniform


def read_banks_file(path):
    """banks.jsonl parsed with json: {(modality, identity): row}."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return {(row["modality"], row["id"]): row for row in rows}


class TestSerialization:
    def test_round_trip(self, tmp_path):
        entries = [(i, m, 1.0 + i / 7) for i in range(5) for m in ("sketch", "photo")]
        banks = mk_banks(*entries)
        path = tmp_path / "banks.jsonl"
        save_banks(banks, path)
        loaded = read_banks_file(path)
        assert set(loaded) == {(m, i) for m in ("sketch", "photo") for i in range(5)}
        stored = banks.rows
        for i, sketch, unc, task, features in zip(
            stored.ids.tolist(), stored.is_sketch.tolist(), banks.uncs, banks.tasks, stored.features
        ):
            row = loaded["sketch" if sketch else "photo", i]
            assert row["task"] == task
            assert row["uncertainty"] == unc
            assert np.array(row["features"]).tobytes() == features.tobytes()

    def test_features_written_to_the_last_bit(self, tmp_path):
        # repeating binary fractions, a subnormal, signed zero and a huge value,
        # each written as format(float(v), ".17g") of the stored double
        features = np.array([[1 / 3, -0.0, 5e-324], [1e308, -2.5e-17, 0.1 + 0.2]])
        rows = Split(features, np.array([4, 4]), np.array([True, False]))
        banks = admit(ReplayBanks(), rows, np.array([0.5, 0.25]), 1)
        path = tmp_path / "banks.jsonl"
        save_banks(banks, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        written = [line.split('"features":[')[1].removesuffix("]}") for line in lines]
        assert written == [",".join(format(float(v), ".17g") for v in row) for row in features]
        assert [json.loads(line)["features"] for line in lines] == features.tolist()

    def test_ingest_then_save(self, tmp_path):
        spec = SynthSpec(
            task_id=0, latent_dim=4, feature_dim=8, num_train_ids=5, num_test_ids=2, seed=4
        )
        task = generate_synthetic_task(spec)
        state = init_encoder(EncoderConfig(input_dim=8, hidden_dims=(10,), embedding_dim=6, seed=1))
        register_task_head(state, 0, 5, seed=2)
        banks = ingest_task(ReplayBanks(), state, task, CpConfig())
        assert set(banks.rows.ids.tolist()) <= task.train_identities
        # every identity offered both modalities with tau=5 defaults -> filled slots
        assert np.count_nonzero(banks.rows.is_sketch) == 5
        assert np.count_nonzero(~banks.rows.is_sketch) == 5
        path = tmp_path / "banks.jsonl"
        save_banks(banks, path)
        rows = read_banks_file(path)
        assert len(rows) == 10
        assert sorted({i for _, i in rows}) == sorted(task.train_identities)
