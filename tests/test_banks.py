import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmcl.banks import (
    BankEntry,
    ReplayBanks,
    ingest_task,
    replay_epoch_batches,
    save_banks,
    score_task,
    update_bank,
)
from xmcl.conformal import CpConfig, uncertainties
from xmcl.data import Sample, SynthSpec, generate_synthetic_task
from xmcl.encoder import EncoderConfig, init_encoder, register_task_head


def mk_sample(identity, modality="sketch", value=0.0):
    return Sample(identity, modality, np.array([value, value]))


def mk_banks(*entries):
    banks = ReplayBanks()
    for identity, modality, unc in entries:
        update_bank(banks, mk_sample(identity, modality), unc, task_id=0)
    return banks


class TestUpdateBank:
    def test_empty_slot_inserted(self):
        banks = mk_banks((1, "sketch", 3.5))
        assert banks.sketch[1].uncertainty == 3.5

    def test_lower_uncertainty_replaces(self):
        banks = mk_banks((1, "sketch", 3.5))
        update_bank(banks, mk_sample(1, value=9.0), 2.0, task_id=0)
        assert banks.sketch[1].uncertainty == 2.0
        assert banks.sketch[1].sample.features[0] == 9.0

    def test_exact_tie_keeps_incumbent(self):
        banks = mk_banks((1, "sketch", 2.0))
        original = banks.sketch[1].sample
        update_bank(banks, mk_sample(1, value=9.0), 2.0, task_id=0)
        assert banks.sketch[1].sample is original

    def test_higher_uncertainty_ignored(self):
        banks = mk_banks((1, "photo", 1.5))
        update_bank(banks, mk_sample(1, "photo", value=9.0), 4.0, task_id=0)
        assert banks.photo[1].uncertainty == 1.5

    def test_empty_prediction_set_rejected(self):
        banks = ReplayBanks()
        update_bank(banks, mk_sample(1), 0.0, task_id=0)
        assert banks.is_empty()

    def test_modalities_use_separate_slots(self):
        banks = mk_banks((1, "sketch", 3.0), (1, "photo", 2.0))
        assert banks.sketch[1].uncertainty == 3.0
        assert banks.photo[1].uncertainty == 2.0

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
            update_bank(banks, mk_sample(identity, modality), unc, task_id=0)
            shadow.setdefault((modality, identity), []).append(unc)
        for (modality, identity), uncs in shadow.items():
            bank = banks.sketch if modality == "sketch" else banks.photo
            assert bank[identity].uncertainty == min(uncs)
        # capacity: at most one entry per identity per bank
        assert len(banks.sketch) == len({i for (m, i) in shadow if m == "sketch"})
        assert len(banks.photo) == len({i for (m, i) in shadow if m == "photo"})


class TestReplayBatch:
    def test_tiling_single_identity(self):
        banks = mk_banks((1, "sketch", 2.0), (1, "photo", 2.5))
        (batch,) = replay_epoch_batches(banks, p=1, k=4, rng=0)
        assert len(batch) == 4
        assert set(batch.is_sketch.tolist()) == {True, False}
        stored = {banks.sketch[1].sample.features.tobytes(), banks.photo[1].sample.features.tobytes()}
        assert {f.tobytes() for f in batch.features} <= stored

    def test_pk_shape(self):
        entries = [(i, m, 2.0) for i in range(20) for m in ("sketch", "photo")]
        banks = mk_banks(*entries)
        batches = replay_epoch_batches(banks, p=16, k=4, rng=1)
        assert len(batches[0]) == 64
        assert len(set(batches[0].ids.tolist())) == 16
        # every banked identity is replayed, each in exactly one batch
        chunks = [set(batch.ids.tolist()) for batch in batches]
        assert sorted(i for chunk in chunks for i in chunk) == list(range(20))

    def test_deterministic_per_seed(self):
        entries = [(i, "sketch", 2.0) for i in range(10)]
        banks = mk_banks(*entries)
        a = replay_epoch_batches(banks, p=4, k=2, rng=7)
        b = replay_epoch_batches(banks, p=4, k=2, rng=7)
        assert [x.ids.tolist() for x in a] == [y.ids.tolist() for y in b]

    def test_purity_only_bank_samples(self):
        entries = [(i, m, 2.0) for i in range(6) for m in ("sketch", "photo")]
        banks = mk_banks(*entries)
        stored = {e.sample.features.tobytes() for e in (*banks.sketch.values(), *banks.photo.values())}
        batches = replay_epoch_batches(banks, p=4, k=5, rng=3)
        assert {f.tobytes() for batch in batches for f in batch.features} <= stored

    def test_fewer_identities_than_p(self):
        banks = mk_banks((0, "sketch", 2.0), (1, "sketch", 2.0))
        (batch,) = replay_epoch_batches(banks, p=16, k=2, rng=0)
        assert len(batch) == 4

    def test_empty_banks_rejected(self):
        with pytest.raises(RuntimeError):
            replay_epoch_batches(ReplayBanks(), p=4, k=2, rng=0)

    def test_task_filter(self):
        banks = ReplayBanks()
        update_bank(banks, mk_sample(1), 2.0, task_id=0)
        update_bank(banks, mk_sample(2), 2.0, task_id=1)
        batches = replay_epoch_batches(banks, p=4, k=1, rng=0, task_id=0)
        assert {i for batch in batches for i in batch.ids.tolist()} == {1}


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
        scored = score_task(state, task)
        assert len(scored) == len(task.train)
        c = len(task.train_identities)
        # tau=5 always admits the top identity, and the rank penalty caps the set
        for _, unc in scored:
            assert 1.0 <= unc <= min(c, 26) + 1.0

    def test_matches_per_sample_prediction_set(self):
        from xmcl.conformal import prediction_set
        from xmcl.encoder import forward

        task, state = self.make_task_and_state()
        probs = forward(state, task.train.features, 0).probs
        rows = [
            (i, "sketch" if sketch else "photo", f.tobytes())
            for i, sketch, f in zip(task.train.ids.tolist(), task.train.is_sketch, task.train.features)
        ]
        for config in (CpConfig(), CpConfig(lam=0.05, k_reg=2, tau=0.6)):
            scored = score_task(state, task, config)
            assert [(s.identity, s.modality, s.features.tobytes()) for s, _ in scored] == rows
            assert [u for _, u in scored] == [prediction_set(p, config).unc for p in probs]
            assert all(type(u) is float for _, u in scored)

    def test_duplicate_samples_identical_uncertainty(self):
        task, state = self.make_task_and_state()
        task.train = task.train[np.r_[0 : len(task.train), 0]]
        scored = score_task(state, task)
        assert scored[0][1] == scored[-1][1]

    def test_empty_split_empty_list(self):
        task, state = self.make_task_and_state()
        task.train = task.train[:0]
        assert score_task(state, task) == []

    def test_unregistered_task_rejected(self):
        task, state = self.make_task_and_state()
        task.task_id = 5
        with pytest.raises(RuntimeError):
            score_task(state, task)

    def test_cleaner_samples_score_lower(self):
        # prototype-aligned embeddings produce near-one-hot probabilities,
        # which must score strictly lower than a uniform distribution
        sharp = np.zeros(30)
        sharp[0] = 0.97
        sharp[1:] = 0.03 / 29
        unc_sharp, unc_uniform = uncertainties(np.stack([sharp, np.full(30, 1 / 30)]))
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
        for modality, bank in (("sketch", banks.sketch), ("photo", banks.photo)):
            for i, entry in bank.items():
                row = loaded[modality, i]
                assert row["task"] == entry.task_id
                assert row["uncertainty"] == entry.uncertainty
                assert np.array(row["features"]).tobytes() == entry.sample.features.tobytes()

    def test_ingest_then_save(self, tmp_path):
        spec = SynthSpec(
            task_id=0, latent_dim=4, feature_dim=8, num_train_ids=5, num_test_ids=2, seed=4
        )
        task = generate_synthetic_task(spec)
        state = init_encoder(EncoderConfig(input_dim=8, hidden_dims=(10,), embedding_dim=6, seed=1))
        register_task_head(state, 0, 5, seed=2)
        banks = ingest_task(ReplayBanks(), state, task)
        assert set(banks.sketch) <= task.train_identities
        assert set(banks.photo) <= task.train_identities
        # every identity offered both modalities with tau=5 defaults -> filled slots
        assert len(banks.sketch) == 5
        assert len(banks.photo) == 5
        path = tmp_path / "banks.jsonl"
        save_banks(banks, path)
        assert sorted({i for _, i in read_banks_file(path)}) == banks.identities()
