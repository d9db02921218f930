import tracemalloc

import numpy as np
import pytest

from xmcl.data import (
    ID_STRIDE,
    DatasetValidationError,
    Split,
    SynthSpec,
    SynthSpecError,
    TaskFileError,
    generate_synthetic_task,
    identity_groups,
    load_task,
    pk_epoch_batches,
    save_task,
)

SMALL = SynthSpec(
    task_id=0,
    latent_dim=4,
    feature_dim=8,
    num_train_ids=10,
    num_test_ids=5,
    sketches_per_id=2,
    photos_per_id=3,
    modality_gap=0.4,
    noise_sigma=0.05,
    seed=7,
)


class TestGeneration:
    def test_deterministic(self):
        a = generate_synthetic_task(SMALL)
        b = generate_synthetic_task(SMALL)
        for (_, sa), (_, sb) in zip(a.splits(), b.splits()):
            assert sa.ids.tolist() == sb.ids.tolist()
            assert sa.features.tobytes() == sb.features.tobytes()

    def test_counts_and_disjointness(self):
        spec = SynthSpec(
            task_id=0, latent_dim=4, feature_dim=8, num_train_ids=50, num_test_ids=20, seed=1
        )
        ds = generate_synthetic_task(spec)
        assert len(ds.train_identities) == 50
        assert len(ds.test_identities) == 20
        assert not ds.train_identities & ds.test_identities

    def test_degenerate_gap_makes_modalities_coincide(self):
        spec = SynthSpec(
            task_id=0,
            latent_dim=4,
            feature_dim=8,
            num_train_ids=4,
            num_test_ids=2,
            modality_gap=0.0,
            noise_sigma=0.0,
            seed=3,
        )
        ds = generate_synthetic_task(spec)
        for identity in ds.test_identities:
            sketches = ds.query.features[ds.query.ids == identity]
            photos = ds.gallery.features[ds.gallery.ids == identity]
            np.testing.assert_allclose(sketches[0], photos[0], atol=1e-12)

    def test_cross_task_identity_disjointness(self):
        a = generate_synthetic_task(SMALL)
        b = generate_synthetic_task(
            SynthSpec(
                task_id=1,
                latent_dim=4,
                feature_dim=8,
                num_train_ids=10,
                num_test_ids=5,
                seed=7,
            )
        )
        ids_a = a.train_identities | a.test_identities
        ids_b = b.train_identities | b.test_identities
        assert not ids_a & ids_b

    def test_task_shift_changes_features(self):
        base = generate_synthetic_task(SMALL)
        shifted = generate_synthetic_task(
            SynthSpec(
                task_id=0,
                latent_dim=4,
                feature_dim=8,
                num_train_ids=10,
                num_test_ids=5,
                sketches_per_id=2,
                photos_per_id=3,
                modality_gap=0.4,
                task_shift=1.0,
                noise_sigma=0.05,
                seed=7,
            )
        )
        assert not np.allclose(base.train.features[0], shifted.train.features[0])

    def test_invalid_spec_rejected(self):
        with pytest.raises(SynthSpecError):
            SynthSpec(num_train_ids=0)
        with pytest.raises(SynthSpecError):
            SynthSpec(noise_sigma=-0.1)

    def test_task_id_bounded_by_int64_labels(self):
        # the largest label, task_id * ID_STRIDE + 69, must fit int64
        largest = (2**63 - 1 - 70) // ID_STRIDE
        task = generate_synthetic_task(SynthSpec(task_id=largest))
        assert task.gallery.ids.max() == largest * ID_STRIDE + 69
        for task_id in (largest + 1, 10**30):
            with pytest.raises(SynthSpecError, match="task_id .* past int64"):
                SynthSpec(task_id=task_id)

    def test_peak_is_the_task_plus_one_test_block(self):
        # train noise is drawn into train's own buffer, and only the test
        # identities' block is drawn for query and gallery to copy from; a
        # quarter of the task covers the latents, geometry and centre products
        spec = SynthSpec(num_train_ids=200, num_test_ids=20)
        generate_synthetic_task(spec)
        tracemalloc.start()
        try:
            task = generate_synthetic_task(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        final = sum(a.nbytes for _, s in task.splits() for a in (s.features, s.ids, s.is_sketch))
        rows_per_id = spec.sketches_per_id + spec.photos_per_id
        test_block = spec.num_test_ids * rows_per_id * spec.feature_dim * 8
        assert peak <= final + test_block + final // 4


class TestTaskFiles:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic_task(SMALL)
        path = tmp_path / "task.jsonl"
        save_task(ds, path)
        loaded = load_task(path)
        assert loaded.task_id == ds.task_id
        assert len(loaded.train) == len(ds.train)
        for (name_a, sa), (name_b, sb) in zip(ds.splits(), loaded.splits()):
            assert name_a == name_b
            assert sa.ids.tolist() == sb.ids.tolist()
            assert sa.is_sketch.tolist() == sb.is_sketch.tolist()
            assert sa.features.tobytes() == sb.features.tobytes()

    def test_reload_and_save_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_task(generate_synthetic_task(SMALL), a)
        save_task(load_task(a), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "features", ['["1.5", 2.0]', "[true, 1.0]", "[1.0, false]", '["a", "b"]'],
        ids=["numeric_string", "true", "false", "string"],
    )
    def test_non_numeric_features_name_line(self, tmp_path, features):
        # np.asarray would load ["1.5", true] as [1.5, 1.0]
        row = '{{"task":0,"id":1,"modality":"sketch","split":"train","features":{}}}'
        path = tmp_path / "bad.jsonl"
        path.write_text(row.format("[1.0, 2.0]") + "\n" + row.format(features) + "\n")
        with pytest.raises(TaskFileError, match="line 2: .*not a JSON number") as err:
            load_task(path)
        assert err.value.line == 2

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = generate_synthetic_task(SMALL)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_task(ds, p1)
        save_task(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"task":0,"id":1,"modality":"sketch","split":"train","features":[1.0]}'
        path.write_text(good + "\nnot json at all\n")
        with pytest.raises(TaskFileError) as err:
            load_task(path)
        assert err.value.line == 2

    def test_integer_too_large_for_a_float_names_line(self, tmp_path):
        row = '{{"task":0,"id":1,"modality":"sketch","split":"train","features":{}}}'
        path = tmp_path / "bad.jsonl"
        path.write_text(row.format("[1.0]") + "\n" + row.format(f"[{10**400}]") + "\n")
        with pytest.raises(TaskFileError, match="line 2: .*too large") as err:
            load_task(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "field, value",
        [("id", "0.9"), ("id", '"2"'), ("id", "true"), ("task", "0.0"), ("task", "null")],
    )
    def test_non_integer_task_or_id_names_line(self, tmp_path, field, value):
        # int() would merge id 0.9 into identity 0 and accept the string "2"
        row = '{{"task":{},"id":{},"modality":"sketch","split":"train","features":[1.0]}}'
        bad = row.format(value, 1) if field == "task" else row.format(0, value)
        path = tmp_path / "bad.jsonl"
        path.write_text(row.format(0, 1) + "\n" + bad + "\n")
        with pytest.raises(TaskFileError, match=f"line 2: {field} must be an integer") as err:
            load_task(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "field, value", [("id", 2**63), ("id", 10**23), ("id", -(2**63) - 1), ("task", 2**64)]
    )
    def test_task_or_id_past_int64_names_line(self, tmp_path, field, value):
        row = '{{"task":{},"id":{},"modality":"sketch","split":"train","features":[1.0]}}'
        bad = row.format(value, 1) if field == "task" else row.format(0, value)
        path = tmp_path / "bad.jsonl"
        path.write_text(row.format(0, 1) + "\n" + bad + "\n")
        with pytest.raises(TaskFileError, match=f"line 2: {field} {value} does not fit") as err:
            load_task(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("value", [-1, -3, -(2**63)])
    def test_negative_task_id_names_line(self, tmp_path, value):
        # a task id seeds the task's generators, which take no negative entropy
        row = '{{"task":{},"id":1,"modality":"sketch","split":"train","features":[1.0]}}'
        path = tmp_path / "bad.jsonl"
        path.write_text(row.format(0) + "\n" + row.format(value) + "\n")
        with pytest.raises(TaskFileError, match=f"line 2: task must be >= 0, got {value}$") as err:
            load_task(path)
        assert err.value.line == 2

    def test_int64_extremes_load(self, tmp_path):
        row = '{{"task":0,"id":{},"modality":"{}","split":"{}","features":[1.0]}}'
        lo, hi = -(2**63), 2**63 - 1
        rows = [
            row.format(lo, "sketch", "train"),
            row.format(hi, "sketch", "query"),
            row.format(hi, "photo", "gallery"),
        ]
        path = tmp_path / "extremes.jsonl"
        path.write_text("\n".join(rows) + "\n")
        task = load_task(path)
        assert task.train.ids.tolist() == [lo] and task.gallery.ids.tolist() == [hi]

    def test_overlapping_train_test_identity_rejected(self, tmp_path):
        rows = [
            '{"task":0,"id":1,"modality":"sketch","split":"train","features":[1.0]}',
            '{"task":0,"id":1,"modality":"sketch","split":"query","features":[1.0]}',
            '{"task":0,"id":1,"modality":"photo","split":"gallery","features":[1.0]}',
        ]
        path = tmp_path / "overlap.jsonl"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetValidationError, match="train-test-disjoint"):
            load_task(path)

    def test_inconsistent_feature_dims_rejected(self, tmp_path):
        rows = [
            '{"task":0,"id":1,"modality":"sketch","split":"query","features":[1.0]}',
            '{"task":0,"id":1,"modality":"photo","split":"gallery","features":[1.0,2.0]}',
        ]
        path = tmp_path / "dims.jsonl"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetValidationError, match="feature-dim-constant"):
            load_task(path)

    def test_query_identity_missing_from_gallery_rejected(self, tmp_path):
        rows = [
            '{"task":0,"id":5,"modality":"sketch","split":"query","features":[1.0]}',
            '{"task":0,"id":6,"modality":"photo","split":"gallery","features":[1.0]}',
        ]
        path = tmp_path / "missing.jsonl"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetValidationError, match="query-covered-by-gallery"):
            load_task(path)


def make_split(rows: list[tuple[int, bool, np.ndarray]]) -> Split:
    ids, sketch, feats = zip(*rows)
    return Split(np.array(feats, dtype=float), np.array(ids, dtype=np.int64), np.array(sketch))


class TestPkSampling:
    def make_train(self, num_ids=20, per_id=6):
        return make_split(
            [(i, j % 2 == 0, np.array([float(i), float(j)])) for i in range(num_ids) for j in range(per_id)]
        )

    def test_shape_16x4(self):
        train = self.make_train()
        batches = pk_epoch_batches(identity_groups(train), 16, 4, np.random.default_rng(0))
        for batch in batches:
            assert batch.shape == (64,)
            assert len(set(train.ids[batch].tolist())) == 16

    def test_upsample_single_sample_identity(self):
        train = make_split([(0, True, np.zeros(2))] + [(1, False, np.ones(2))] * 4)
        (batch,) = pk_epoch_batches(identity_groups(train), 2, 4, np.random.default_rng(1))
        zero = batch[train.ids[batch] == 0]
        assert zero.tolist() == [0, 0, 0, 0]

    def test_deterministic_per_seed(self):
        train = self.make_train()
        groups = identity_groups(train)
        a = np.concatenate(pk_epoch_batches(groups, 8, 4, np.random.default_rng(42)))
        b = np.concatenate(pk_epoch_batches(groups, 8, 4, np.random.default_rng(42)))
        assert a.tolist() == b.tolist()
        assert train.features[a].tobytes() == train.features[b].tobytes()

    def test_grouped_once_the_epochs_are_the_same(self):
        # identity i has i + 1 rows, interleaved through the split: some draw
        # K = 3 with replacement, the rest without
        rows = [(i, j % 2 == 0, np.array([i, j], dtype=float)) for j in range(9) for i in range(j, 9)]
        train = make_split(rows)
        groups = identity_groups(train)
        rng, grouped_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):
            # a fresh grouping each epoch, against the one tuple reused
            batches = pk_epoch_batches(identity_groups(train), 4, 3, rng)
            grouped = pk_epoch_batches(groups, 4, 3, grouped_rng)
            assert [b.tolist() for b in grouped] == [b.tolist() for b in batches]
        assert grouped_rng.bit_generator.state == rng.bit_generator.state

    def test_too_few_identities_rejected(self):
        with pytest.raises(ValueError):
            pk_epoch_batches(
                identity_groups(self.make_train(num_ids=5)), 16, 4, np.random.default_rng(0)
            )

    def test_epoch_covers_every_identity_before_repeating(self):
        train = self.make_train(num_ids=21)
        batches = pk_epoch_batches(identity_groups(train), 8, 2, np.random.default_rng(3))
        assert len(batches) == 3
        counts: dict[int, int] = {}
        chunk_ids = []
        for batch in batches:
            ids = sorted(set(train.ids[batch].tolist()))
            chunk_ids.append(ids)
            for i in ids:
                counts[i] = counts.get(i, 0) + 1
        assert set(counts) == set(range(21))
        # repeats are confined to the padded final chunk
        for ids in chunk_ids[:-1]:
            assert len(ids) == 8
        repeated = [i for i, c in counts.items() if c > 1]
        assert len(repeated) == 8 - 21 % 8
        assert all(i in chunk_ids[-1] for i in repeated)

    def test_helpers(self):
        train = make_split([(i, j == 0, np.array([float(i), float(j)])) for i in (7, 3, 5) for j in range(2)])
        assert len(train) == 6
        assert train.identities().tolist() == [3, 5, 7]
        rows = train[np.array([4, 1])]
        assert rows.ids.tolist() == [5, 7]
        assert rows.is_sketch.tolist() == [True, False]
        assert rows.features.tolist() == [[5.0, 0.0], [7.0, 1.0]]
        assert train[:2].ids.tolist() == [7, 7]
