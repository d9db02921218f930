import dataclasses
import inspect
import json
import weakref

import numpy as np
import pytest

from xmcl import schemes
from xmcl.data import SynthSpec
from xmcl.losses import JmmdSpec
from xmcl.trainer import (
    Adam,
    ExperimentConfig,
    ExperimentState,
    Schedule,
    batch_gradients,
    lr_at,
    report_to_csv,
    run_sequence,
)

MINI_SCHED = Schedule(
    epochs_first_task=20,
    epochs_later_tasks=10,
    warmup_epochs=4,
    base_lr=1e-2,
    warmup_start_lr=1e-3,
    decay_epochs=(12, 18),
)


def mini_specs(num_tasks=2):
    return [
        SynthSpec(
            task_id=t,
            latent_dim=6,
            feature_dim=16,
            num_train_ids=12,
            num_test_ids=6,
            sketches_per_id=3,
            photos_per_id=3,
            modality_gap=1.4,
            task_shift=1.5 * t,
            noise_sigma=0.2,
            seed=0,
        )
        for t in range(num_tasks)
    ]


def mini_config(num_tasks=2, mpm=True, alpha=5.0, schedule=MINI_SCHED):
    return ExperimentConfig(
        tasks=mini_specs(num_tasks),
        schedule=schedule,
        jmmd=JmmdSpec(alpha=alpha),
        hidden_dims=(16, 16),
        embedding_dim=8,
        pk_p=4,
        pk_k=2,
        mpm=mpm,
    )


class TestLrSchedule:
    def test_epoch_zero_is_warmup_start(self):
        s = Schedule()
        assert lr_at(0, s) == s.warmup_start_lr

    def test_warmup_end_is_base(self):
        s = Schedule()
        assert lr_at(10, s) == s.base_lr

    def test_double_decay(self):
        s = Schedule()
        assert np.isclose(lr_at(55, s), s.base_lr * 0.01)

    def test_single_decay(self):
        s = Schedule()
        assert np.isclose(lr_at(35, s), s.base_lr * 0.1)

    def test_warmup_is_linear(self):
        s = Schedule()
        lrs = [lr_at(e, s) for e in range(11)]
        diffs = np.diff(lrs)
        np.testing.assert_allclose(diffs, diffs[0])

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            Schedule(decay_factor=1.5)
        with pytest.raises(ValueError):
            Schedule(warmup_epochs=100, epochs_first_task=60, epochs_later_tasks=30)


class TestExperimentConfig:
    @pytest.mark.parametrize("margin", [-5.0, -1e-9, float("nan"), float("inf")])
    def test_bad_triplet_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="triplet_margin"):
            ExperimentConfig(tasks=mini_specs(1), triplet_margin=margin)

    @pytest.mark.parametrize("smoothing", [1.0, 1.5, -0.1, float("nan")])
    def test_bad_label_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError, match="label_smoothing"):
            ExperimentConfig(tasks=mini_specs(1), label_smoothing=smoothing)

    @pytest.mark.parametrize(
        "field", ["use_cosine_eval", "swap_eval_direction", "freeze_shared_on_replay"]
    )
    def test_removed_behaviour_switches_accept_only_false(self, field):
        # Euclidean sketch-to-photo ranking and replay that steps the shared
        # weights are the only behaviours
        with pytest.raises(ValueError, match=f"^{field} must be false, got True$"):
            ExperimentConfig(tasks=mini_specs(1), **{field: True})
        assert getattr(ExperimentConfig(tasks=mini_specs(1), **{field: False}), field) is False

    def test_boundary_values_accepted(self):
        cfg = ExperimentConfig(tasks=mini_specs(1), triplet_margin=0.0, label_smoothing=0.0)
        assert cfg.triplet_margin == 0.0 and cfg.label_smoothing == 0.0

    @pytest.mark.parametrize("layer_set", [(99,), (-1,), (0, 4)])
    def test_layer_set_outside_the_stack_rejected(self, layer_set):
        # hidden (16, 16): stack indices 0-1 hidden, 2 embedding, 3 softmax
        with pytest.raises(ValueError, match="layer_set"):
            ExperimentConfig(
                tasks=mini_specs(1), hidden_dims=(16, 16), jmmd=JmmdSpec(layer_set=layer_set)
            )

    def test_layer_set_edges_accepted(self):
        cfg = ExperimentConfig(tasks=mini_specs(1), hidden_dims=(16, 16), jmmd=JmmdSpec(layer_set=(0, 3)))
        assert cfg.jmmd.layer_set == (0, 3)

    @pytest.mark.parametrize(
        "jmmd",
        [
            JmmdSpec(bandwidths=(1.0, 2.0)),
            JmmdSpec(bandwidths=(1.0, 2.0, 3.0, 4.0)),
            JmmdSpec(layer_set=(0, 1), bandwidths=(1.0, 2.0, 3.0)),
            JmmdSpec(bandwidths=(1.0,), alpha=0.0),
        ],
    )
    def test_bandwidth_count_mismatch_rejected(self, jmmd):
        # the default layer set of hidden (16, 16) has three layers
        with pytest.raises(ValueError, match="jmmd.bandwidths"):
            ExperimentConfig(tasks=mini_specs(1), hidden_dims=(16, 16), jmmd=jmmd)

    def test_bandwidth_count_matching_the_layer_set_accepted(self):
        for jmmd in (JmmdSpec(bandwidths=(1.0, 2.0, 3.0)), JmmdSpec(layer_set=(2,), bandwidths=(0.5,))):
            assert ExperimentConfig(tasks=mini_specs(1), hidden_dims=(16, 16), jmmd=jmmd).jmmd == jmmd


class TestAdam:
    def test_first_step_direction(self):
        adam = Adam()
        g = np.array([1.0, -2.0, 0.0])
        d = adam.delta(("w", 0), g, lr=0.1)
        assert d[0] < 0 and d[1] > 0 and d[2] == 0

    def test_counts_are_per_key(self):
        adam = Adam()
        adam.delta(("w", 0), np.ones(2), 0.1)
        adam.delta(("w", 0), np.ones(2), 0.1)
        adam.delta(("p", 1), np.ones(2), 0.1)
        assert adam.t[("w", 0)] == 2
        assert adam.t[("p", 1)] == 1

    def test_one_flat_update_equals_per_parameter_updates(self):
        # the trainer steps all shared parameters as one vector; elementwise
        # ops make that equal to the per-parameter formula to the bit
        rng = np.random.default_rng(3)
        shapes = [(5, 4), (4,), (4, 3), (3,)]
        adam = Adam()
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 8):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            lr = float(rng.uniform(1e-4, 1e-1))
            flat = adam.delta("shared", np.concatenate([g.ravel() for g in grads]), lr)
            expected = []
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1**t)
                v_hat = v[i] / (1 - b2**t)
                expected.append((-lr * m_hat / (np.sqrt(v_hat) + eps)).ravel())
            assert np.array_equal(flat, np.concatenate(expected))


class TestBatchGradients:
    def test_alpha_zero_sim_equals_reid(self):
        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import EncoderConfig, init_encoder, register_task_head

        task = generate_synthetic_task(mini_specs(1)[0])
        state = init_encoder(EncoderConfig(input_dim=16, hidden_dims=(8,), embedding_dim=6, seed=0))
        register_task_head(state, 0, 12, seed=1)
        breakdown, _ = batch_gradients(
            state, task.train[:12], 0, task.train.identities(), JmmdSpec(alpha=0.0), 0.3, 0.1
        )
        assert breakdown.l_sim == breakdown.l_reid
        assert breakdown.l_jmmd == 0.0

    def test_single_modality_batch_skips_alignment(self, caplog):
        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import EncoderConfig, init_encoder, register_task_head

        task = generate_synthetic_task(mini_specs(1)[0])
        state = init_encoder(EncoderConfig(input_dim=16, hidden_dims=(8,), embedding_dim=6, seed=0))
        register_task_head(state, 0, 12, seed=1)
        photos = task.train[np.flatnonzero(~task.train.is_sketch)[:8]]
        with caplog.at_level("WARNING"):
            breakdown, _ = batch_gradients(
                state, photos, 0, task.train.identities(), JmmdSpec(alpha=5.0), 0.3, 0.1
            )
        assert breakdown.l_jmmd == 0.0
        assert any("lacks one modality" in r.message for r in caplog.records)

    def test_identity_outside_the_head_rejected(self):
        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import EncoderConfig, init_encoder, register_task_head

        task = generate_synthetic_task(mini_specs(1)[0])
        state = init_encoder(EncoderConfig(input_dim=16, hidden_dims=(8,), embedding_dim=6, seed=0))
        register_task_head(state, 0, 11, seed=1)
        ids = task.train.identities()
        # identity 0 below the head's first row; identity 11 past its last
        for head_ids, rows in ((ids[1:], slice(0, 12)), (ids[:-1], slice(-12, None))):
            with pytest.raises(KeyError, match="outside task 0's head"):
                batch_gradients(state, task.train[rows], 0, head_ids, JmmdSpec(), 0.3, 0.1)


    def test_nan_feature_names_the_term(self):
        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import EncoderConfig, init_encoder, register_task_head

        task = generate_synthetic_task(mini_specs(1)[0])
        state = init_encoder(EncoderConfig(input_dim=16, hidden_dims=(8,), embedding_dim=6, seed=0))
        register_task_head(state, 0, 12, seed=1)
        batch = task.train[:12]
        batch.features[3, 5] = np.nan
        with pytest.raises(FloatingPointError, match="^non-finite l_id$"):
            batch_gradients(state, batch, 0, task.train.identities(), JmmdSpec(), 0.3, 0.1)


class TestNonFiniteFailsFast:
    def test_nan_training_feature_stops_the_run(self, monkeypatch):
        import xmcl.trainer as trainer

        real = trainer.generate_synthetic_task

        def poisoned(spec):
            task = real(spec)
            task.train.features[0, 3] = np.nan
            return task

        monkeypatch.setattr(trainer, "generate_synthetic_task", poisoned)
        with pytest.raises(FloatingPointError, match=r"^task 0, epoch \d+: non-finite l_id$"):
            run_sequence(mini_config(num_tasks=1), master_seed=0)

    def test_nan_in_bank_names_the_replayed_task(self):
        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import register_task_head
        from xmcl.trainer import train_task

        _, exp = run_sequence(mini_config(num_tasks=1, mpm=True), master_seed=2)
        exp.banks.rows.features[exp.banks.rows.is_sketch, 0] = np.nan
        task1 = generate_synthetic_task(mini_specs(2)[1])
        register_task_head(exp.encoder, 1, len(task1.train_identities), seed=9)
        exp.head_ids[1] = task1.train.identities()
        with pytest.raises(
            FloatingPointError, match=r"^task 1 \(replaying task 0\), epoch 2: non-finite l_id$"
        ):
            train_task(
                exp, task1, mini_config(), range(2), np.random.default_rng(5), use_replay=True
            )


def poisoned_loss(real, index, from_call):
    """real with output[index] set to NaN from a call on.

    The output is a value (replaced) or a gradient array, or a list of them
    (the first is filled in place).
    """
    calls = []

    def loss(*args, **kwargs):
        calls.append(None)
        out = list(real(*args, **kwargs))
        if len(calls) >= from_call:
            if isinstance(out[index], float):
                out[index] = float("nan")
            else:
                grad = out[index][0] if isinstance(out[index], list) else out[index]
                grad[...] = np.nan
        return tuple(out)

    return loss


class TestNonFiniteTermNamed:
    # (term, trainer binding, index of the poisoned output); the identity CE
    # and the prototype CE share one logits gradient, which is named l_id
    CASES = [
        pytest.param("l_id", "cross_entropies_grad", 0, id="l_id-value"),
        pytest.param("l_id", "cross_entropies_grad", 2, id="l_id-gradient"),
        pytest.param("l_i2tce", "cross_entropies_grad", 1, id="l_i2tce-value"),
        pytest.param("l_tri", "triplet_loss_grad", 0, id="l_tri-value"),
        pytest.param("l_tri", "triplet_loss_grad", 1, id="l_tri-gradient"),
        pytest.param("l_jmmd", "jmmd_with_grad", 0, id="l_jmmd-value"),
        pytest.param("l_jmmd", "jmmd_with_grad", 1, id="l_jmmd-gradient"),
    ]

    @pytest.mark.parametrize("term, name, index", CASES)
    def test_new_task_epoch(self, monkeypatch, term, name, index):
        import xmcl.trainer as trainer

        monkeypatch.setattr(trainer, name, poisoned_loss(getattr(trainer, name), index, 1))
        with pytest.raises(FloatingPointError, match=rf"^task 0, epoch 1: non-finite {term}$"):
            run_sequence(mini_config(num_tasks=1), master_seed=0)

    @pytest.mark.parametrize("term, name, index", CASES)
    def test_replay_epoch(self, monkeypatch, term, name, index):
        import xmcl.trainer as trainer
        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import register_task_head

        _, exp = run_sequence(mini_config(num_tasks=1, mpm=True), master_seed=2)
        task1 = generate_synthetic_task(mini_specs(2)[1])
        register_task_head(exp.encoder, 1, len(task1.train_identities), seed=9)
        exp.head_ids[1] = task1.train.identities()
        # epoch 1 trains 12 identities in P=4 batches; call 4 is the first replay batch
        monkeypatch.setattr(trainer, name, poisoned_loss(getattr(trainer, name), index, 4))
        with pytest.raises(
            FloatingPointError, match=rf"^task 1 \(replaying task 0\), epoch 2: non-finite {term}$"
        ):
            trainer.train_task(
                exp, task1, mini_config(), range(2), np.random.default_rng(5), use_replay=True
            )

    def test_parameter_gradient_named_when_every_term_is_finite(self, monkeypatch):
        import xmcl.trainer as trainer

        real = trainer.backward

        def overflowing(*args, **kwargs):
            grads = real(*args, **kwargs)
            grads.shared[0] = np.inf
            return grads

        monkeypatch.setattr(trainer, "backward", overflowing)
        with pytest.raises(
            FloatingPointError, match=r"^task 0, epoch 1: non-finite parameter gradient$"
        ):
            run_sequence(mini_config(num_tasks=1), master_seed=0)


class TestRunSequence:
    def test_five_step_grid_two_tasks(self):
        report, _ = run_sequence(mini_config(), master_seed=0)
        assert [s["step"] for s in report["steps"]] == [1, 2, 3, 4, 5]
        for s in report["steps"]:
            assert {r["task_id"] for r in s["records"]} == {0, 1}

    @pytest.mark.parametrize(
        "num_tasks, first, later, expected",
        [
            (3, 4, 2, [1, 2, 3, 4, 5, 6, 7]),
            (2, 4, 0, [1, 2, 3]),
            (3, 0, 2, [1, 2, 3, 4, 5]),
        ],
    )
    def test_grid_is_one_step_then_halfway_and_end_per_training_task(
        self, num_tasks, first, later, expected
    ):
        # one step before training, then a halfway and an end step for each task that trains
        sched = Schedule(
            epochs_first_task=first, epochs_later_tasks=later, warmup_epochs=0,
            base_lr=1e-2, warmup_start_lr=1e-3, decay_epochs=(),
        )
        report, _ = run_sequence(mini_config(num_tasks, schedule=sched), master_seed=0)
        assert [s["step"] for s in report["steps"]] == expected
        for s in report["steps"]:
            assert [r["task_id"] for r in s["records"]] == list(range(num_tasks))

    def test_reports_are_bitwise_reproducible(self):
        a, _ = run_sequence(mini_config(), master_seed=7)
        b, _ = run_sequence(mini_config(), master_seed=7)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert report_to_csv(a) == report_to_csv(b)

    def test_zero_epoch_schedule_only_step_one(self):
        sched = Schedule(
            epochs_first_task=0, epochs_later_tasks=0, warmup_epochs=0, base_lr=1e-2, warmup_start_lr=1e-3
        )
        report, _ = run_sequence(mini_config(schedule=sched), master_seed=0)
        assert [s["step"] for s in report["steps"]] == [1]

    def test_pk_p_above_a_later_task_fails_before_training(self, monkeypatch):
        import xmcl.trainer as trainer

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(trainer, "train_task", no_training)
        specs = mini_specs(2)
        specs[1] = dataclasses.replace(specs[1], num_train_ids=3)
        config = dataclasses.replace(mini_config(), tasks=specs)
        with pytest.raises(ValueError, match=r"pk_p=4 .* task 1 has 3 \(num_train_ids\)"):
            run_sequence(config, master_seed=0)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(task_id=0), r"^task_id 0 shares identities \[0, 1, 2, 3, 4\] with an earlier task"),
            (dict(feature_dim=12), r"^tasks disagree on feature_dim: \[12, 16\]$"),
        ],
    )
    def test_clashing_tasks_name_the_key(self, edit, message):
        specs = mini_specs(2)
        specs[1] = dataclasses.replace(specs[1], **edit)
        with pytest.raises(ValueError, match=message):
            run_sequence(dataclasses.replace(mini_config(), tasks=specs), master_seed=0)

    def test_pk_p_ignores_tasks_that_do_not_train(self):
        specs = mini_specs(2)
        specs[1] = dataclasses.replace(specs[1], num_train_ids=3)
        sched = dataclasses.replace(MINI_SCHED, epochs_later_tasks=0)
        report, _ = run_sequence(dataclasses.replace(mini_config(schedule=sched), tasks=specs), 0)
        assert [s["step"] for s in report["steps"]] == [1, 2, 3]

    def test_single_task_run_warns(self):
        report, _ = run_sequence(mini_config(num_tasks=1), master_seed=0)
        assert any("single-task" in w for w in report["warnings"])
        assert [s["step"] for s in report["steps"]] == [1, 2, 3]

    def test_pre_second_task_equivalence_is_bitwise(self):
        two, _ = run_sequence(mini_config(num_tasks=2), master_seed=3)
        one, _ = run_sequence(mini_config(num_tasks=1), master_seed=3)
        two_step3 = next(s for s in two["steps"] if s["step"] == 3)
        one_step3 = next(s for s in one["steps"] if s["step"] == 3)
        rec_two = next(r for r in two_step3["records"] if r["task_id"] == 0)
        rec_one = next(r for r in one_step3["records"] if r["task_id"] == 0)
        assert rec_two == rec_one

    def test_old_head_frozen_without_replay(self):
        cfg = mini_config(mpm=False)
        report, exp = run_sequence(cfg, master_seed=1)
        # retrain and capture head 0 right after task 1 by running task 1 alone
        solo, exp_solo = run_sequence(mini_config(num_tasks=1, mpm=False), master_seed=1)
        assert exp.encoder.heads[0].tobytes() == exp_solo.encoder.heads[0].tobytes()

    def test_replay_updates_old_head(self):
        _, exp_mpm = run_sequence(mini_config(mpm=True), master_seed=1)
        _, exp_solo = run_sequence(mini_config(num_tasks=1, mpm=True), master_seed=1)
        assert exp_mpm.encoder.heads[0].tobytes() != exp_solo.encoder.heads[0].tobytes()

    def test_banks_filled_only_with_mpm(self):
        _, exp_mpm = run_sequence(mini_config(mpm=True), master_seed=2)
        _, exp_off = run_sequence(mini_config(mpm=False), master_seed=2)
        assert not exp_mpm.banks.is_empty()
        assert np.count_nonzero(exp_mpm.banks.rows.is_sketch) <= 24
        assert exp_off.banks.is_empty()

    def test_training_loss_decreases(self):
        report, _ = run_sequence(mini_config(num_tasks=1), master_seed=4)
        losses = report["loss_history"]["0"]
        assert np.median(losses[-5:]) < np.median(losses[:5])

    def test_loss_history_per_task(self):
        report, _ = run_sequence(mini_config(), master_seed=5)
        assert set(report["loss_history"]) == {"0", "1"}
        assert len(report["loss_history"]["0"]) == MINI_SCHED.epochs_first_task
        assert len(report["loss_history"]["1"]) == MINI_SCHED.epochs_later_tasks

    def test_csv_schema(self):
        report, _ = run_sequence(mini_config(), master_seed=6)
        csv = report_to_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "step,task_id,mAP,r1,r5,r10"
        assert len(lines) == 1 + 5 * 2
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 6
            int(parts[0]), int(parts[1])
            for v in parts[2:]:
                float(v)

    def test_reversed_order_same_schema(self):
        cfg = mini_config()
        cfg.tasks = list(reversed(cfg.tasks))
        report, _ = run_sequence(cfg, master_seed=0)
        assert [s["step"] for s in report["steps"]] == [1, 2, 3, 4, 5]
        assert report["task_ids"] == [1, 0]

    def test_mismatched_feature_dims_rejected(self):
        cfg = mini_config()
        cfg.tasks[1] = SynthSpec(
            task_id=1, latent_dim=6, feature_dim=8, num_train_ids=12, num_test_ids=6, seed=0
        )
        with pytest.raises(ValueError):
            run_sequence(cfg, master_seed=0)

    def test_replay_epoch_steps_the_shared_weights(self):
        import copy

        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import register_task_head
        from xmcl.trainer import train_task

        # finish task 0 with banks filled, then hand-drive task 1 epochs
        _, exp = run_sequence(mini_config(num_tasks=1, mpm=True), master_seed=2)
        task1 = generate_synthetic_task(mini_specs(2)[1])
        register_task_head(exp.encoder, 1, len(task1.train_identities), seed=9)
        exp.head_ids[1] = task1.train.identities()

        def run(epochs):
            e = copy.deepcopy(exp)
            rng = np.random.default_rng(5)
            train_task(e, task1, mini_config(), range(epochs), rng, use_replay=True)
            return e

        # epoch 1 (1-based) trains new data, epoch 2 replays under task 0's head
        after_new, after_replay = run(epochs=1), run(epochs=2)
        assert after_replay.encoder.heads[0].tobytes() != after_new.encoder.heads[0].tobytes()
        for a, b in zip(after_replay.encoder.weights, after_new.encoder.weights):
            assert a.tobytes() != b.tobytes()


def root_buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class TestTrainRowsDropped:
    @pytest.mark.parametrize("mpm", [True, False])
    def test_trained_task_rows_are_freed_before_the_next_trains(self, monkeypatch, mpm):
        import xmcl.trainer as trainer

        real = trainer.train_task
        # task id -> weak reference to the memory of its train features
        held: dict[int, weakref.ref] = {}

        def watched(exp, task, *args, **kwargs):
            held.setdefault(task.task_id, weakref.ref(root_buffer(task.train.features)))
            earlier = [t for t in held if t < task.task_id]
            assert all(held[t]() is None for t in earlier), f"task {earlier} rows still held"
            return real(exp, task, *args, **kwargs)

        monkeypatch.setattr(trainer, "train_task", watched)
        report, _ = run_sequence(mini_config(num_tasks=3, mpm=mpm), master_seed=0)
        assert sorted(held) == [0, 1, 2]
        assert all(ref() is None for ref in held.values())
        assert [s["step"] for s in report["steps"]] == [1, 2, 3, 4, 5, 6, 7]


class TestEpochRanges:
    """train_task over range(0, h) then range(h, n) equals one call over range(n)."""

    @pytest.fixture(scope="class")
    def before_task2(self):
        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import register_task_head

        # two banked tasks, so the replay epochs take them in turn
        _, exp = run_sequence(mini_config(num_tasks=2, mpm=True), master_seed=2)
        assert exp.banks.task_ids() == [0, 1]
        task2 = generate_synthetic_task(mini_specs(3)[2])
        register_task_head(exp.encoder, 2, len(task2.train_identities), seed=9)
        exp.head_ids[2] = task2.train.identities()
        return exp, task2

    def train(self, before, ranges, monkeypatch):
        import copy

        import xmcl.trainer as trainer
        from xmcl.banks import replay_epoch_batches as real

        exp, task = copy.deepcopy(before)
        heads = []

        def recorded(*args, task_id, **kwargs):
            heads.append(task_id)
            return real(*args, task_id=task_id, **kwargs)

        monkeypatch.setattr(trainer, "replay_epoch_batches", recorded)
        rng = np.random.default_rng(5)
        losses = []
        for epochs in ranges:
            losses += trainer.train_task(exp, task, mini_config(), epochs, rng, use_replay=True)
        return exp, losses, heads

    @pytest.mark.parametrize("n, h", [(5, 2), (6, 3), (6, 1), (1, 0)])
    def test_split_equals_whole(self, before_task2, monkeypatch, n, h):
        whole, whole_losses, heads = self.train(before_task2, [range(n)], monkeypatch)
        split, split_losses, split_heads = self.train(
            before_task2, [range(h), range(h, n)], monkeypatch
        )
        assert split_losses == whole_losses and len(whole_losses) == n
        assert split_heads == heads == [0, 1, 0][: n // 2]
        assert split.encoder.shared.tobytes() == whole.encoder.shared.tobytes()
        assert split.encoder.heads.keys() == whole.encoder.heads.keys()
        for t in whole.encoder.heads:
            assert split.encoder.heads[t].tobytes() == whole.encoder.heads[t].tobytes()
        assert split.adam.t == whole.adam.t
        for key in whole.adam.t:
            assert split.adam.m[key].tobytes() == whole.adam.m[key].tobytes()
            assert split.adam.v[key].tobytes() == whole.adam.v[key].tobytes()


def test_train_task_groups_its_split_once_and_draws_every_epoch(monkeypatch):
    import xmcl.trainer as trainer

    grouped, drawn = [], []
    real_groups, real_batches = trainer.identity_groups, trainer.pk_epoch_batches

    def groups_of(train):
        grouped.append(real_groups(train))
        return grouped[-1]

    def batches(groups, p, k, rng):
        drawn.append(groups)
        return real_batches(groups, p, k, rng)

    monkeypatch.setattr(trainer, "identity_groups", groups_of)
    monkeypatch.setattr(trainer, "pk_epoch_batches", batches)
    run_sequence(mini_config(num_tasks=1), master_seed=0)
    # one task trains its epochs in two train_task calls, to halfway and to the end
    epochs = MINI_SCHED.epochs_first_task
    assert len(grouped) == 2 and len(drawn) == epochs
    assert all(g is grouped[i >= epochs // 2] for i, g in enumerate(drawn))


class TestEmptyBanksWarn:
    def test_replay_skipped_for_empty_banks_is_reported(self):
        from xmcl.conformal import CpConfig

        # tau below every score: no prediction set has a member, so no row is admitted
        cfg = dataclasses.replace(mini_config(), cp=CpConfig(tau=0.01))
        report, exp = run_sequence(cfg, master_seed=0)
        assert report["mpm"] is True and exp.banks.is_empty()
        assert report["warnings"] == [
            "task 1 trains without replay: no earlier sample was admitted to the banks"
        ]

    @pytest.mark.parametrize("mpm", [True, False])
    def test_no_warning_under_default_scoring(self, mpm):
        report, exp = run_sequence(mini_config(mpm=mpm), master_seed=0)
        assert report["warnings"] == [] and exp.banks.is_empty() is not mpm


@pytest.mark.parametrize(
    "fn, param, field_default",
    [
        (schemes.high_gap_single_task_config, "alpha", JmmdSpec.alpha),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_signature_defaults_are_the_config_fields(fn, param, field_default):
    assert inspect.signature(fn).parameters[param].default == field_default


class TestArrayDataclassEquality:
    """Dataclasses holding arrays compare by identity: == gives a bool, never a ValueError."""

    def instances(self):
        from xmcl.banks import ReplayBanks
        from xmcl.conformal import CpConfig, prediction_set
        from xmcl.data import generate_synthetic_task
        from xmcl.encoder import EncoderConfig, backward, forward, init_encoder, register_task_head

        task = generate_synthetic_task(mini_specs(1)[0])
        encoder = register_task_head(init_encoder(EncoderConfig(input_dim=16)), 0, 12, seed=1)
        stack = forward(encoder, task.train.features[:4], 0)
        return {
            "EncoderState": encoder,
            "ExperimentState": ExperimentState(
                encoder=encoder, adam=Adam(), banks=ReplayBanks(), head_ids={}
            ),
            "ReplayBanks": ReplayBanks(),
            "Split": task.train,
            "TaskDataset": task,
            "ActivationStack": stack,
            "ParameterGradients": backward(
                encoder, stack, [None] * len(stack.layers), np.zeros_like(stack.logits)
            ),
            "PredictionSet": prediction_set(np.full(4, 0.25), CpConfig()),
        }

    def test_equality_is_identity(self):
        first, second = self.instances(), self.instances()
        for name, value in first.items():
            assert (value == value) is True, name
            assert (value == second[name]) is False, name
            assert (value != second[name]) is True, name
