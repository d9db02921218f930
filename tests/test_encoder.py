import numpy as np
import pytest

from xmcl.encoder import (
    ActivationStack,
    ConfigurationError,
    EncoderConfig,
    ShapeError,
    StackGradients,
    UsageError,
    apply_deltas,
    backward,
    forward,
    init_encoder,
    register_task_head,
)

SMALL = EncoderConfig(input_dim=5, hidden_dims=(6, 7), embedding_dim=4, seed=3)


def small_state(num_ids=3, task=0):
    state = init_encoder(SMALL)
    register_task_head(state, task, num_ids, seed=11)
    return state


def same_parameters(a, b):
    """Weights, biases and heads equal elementwise (and the same heads registered)."""
    return (
        len(a.weights) == len(b.weights)
        and all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases))
        and a.heads.keys() == b.heads.keys()
        and all(np.array_equal(a.heads[t], b.heads[t]) for t in a.heads)
    )


def linear_probe_loss(state, x, task, coeffs):
    """Mean-reduced linear functional over all stack layers and the logits."""
    stack = forward(state, x, task)
    n = x.shape[0]
    total = sum(float((c * layer).sum()) for c, layer in zip(coeffs[:-1], stack.layers))
    total += float((coeffs[-1] * stack.logits).sum())
    return total / n


class TestInit:
    def test_same_config_is_bitwise_identical(self):
        a = init_encoder(SMALL)
        b = init_encoder(SMALL)
        assert same_parameters(a, b)

    def test_empty_hidden_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(input_dim=4, hidden_dims=(), embedding_dim=4)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(input_dim=0, hidden_dims=(4,), embedding_dim=4)

    def test_different_seeds_differ(self):
        a = init_encoder(EncoderConfig(input_dim=5, hidden_dims=(6,), embedding_dim=4, seed=1))
        b = init_encoder(EncoderConfig(input_dim=5, hidden_dims=(6,), embedding_dim=4, seed=2))
        assert not same_parameters(a, b)

    def test_init_scale(self):
        state = init_encoder(SMALL)
        for l, w in enumerate(state.weights):
            bound = np.sqrt(3.0 / SMALL.layer_dims[l])
            assert np.all(np.abs(w) <= bound)
        for b in state.biases:
            assert np.all(b == 0)


class TestTaskHeads:
    def test_logits_width_matches_identities(self):
        state = small_state(num_ids=9)
        stack = forward(state, np.zeros((2, 5)), 0)
        assert stack.logits.shape == (2, 9)

    def test_existing_head_untouched_by_registration(self):
        state = small_state()
        before = state.heads[0].tobytes()
        register_task_head(state, 2, 4, seed=5)
        assert state.heads[0].tobytes() == before

    def test_head_shapes_follow_identity_count(self):
        s1 = small_state()
        s2 = small_state()
        register_task_head(s1, 1, 5, seed=7)
        register_task_head(s2, 1, 7, seed=7)
        assert s1.heads[1].shape == (5, 4)
        assert s2.heads[1].shape == (7, 4)

    def test_duplicate_task_rejected(self):
        state = small_state()
        with pytest.raises(UsageError):
            register_task_head(state, 0, 3, seed=1)


class TestForward:
    def test_zero_input_zero_bias_constant_rows(self):
        state = small_state()
        stack = forward(state, np.zeros((4, 5)), 0)
        # tanh(0) = 0 through every layer, so all rows coincide
        np.testing.assert_array_equal(stack.embedding, np.zeros((4, 4)))
        for row in stack.probs:
            np.testing.assert_array_equal(row, stack.probs[0])

    def test_softmax_rows_normalized(self):
        state = small_state(num_ids=6)
        rng = np.random.default_rng(0)
        stack = forward(state, rng.normal(size=(8, 5)), 0)
        np.testing.assert_allclose(stack.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_forward_twice_identical(self):
        state = small_state()
        x = np.random.default_rng(1).normal(size=(6, 5))
        a = forward(state, x, 0)
        b = forward(state, x, 0)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la, lb)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_dim_mismatch_rejected(self):
        state = small_state()
        with pytest.raises(ShapeError):
            forward(state, np.zeros((2, 7)), 0)

    def test_unregistered_task_rejected(self):
        state = small_state()
        with pytest.raises(UsageError):
            forward(state, np.zeros((2, 5)), 9)

    def test_stack_depth_invariant(self):
        state = small_state()
        stack = forward(state, np.zeros((2, 5)), 0)
        # hidden layers + embedding + probability layer
        assert len(stack.layers) == len(SMALL.hidden_dims) + 2


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        state = small_state()
        stack = forward(state, np.random.default_rng(2).normal(size=(3, 5)), 0)
        grads = backward(state, stack, StackGradients(d_layers=[None] * len(stack.layers)))
        for g in grads.d_weights + grads.d_biases + [grads.d_prototypes]:
            assert np.all(g == 0)

    def test_every_parameter_matches_finite_differences(self):
        state = small_state(num_ids=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 5))
        n = x.shape[0]
        stack = forward(state, x, 0)
        coeffs = [rng.normal(size=layer.shape) for layer in stack.layers]
        coeffs.append(rng.normal(size=stack.logits.shape))

        grads = backward(
            state,
            stack,
            StackGradients(
                d_layers=[c / n for c in coeffs[:-1]], d_logits=coeffs[-1] / n
            ),
        )

        h = 1e-5

        def check(analytic, mutate):
            it = np.nditer(analytic, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                fp = linear_probe_loss(mutate(idx, h), x, 0, coeffs)
                fm = linear_probe_loss(mutate(idx, -h), x, 0, coeffs)
                fd = (fp - fm) / (2 * h)
                a = analytic[idx]
                assert abs(a - fd) <= 1e-4 * max(abs(a), abs(fd)) + 1e-8

        def perturb_weight(l):
            def mutate(idx, eps):
                s = small_state(num_ids=3)
                s.weights[l] = s.weights[l].copy()
                s.weights[l][idx] += eps
                return s

            return mutate

        def perturb_bias(l):
            def mutate(idx, eps):
                s = small_state(num_ids=3)
                s.biases[l] = s.biases[l].copy()
                s.biases[l][idx] += eps
                return s

            return mutate

        def perturb_proto(idx, eps):
            s = small_state(num_ids=3)
            s.heads[0] = s.heads[0].copy()
            s.heads[0][idx] += eps
            return s

        for l in range(len(state.weights)):
            check(grads.d_weights[l], perturb_weight(l))
            check(grads.d_biases[l], perturb_bias(l))
        check(grads.d_prototypes, perturb_proto)

    def test_batch_gradient_is_mean_of_single_sample_gradients(self):
        state = small_state()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 5))
        w = rng.normal(size=4)

        def grads_for(batch):
            stack = forward(state, batch, 0)
            n = batch.shape[0]
            d_layers = [None] * len(stack.layers)
            d_layers[-2] = np.tile(w, (n, 1)) / n
            return backward(state, stack, StackGradients(d_layers=d_layers))

        g_batch = grads_for(x)
        g_a = grads_for(x[:1])
        g_b = grads_for(x[1:])
        for l in range(len(state.weights)):
            np.testing.assert_allclose(
                g_batch.d_weights[l], (g_a.d_weights[l] + g_b.d_weights[l]) / 2, atol=1e-12
            )

    def test_stale_stack_rejected(self):
        state = small_state()
        stack = forward(state, np.zeros((2, 5)), 0)
        apply_deltas(state, None, None, np.zeros_like(state.heads[0]), 0)
        with pytest.raises(UsageError):
            backward(state, stack, StackGradients(d_layers=[None] * len(stack.layers)))


class TestHeadIsolation:
    def test_apply_deltas_touches_only_active_head(self):
        state = small_state()
        register_task_head(state, 1, 4, seed=9)
        frozen = state.heads[0].tobytes()
        before_active = state.heads[1].copy()
        apply_deltas(
            state,
            [np.ones_like(w) for w in state.weights],
            [np.ones_like(b) for b in state.biases],
            np.ones_like(state.heads[1]),
            1,
        )
        assert state.heads[0].tobytes() == frozen
        np.testing.assert_array_equal(state.heads[1], before_active + 1.0)
