import math

import numpy as np
import pytest

from xmcl.losses import (
    JmmdSpec,
    LossBreakdown,
    LossInputError,
    _sq_dists,
    cosine_logits,
    cosine_logits_backward,
    default_layer_set,
    gaussian_kernel,
    gaussian_kernel_matrix,
    i2tce_loss,
    i2tce_loss_grad,
    id_loss,
    id_loss_grad,
    jmmd,
    jmmd_with_grad,
    median_bandwidth,
    resolve_bandwidths,
    sim_loss,
    softmax,
    softmax_backward,
    triplet_loss,
    triplet_loss_grad,
)


def fd_matches(analytic, loss_fn, x, h=1e-5, rtol=1e-4, atol=1e-8):
    """Central finite differences over every entry of x."""
    x = np.array(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        fd = (loss_fn(xp) - loss_fn(xm)) / (2 * h)
        a = analytic[idx]
        assert abs(a - fd) <= rtol * max(abs(a), abs(fd)) + atol, (
            f"grad mismatch at {idx}: analytic={a}, fd={fd}"
        )


def jmmd_oracle(sketch_layers, photo_layers, bandwidths):
    """Independent triple-loop evaluation of the joint alignment distance."""
    n_s = sketch_layers[0].shape[0]
    n_p = photo_layers[0].shape[0]

    def joint(za, zb):
        prod = 1.0
        for layer_a, layer_b, bw in zip(za, zb, bandwidths):
            prod *= math.exp(-sum((u - v) ** 2 for u, v in zip(layer_a, layer_b)) / (2 * bw**2))
        return prod

    def sample(layers, i):
        return [layers[l][i] for l in range(len(layers))]

    total = 0.0
    for i in range(n_s):
        for j in range(n_s):
            total += joint(sample(sketch_layers, i), sample(sketch_layers, j)) / n_s**2
    for i in range(n_p):
        for j in range(n_p):
            total += joint(sample(photo_layers, i), sample(photo_layers, j)) / n_p**2
    for i in range(n_s):
        for j in range(n_p):
            total -= 2 * joint(sample(sketch_layers, i), sample(photo_layers, j)) / (n_s * n_p)
    return total


def triplet_oracle(emb, labels, margin):
    """Enumerate every anchor's hardest positive/negative by brute force."""
    n = len(labels)
    d = np.array([[np.linalg.norm(emb[i] - emb[j]) for j in range(n)] for i in range(n)])
    losses = []
    for a in range(n):
        pos = [j for j in range(n) if j != a and labels[j] == labels[a]]
        neg = [j for j in range(n) if labels[j] != labels[a]]
        if not pos or not neg:
            continue
        hp = max(d[a, j] for j in pos)
        hn = min(d[a, j] for j in neg)
        losses.append(max(0.0, hp - hn + margin))
    return sum(losses) / len(losses)


def triplet_loop_reference(emb, labels, margin):
    """Per-anchor loop form of the batch-hard triplet loss and its gradient."""
    emb = np.asarray(emb, np.float64)
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(labels.size, dtype=bool)
    neg = ~same
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    dist = np.sqrt(np.maximum(_sq_dists(emb, emb), 1e-24))
    grad = np.zeros_like(emb)
    total = 0.0
    for a in anchors:
        p_idx = np.flatnonzero(pos[a])
        n_idx = np.flatnonzero(neg[a])
        hp = p_idx[np.argmax(dist[a, p_idx])]
        hn = n_idx[np.argmin(dist[a, n_idx])]
        hinge = dist[a, hp] - dist[a, hn] + margin
        if hinge > 0:
            total += hinge
            u_p = (emb[a] - emb[hp]) / max(dist[a, hp], 1e-12)
            u_n = (emb[a] - emb[hn]) / max(dist[a, hn], 1e-12)
            grad[a] += u_p - u_n
            grad[hp] -= u_p
            grad[hn] += u_n
    return total / anchors.size, grad / anchors.size


def jmmd_block_reference(sketch_layers, photo_layers, bandwidths=None):
    """Three-block form: separate J_ss, J_pp, J_sp kernels and gradient terms.

    bandwidths=None takes the median heuristic over each pooled layer.
    """
    s = [np.atleast_2d(np.asarray(a, np.float64)) for a in sketch_layers]
    p = [np.atleast_2d(np.asarray(b, np.float64)) for b in photo_layers]
    if bandwidths is None:
        bandwidths = [median_bandwidth(np.vstack([a, b])) for a, b in zip(s, p)]

    def joint(xs, ys):
        k = gaussian_kernel_matrix(xs[0], ys[0], bandwidths[0])
        for a, b, bw in zip(xs[1:], ys[1:], bandwidths[1:]):
            k = k * gaussian_kernel_matrix(a, b, bw)
        return k

    n_s, n_p = s[0].shape[0], p[0].shape[0]
    j_ss, j_pp, j_sp = joint(s, s), joint(p, p), joint(s, p)
    value = float(j_ss.mean() + j_pp.mean() - 2.0 * j_sp.mean())
    d_s, d_p = [], []
    for l, bw in enumerate(bandwidths):
        w_ss, w_pp, w_sp = j_ss / bw**2, j_pp / bw**2, j_sp / bw**2
        g_s = (2.0 / n_s**2) * (-(s[l] * w_ss.sum(axis=1)[:, None] - w_ss @ s[l]))
        g_s += (-2.0 / (n_s * n_p)) * (-(s[l] * w_sp.sum(axis=1)[:, None] - w_sp @ p[l]))
        g_p = (2.0 / n_p**2) * (-(p[l] * w_pp.sum(axis=1)[:, None] - w_pp @ p[l]))
        g_p += (-2.0 / (n_s * n_p)) * (-(p[l] * w_sp.sum(axis=0)[:, None] - w_sp.T @ s[l]))
        d_s.append(g_s)
        d_p.append(g_p)
    return value, d_s, d_p


class TestGaussianKernel:
    def test_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        assert gaussian_kernel(x, x, 0.7) == 1.0

    def test_hand_value(self):
        # ||x-y||^2 = 2 sigma^2 -> e^{-1}
        sigma = 1.3
        x = np.zeros(4)
        y = np.zeros(4)
        y[0] = math.sqrt(2) * sigma
        assert np.isclose(gaussian_kernel(x, y, sigma), math.exp(-1), atol=1e-12)
        assert np.isclose(gaussian_kernel(x, y, sigma), 0.367879, atol=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.normal(size=(2, 6))
            s = float(rng.uniform(0.1, 3.0))
            assert gaussian_kernel(x, y, s) == gaussian_kernel(y, x, s)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(LossInputError):
            gaussian_kernel(np.ones(2), np.ones(2), 0.0)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(5, 3))
        k = gaussian_kernel_matrix(x, y, 0.9)
        for i in range(4):
            for j in range(5):
                assert np.isclose(k[i, j], gaussian_kernel(x[i], y[j], 0.9), atol=1e-12)


class TestMedianBandwidth:
    def test_single_pair(self):
        sigma = median_bandwidth(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.isclose(sigma**2, 4.0)

    def test_degenerate_clamps(self):
        sigma = median_bandwidth(np.ones((5, 3)))
        assert np.isclose(sigma**2, 1e-12)

    def test_matches_brute_force_pairs(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(10, 6))
        d2 = [
            float(np.sum((feats[i] - feats[j]) ** 2))
            for i in range(10)
            for j in range(i + 1, 10)
        ]
        assert len(d2) == 45
        assert np.isclose(median_bandwidth(feats) ** 2, np.median(d2))

    def test_needs_two_vectors(self):
        with pytest.raises(LossInputError):
            median_bandwidth(np.ones((1, 3)))

    def test_partition_median_equals_np_median_to_the_bit(self):
        # n vectors give n(n-1)/2 pairs: odd for n = 2, 3, 6, 7, ..., even for n = 4, 5, 8, ...
        rng = np.random.default_rng(41)
        for n in range(2, 40):
            for scale, decimals in ((1.0, None), (1e-7, None), (3.0, 0), ("mixed", None)):
                if scale == "mixed":
                    # a tight cluster and far points: the two middle pairs differ in scale
                    spread = np.where(np.arange(n) < n // 2, 1e-4, 10.0)
                    feats = rng.normal(size=(n, 3)) * spread[:, None]
                else:
                    feats = rng.normal(size=(n, 3)) * scale
                if decimals is not None:
                    feats = np.round(feats, decimals)  # many tied distances
                d2 = _sq_dists(feats, feats)
                pairs = d2[np.triu_indices(n, k=1)]
                expected = float(np.sqrt(max(float(np.median(pairs)), 1e-12)))
                assert median_bandwidth(feats) == expected


class TestJmmd:
    def test_identical_distributions_zero(self):
        rng = np.random.default_rng(2)
        layers = [rng.normal(size=(6, 4)) for _ in range(3)]
        spec = JmmdSpec(bandwidths=[1.0, 0.5, 2.0])
        assert abs(jmmd(layers, [a.copy() for a in layers], spec)) < 1e-10

    def test_single_pair_hand_value(self):
        # n_S = n_P = 1, one layer: 2 - 2 k(s, p); at k = e^{-1} this is 1.264241
        sigma = 1.0
        s = [np.array([[0.0, 0.0]])]
        p = [np.array([[math.sqrt(2) * sigma, 0.0]])]
        val = jmmd(s, p, JmmdSpec(bandwidths=[sigma]))
        assert np.isclose(val, 2 * (1 - math.exp(-1)), atol=1e-12)
        assert np.isclose(val, 1.264241, atol=1e-6)

    def test_set_swap_symmetry(self):
        rng = np.random.default_rng(3)
        s = [rng.normal(size=(5, 3)) for _ in range(2)]
        p = [rng.normal(size=(7, 3)) for _ in range(2)]
        spec = JmmdSpec(bandwidths=[1.0, 1.5])
        assert np.isclose(jmmd(s, p, spec), jmmd(p, s, spec), atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_s = int(rng.integers(1, 9))
            n_p = int(rng.integers(1, 9))
            dims = [int(rng.integers(2, 5)) for _ in range(3)]
            s = [rng.normal(size=(n_s, d)) for d in dims]
            p = [rng.normal(size=(n_p, d)) for d in dims]
            bws = [float(rng.uniform(0.5, 2.0)) for _ in range(3)]
            got = jmmd(s, p, JmmdSpec(bandwidths=bws))
            want = jmmd_oracle(s, p, bws)
            assert abs(got - want) < 1e-10

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = [rng.normal(size=(int(rng.integers(1, 10)), 3))]
            p = [rng.normal(size=(int(rng.integers(1, 10)), 3))]
            assert jmmd(s, p, JmmdSpec(bandwidths=[1.0])) >= -1e-9

    def test_product_kernel_law(self):
        # one layer with kernel k1*k2 == that layer duplicated with kernels k1, k2
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(5, 4))
        sa, sb = 0.8, 1.7
        s_eff = 1.0 / math.sqrt(1.0 / sa**2 + 1.0 / sb**2)
        single = jmmd([x], [y], JmmdSpec(bandwidths=[s_eff]))
        double = jmmd([x, x], [y, y], JmmdSpec(bandwidths=[sa, sb]))
        assert np.isclose(single, double, atol=1e-12)

    def test_decreases_with_sample_size(self):
        # same generator on both sides: the biased statistic shrinks with n
        vals = {n: [] for n in (4, 16, 64)}
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            for n in vals:
                s = [rng.normal(size=(n, 3))]
                p = [rng.normal(size=(n, 3))]
                vals[n].append(jmmd(s, p, JmmdSpec(bandwidths=[1.0])))
        medians = [np.median(vals[n]) for n in (4, 16, 64)]
        assert medians[0] >= medians[1] >= medians[2]

    def test_empty_set_rejected(self):
        with pytest.raises(LossInputError):
            jmmd([np.empty((0, 3))], [np.ones((2, 3))])

    def test_layer_dim_mismatch_rejected(self):
        with pytest.raises(LossInputError):
            jmmd([np.ones((2, 3))], [np.ones((2, 4))])

    def test_median_heuristic_resolves(self):
        rng = np.random.default_rng(8)
        s = [rng.normal(size=(4, 3))]
        p = [rng.normal(size=(4, 3))]
        assert jmmd(s, p) >= -1e-9

    def test_default_layer_set(self):
        assert default_layer_set(2) == (1, 2, 3)
        assert default_layer_set(1) == (0, 1, 2)


class TestJmmdGrad:
    def test_identical_sets_cancel_and_fd(self):
        rng = np.random.default_rng(9)
        base = [rng.normal(size=(4, 3)) for _ in range(2)]
        spec = JmmdSpec(bandwidths=[1.0, 1.3])
        _, d_s, d_p = jmmd_with_grad(base, [a.copy() for a in base], spec)
        for g in d_s + d_p:
            assert np.all(np.abs(g) < 1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        s = [rng.normal(size=(4, 3)), rng.normal(size=(4, 2))]
        p = [rng.normal(size=(5, 3)), rng.normal(size=(5, 2))]
        spec = JmmdSpec(bandwidths=[0.9, 1.4])
        _, d_s, d_p = jmmd_with_grad(s, p, spec)

        for l in range(2):
            fd_matches(d_s[l], lambda x, l=l: jmmd([x if m == l else s[m] for m in range(2)], p, spec), s[l])
            fd_matches(d_p[l], lambda x, l=l: jmmd(s, [x if m == l else p[m] for m in range(2)], spec), p[l])

    def test_descent_moves_sketch_toward_photo(self):
        s = [np.array([[0.0, 0.0]])]
        p = [np.array([[5.0, 1.0]])]
        _, d_s, _ = jmmd_with_grad(s, p, JmmdSpec(bandwidths=[2.0]))
        to_photo = p[0][0] - s[0][0]
        assert float(np.dot(-d_s[0][0], to_photo)) > 0

    def test_clamped_bandwidth_keeps_gradient_finite(self):
        s = [np.ones((3, 2))]
        p = [np.ones((3, 2))]
        _, d_s, d_p = jmmd_with_grad(s, p, JmmdSpec())
        assert np.all(np.isfinite(d_s[0]))
        assert np.all(np.isfinite(d_p[0]))

    @pytest.mark.parametrize("median", [True, False])
    def test_matches_block_reference(self, median):
        rng = np.random.default_rng(20 if median else 21)
        sizes = [(1, 1), (1, 7), (9, 1), (3, 11), (32, 32), (24, 40)]
        sizes += [tuple(int(v) for v in rng.integers(1, 30, size=2)) for _ in range(44)]
        worst = 0.0
        for n_s, n_p in sizes:
            dims = [int(rng.integers(2, 60)) for _ in range(3)]
            s = [rng.normal(size=(n_s, d)) for d in dims]
            p = [rng.normal(loc=0.5, size=(n_p, d)) for d in dims]
            bws = None if median else [float(rng.uniform(0.5, 6.0)) for _ in dims]
            spec = JmmdSpec() if median else JmmdSpec(bandwidths=bws)
            value, d_s, d_p = jmmd_with_grad(s, p, spec)
            ref_value, ref_s, ref_p = jmmd_block_reference(s, p, bws)
            worst = max(worst, abs(value - ref_value))
            for got, want in zip(d_s + d_p, ref_s + ref_p):
                assert got.shape == want.shape
                worst = max(worst, float(np.max(np.abs(got - want))))
            assert jmmd(s, p, spec) == value
        assert worst <= 1e-12

    def test_median_bandwidths_equal_pooled_heuristic(self):
        rng = np.random.default_rng(22)
        s = [rng.normal(size=(5, d)) for d in (3, 4)]
        p = [rng.normal(size=(2, d)) for d in (3, 4)]
        d2s = [_sq_dists(z, z) for z in (np.vstack([a, b]) for a, b in zip(s, p))]
        got = resolve_bandwidths(d2s, JmmdSpec())
        assert got == [median_bandwidth(np.vstack([a, b])) for a, b in zip(s, p)]

    def test_bandwidth_count_mismatch_rejected(self):
        s = [np.ones((2, 3))] * 2
        with pytest.raises(LossInputError):
            jmmd_with_grad(s, s, JmmdSpec(bandwidths=[1.0]))


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        # positives at distance 0, negatives at distance 1
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        assert triplet_loss(emb, labels, margin=0.3) == 0.0

    def test_equal_distances_give_margin(self):
        # unit square: every anchor has hardest positive and hardest negative at 1
        emb = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        assert np.isclose(triplet_loss(emb, labels, margin=0.3), 0.3)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            labels = rng.integers(0, 3, size=n)
            if np.unique(labels).size < 2:
                continue
            emb = rng.normal(size=(n, 4))
            got = triplet_loss(emb, labels, margin=0.3)
            want = triplet_oracle(emb, labels, 0.3)
            assert np.isclose(got, want, atol=1e-12)

    def test_single_identity_rejected(self):
        with pytest.raises(LossInputError):
            triplet_loss(np.random.default_rng(0).normal(size=(4, 2)), np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        emb = rng.normal(size=(8, 4))
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        _, grad = triplet_loss_grad(emb, labels, margin=0.3)
        fd_matches(grad, lambda x: triplet_loss(x, labels, margin=0.3), emb)

    def test_bit_identical_to_loop_reference(self):
        rng = np.random.default_rng(23)
        cases = 0
        for trial in range(240):
            p = int(rng.integers(2, 17))
            k = 1 if trial % 10 == 0 else int(rng.integers(2, 5))
            labels = np.repeat(rng.permutation(100)[:p], k)
            if trial % 3 == 0:
                labels = np.append(labels, 1000)  # a label with a single sample
            labels = labels[rng.permutation(labels.size)]
            emb = rng.normal(size=(labels.size, int(rng.integers(2, 9))))
            if trial % 2 == 0:
                emb = np.round(emb)  # many tied distances
            margin = float(rng.choice([0.0, 0.3, 2.0]))
            try:
                got_loss, got_grad = triplet_loss_grad(emb, labels, margin)
            except LossInputError:
                continue  # e.g. k = 1: no anchor has a positive
            want_loss, want_grad = triplet_loop_reference(emb, labels, margin)
            assert got_loss == want_loss
            assert np.array_equal(got_grad, want_grad)
            assert triplet_loss(emb, labels, margin) == got_loss
            cases += 1
        assert cases >= 200

    def test_single_sample_label_is_not_an_anchor(self):
        # the lone label-9 sample has no positive; it only serves as a negative
        emb = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0], [3.0, 1.0], [0.1, 0.0]])
        labels = np.array([0, 0, 1, 1, 9])
        loss, grad = triplet_loss_grad(emb, labels, margin=0.3)
        want_loss, want_grad = triplet_loop_reference(emb, labels, 0.3)
        assert loss == want_loss > 0
        assert np.array_equal(grad, want_grad)
        assert np.any(grad[4] != 0)

    def test_no_active_hinge_gives_zero_gradient(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.1], [5.0, 0.0], [5.0, 0.1]])
        labels = np.array([0, 0, 1, 1])
        loss, grad = triplet_loss_grad(emb, labels, margin=0.3)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(emb))
        assert triplet_loop_reference(emb, labels, 0.3)[0] == 0.0


class TestIdLoss:
    def test_one_hot_correct_is_zero(self):
        probs = np.eye(4)[[0, 2, 3]]
        assert id_loss(probs, np.array([0, 2, 3]), smoothing=0.0) == 0.0

    def test_uniform_is_log_c(self):
        probs = np.full((5, 7), 1 / 7)
        labels = np.arange(5)
        assert np.isclose(id_loss(probs, labels, smoothing=0.0), math.log(7))

    def test_smoothed_hand_expansion(self):
        # eps=0.1, C=4: q_true = 0.925, q_other = 0.025
        p = np.array([[0.7, 0.1, 0.15, 0.05]])
        want = -(
            0.925 * math.log(0.7)
            + 0.025 * (math.log(0.1) + math.log(0.15) + math.log(0.05))
        )
        assert np.isclose(id_loss(p, np.array([0]), smoothing=0.1), want)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(6, 5))
        probs = softmax(logits)
        labels = rng.integers(0, 5, size=6)
        _, grad = id_loss_grad(probs, labels, smoothing=0.1)
        fd_matches(grad, lambda x: id_loss(x, labels, smoothing=0.1), probs)

    def test_label_out_of_range(self):
        with pytest.raises(LossInputError):
            id_loss(np.full((1, 3), 1 / 3), np.array([3]))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        p = softmax(rng.normal(size=(10, 6)) * 30)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(4, 5))
        w = rng.normal(size=(4, 5))

        def scalar(z):
            return float((softmax(z) * w).sum())

        p = softmax(logits)
        grad = softmax_backward(p, w)
        fd_matches(grad, scalar, logits)


class TestI2tce:
    def test_matched_prototype_low_temperature(self):
        protos = np.eye(4)
        emb = protos[[0, 1, 2, 3]] * 2.5
        labels = np.arange(4)
        losses = [i2tce_loss(emb, protos, labels, temperature=t) for t in (1.0, 0.2, 0.07)]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-5

    def test_identical_prototypes_give_log_c(self):
        protos = np.tile(np.array([1.0, 2.0, 0.5]), (6, 1))
        emb = np.random.default_rng(16).normal(size=(3, 3))
        labels = np.array([0, 3, 5])
        assert np.isclose(i2tce_loss(emb, protos, labels), math.log(6))

    def test_equivalence_with_id_loss_on_cosine_softmax(self):
        rng = np.random.default_rng(17)
        emb = rng.normal(size=(5, 4))
        protos = rng.normal(size=(7, 4))
        labels = rng.integers(0, 7, size=5)
        t = 0.11
        # independent recomputation of the cosine-logit softmax route
        e_hat = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        p_hat = protos / np.linalg.norm(protos, axis=1, keepdims=True)
        probs = softmax(e_hat @ p_hat.T / t)
        assert np.isclose(
            i2tce_loss(emb, protos, labels, temperature=t),
            id_loss(probs, labels, smoothing=0.0),
            atol=1e-12,
        )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        emb = rng.normal(size=(5, 4))
        protos = rng.normal(size=(6, 4))
        labels = rng.integers(0, 6, size=5)
        probs = softmax(cosine_logits(emb, protos, temperature=0.3))
        _, d_e, d_p = i2tce_loss_grad(probs, emb, protos, labels, temperature=0.3)
        fd_matches(d_e, lambda x: i2tce_loss(x, protos, labels, temperature=0.3), emb)
        fd_matches(d_p, lambda x: i2tce_loss(emb, x, labels, temperature=0.3), protos)

    def test_cosine_logits_backward_matches_fd(self):
        rng = np.random.default_rng(19)
        emb = rng.normal(size=(4, 3))
        protos = rng.normal(size=(5, 3))
        w = rng.normal(size=(4, 5))

        def scalar_e(e):
            return float((cosine_logits(e, protos, 0.5) * w).sum())

        def scalar_p(p):
            return float((cosine_logits(emb, p, 0.5) * w).sum())

        d_e, d_p = cosine_logits_backward(emb, protos, w, 0.5)
        fd_matches(d_e, scalar_e, emb)
        fd_matches(d_p, scalar_p, protos)


class TestSimLoss:
    def test_alpha_zero_ablation(self):
        b = sim_loss(0.4, 0.2, 0.1, 9.0, alpha=0.0)
        assert b.l_sim == b.l_reid

    def test_hand_value(self):
        b = sim_loss(0.5, 0.3, 0.2, 0.2, alpha=5.0)
        assert np.isclose(b.l_reid, 1.0)
        assert np.isclose(b.l_sim, 2.0)

    def test_all_zero(self):
        assert sim_loss(0.0, 0.0, 0.0, 0.0).l_sim == 0.0

    def test_breakdown_consistency(self):
        b = LossBreakdown(l_id=0.1, l_tri=0.2, l_i2tce=0.3, l_jmmd=0.4, alpha=2.0)
        assert np.isclose(b.l_reid, 0.6)
        assert np.isclose(b.l_sim, 0.6 + 2.0 * 0.4)
