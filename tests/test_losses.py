import math

import numpy as np
import pytest

from xmcl.encoder import EncoderConfig
from xmcl.losses import (
    JmmdSpec,
    LossBreakdown,
    LossInputError,
    _layer_sq_dists,
    _row_norms,
    _sq_dists,
    cosine_logits,
    cosine_logits_backward,
    cross_entropies_grad,
    default_layer_set,
    jmmd_with_grad,
    resolve_bandwidths,
    softmax,
    softmax_backward,
    triplet_loss_grad,
)
from xmcl.trainer import ExperimentConfig
from test_metrics import traced_peak


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


def pooled(sketch_layers, photo_layers):
    """Each layer's rows stacked as [sketches; photos], and the sketch mask of those rows."""
    layers = [np.concatenate([a, b]) for a, b in zip(sketch_layers, photo_layers)]
    return layers, np.arange(len(layers[0])) < len(sketch_layers[0])


def jmmd_value(sketch_layers, photo_layers, spec=JmmdSpec()):
    """The alignment loss between a sketch set and a photo set: jmmd_with_grad's value."""
    layers, is_sketch = pooled(sketch_layers, photo_layers)
    return jmmd_with_grad(layers, is_sketch, spec, _layer_sq_dists(layers))[0]


def norms_of(embeddings, prototypes):
    """The row norms cosine_logits and cosine_logits_backward take."""
    return _row_norms(embeddings), _row_norms(prototypes)


def prototype_ce(embeddings, prototypes, labels, temperature=0.07):
    """The prototype CE of cosine logits: cross_entropies_grad's second value."""
    norms = norms_of(embeddings, prototypes)
    probs = softmax(cosine_logits(embeddings, prototypes, temperature, norms))
    return cross_entropies_grad(probs, labels, 0.1)[1]


def jmmd_split_grad(sketch_layers, photo_layers, spec):
    """jmmd_with_grad on [sketches; photos], its gradients split back per set."""
    layers, is_sketch = pooled(sketch_layers, photo_layers)
    value, grads = jmmd_with_grad(layers, is_sketch, spec, _layer_sq_dists(layers))
    return value, [g[is_sketch] for g in grads], [g[~is_sketch] for g in grads]


def jmmd_block_reference(sketch_layers, photo_layers, bandwidths=None):
    """Three-block form: separate J_ss, J_pp, J_sp kernels and gradient terms.

    Plain numpy throughout: squared distances by broadcasting, the kernel by
    np.exp, and bandwidths=None takes sigma^2 = np.median over the pooled
    layer's unordered pairs (clamped at 1e-12), as the median heuristic says.
    """
    s = [np.atleast_2d(np.asarray(a, np.float64)) for a in sketch_layers]
    p = [np.atleast_2d(np.asarray(b, np.float64)) for b in photo_layers]

    def sq_dists(x, y):
        return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)

    if bandwidths is None:
        bandwidths = []
        for a, b in zip(s, p):
            z = np.vstack([a, b])
            pairs = sq_dists(z, z)[np.triu_indices(z.shape[0], k=1)]
            bandwidths.append(math.sqrt(max(float(np.median(pairs)), 1e-12)))

    def joint(xs, ys):
        exponent = sum(sq_dists(a, b) / (2.0 * bw**2) for a, b, bw in zip(xs, ys, bandwidths))
        return np.exp(-exponent)

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


def kernel(x, y, sigma):
    """k(x, y) as jmmd_with_grad builds it: one sketch x, one photo y, one layer.

    For single rows the alignment distance is k(x, x) + k(y, y) - 2 k(x, y),
    and k(x, x) = 1 (test_identity).
    """
    value = jmmd_value([np.atleast_2d(x)], [np.atleast_2d(y)], JmmdSpec(bandwidths=[sigma]))
    return 1.0 - value / 2


def median_sigma(feats):
    """The median-heuristic bandwidth resolve_bandwidths picks for one pooled layer."""
    return resolve_bandwidths(_sq_dists(feats, feats)[None], JmmdSpec())[0]


class TestGaussianKernel:
    def test_identity(self):
        # y shares no kernel mass with x, so the distance is k(x, x) + k(y, y)
        x = np.array([1.0, -2.0, 0.5])
        y = x + 1e3
        value = jmmd_value([x[None]], [y[None]], JmmdSpec(bandwidths=[0.7]))
        assert np.isclose(value, 2.0, rtol=0, atol=1e-12)

    def test_hand_value(self):
        # ||x-y||^2 = 2 sigma^2 -> e^{-1}
        sigma = 1.3
        x = np.zeros(4)
        y = np.zeros(4)
        y[0] = math.sqrt(2) * sigma
        assert np.isclose(kernel(x, y, sigma), math.exp(-1), atol=1e-12)
        assert np.isclose(kernel(x, y, sigma), 0.367879, atol=1e-6)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            JmmdSpec(bandwidths=[0.0])

    @pytest.mark.parametrize("sigma", [1.3407807929942597e154, 1e-170, math.inf, math.nan])
    def test_rejects_bandwidth_whose_square_leaves_the_float_range(self, sigma):
        # sigma ** 2 raised OverflowError, or 2 / sigma ** 2 ZeroDivisionError, mid-training
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            JmmdSpec(bandwidths=[1.0, sigma])

    @pytest.mark.parametrize("sigma", [9e153, 1e-150])
    def test_extreme_bandwidth_inside_the_range_is_used(self, sigma):
        x, y = np.zeros((1, 3)), np.ones((2, 3))
        assert math.isfinite(jmmd_value([x], [y], JmmdSpec(bandwidths=[sigma])))

    def test_matrix_agrees_with_scalar(self):
        # the batched kernel of two sets against one kernel evaluation per pair
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(5, 3))

        def mean_kernel(a, b):
            return np.mean([kernel(u, v, 0.9) for u in a for v in b])

        want = mean_kernel(x, x) + mean_kernel(y, y) - 2 * mean_kernel(x, y)
        got = jmmd_value([x], [y], JmmdSpec(bandwidths=[0.9]))
        assert np.isclose(got, want, rtol=0, atol=1e-12)


class TestSqDists:
    @pytest.mark.parametrize("same", [True, False])
    def test_bit_identical_to_expression(self, same):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(37, 5))
        # near-coincident rows make xx + yy - 2 x.y cancel to tiny or negative values
        x[1] = x[0] + 1e-9
        y = x if same else np.concatenate([x[:3], rng.normal(size=(20, 5))])
        want = np.maximum(
            np.sum(x * x, axis=1)[:, None] + np.sum(y * y, axis=1)[None, :] - 2.0 * (x @ y.T), 0.0
        )
        got = _sq_dists(x, y)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # written into a given buffer, here one layer of a stack, with the same bits
        stack = np.full((2, *want.shape), np.nan)
        layer = stack[1]
        assert _sq_dists(x, y, out=layer) is layer
        assert np.array_equal(layer.view(np.int64), want.view(np.int64))
        assert np.isnan(stack[0]).all()


MEDIAN_CASES = ["continuous", "tiny", "large", "mixed", "grid", "duplicate_rows", "all_zero"]


class TestMedianBandwidth:
    def test_single_pair(self):
        sigma = median_sigma(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.isclose(sigma**2, 4.0)

    def test_degenerate_clamps(self):
        sigma = median_sigma(np.ones((5, 3)))
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
        assert np.isclose(median_sigma(feats) ** 2, np.median(d2))

    def test_partition_median_equals_np_median_to_the_bit(self):
        # n vectors give n(n-1)/2 pairs: odd for n = 2, 3, 6, 7, ..., even for n = 4, 5, 8, ...
        rng = np.random.default_rng(41)
        for n in range(2, 80):
            for case in MEDIAN_CASES:
                dim = int(rng.integers(1, 6))
                if case == "mixed":
                    # a tight cluster and far points: the two middle pairs differ in scale
                    spread = np.where(np.arange(n) < n // 2, 1e-4, 10.0)
                    feats = rng.normal(size=(n, dim)) * spread[:, None]
                elif case == "grid":
                    feats = rng.integers(-2, 3, size=(n, dim)).astype(float)  # many ties
                elif case == "all_zero":
                    feats = np.zeros((n, dim))
                else:
                    feats = rng.normal(size=(n, dim)) * {"tiny": 1e-7, "large": 1e3}.get(case, 1.0)
                if case == "duplicate_rows":
                    feats = feats[rng.integers(0, n, size=n)]
                d2 = _sq_dists(feats, feats)
                pairs = d2[np.triu_indices(n, k=1)]
                expected = float(np.sqrt(max(float(np.median(pairs)), 1e-12)))
                assert median_sigma(feats) == expected

    def test_even_count_takes_the_smallest_value_above_the_partition_point(self):
        # 32 rows give 496 pairs; on this draw np.partition leaves a value
        # larger than the upper middle one at index 248, which the random
        # draws above rarely do
        feats = np.random.default_rng(153).normal(size=(32, 3))
        pairs = _sq_dists(feats, feats)[np.triu_indices(32, k=1)]
        mid = pairs.size // 2
        part = np.partition(pairs, mid - 1)
        assert part[mid] > part[mid:].min()
        assert median_sigma(feats) == float(np.sqrt(np.median(pairs)))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_rejected(self, rows):
        with pytest.raises(LossInputError, match=f"at least 2 rows per layer, got {rows}"):
            resolve_bandwidths(np.zeros((1, rows, rows)), JmmdSpec())


class TestJmmd:
    def test_identical_distributions_zero(self):
        rng = np.random.default_rng(2)
        layers = [rng.normal(size=(6, 4)) for _ in range(3)]
        spec = JmmdSpec(bandwidths=[1.0, 0.5, 2.0])
        assert abs(jmmd_value(layers, [a.copy() for a in layers], spec)) < 1e-10

    def test_single_pair_hand_value(self):
        # n_S = n_P = 1, one layer: 2 - 2 k(s, p); at k = e^{-1} this is 1.264241
        sigma = 1.0
        s = [np.array([[0.0, 0.0]])]
        p = [np.array([[math.sqrt(2) * sigma, 0.0]])]
        val = jmmd_value(s, p, JmmdSpec(bandwidths=[sigma]))
        assert np.isclose(val, 2 * (1 - math.exp(-1)), atol=1e-12)
        assert np.isclose(val, 1.264241, atol=1e-6)

    def test_set_swap_symmetry(self):
        rng = np.random.default_rng(3)
        s = [rng.normal(size=(5, 3)) for _ in range(2)]
        p = [rng.normal(size=(7, 3)) for _ in range(2)]
        spec = JmmdSpec(bandwidths=[1.0, 1.5])
        assert np.isclose(jmmd_value(s, p, spec), jmmd_value(p, s, spec), atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_s = int(rng.integers(1, 9))
            n_p = int(rng.integers(1, 9))
            dims = [int(rng.integers(2, 5)) for _ in range(3)]
            s = [rng.normal(size=(n_s, d)) for d in dims]
            p = [rng.normal(size=(n_p, d)) for d in dims]
            bws = [float(rng.uniform(0.5, 2.0)) for _ in range(3)]
            got = jmmd_value(s, p, JmmdSpec(bandwidths=bws))
            want = jmmd_oracle(s, p, bws)
            assert abs(got - want) < 1e-10

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = [rng.normal(size=(int(rng.integers(1, 10)), 3))]
            p = [rng.normal(size=(int(rng.integers(1, 10)), 3))]
            assert jmmd_value(s, p, JmmdSpec(bandwidths=[1.0])) >= -1e-9

    def test_product_kernel_law(self):
        # one layer with kernel k1*k2 == that layer duplicated with kernels k1, k2
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(5, 4))
        sa, sb = 0.8, 1.7
        s_eff = 1.0 / math.sqrt(1.0 / sa**2 + 1.0 / sb**2)
        single = jmmd_value([x], [y], JmmdSpec(bandwidths=[s_eff]))
        double = jmmd_value([x, x], [y, y], JmmdSpec(bandwidths=[sa, sb]))
        assert np.isclose(single, double, atol=1e-12)

    def test_decreases_with_sample_size(self):
        # same generator on both sides: the biased statistic shrinks with n
        vals = {n: [] for n in (4, 16, 64)}
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            for n in vals:
                s = [rng.normal(size=(n, 3))]
                p = [rng.normal(size=(n, 3))]
                vals[n].append(jmmd_value(s, p, JmmdSpec(bandwidths=[1.0])))
        medians = [np.median(vals[n]) for n in (4, 16, 64)]
        assert medians[0] >= medians[1] >= medians[2]

    def test_empty_set_rejected(self):
        with pytest.raises(LossInputError):
            jmmd_value([np.empty((0, 3))], [np.ones((2, 3))])

    def test_median_heuristic_resolves(self):
        rng = np.random.default_rng(8)
        s = [rng.normal(size=(4, 3))]
        p = [rng.normal(size=(4, 3))]
        assert jmmd_value(s, p) >= -1e-9

    def test_default_layer_set(self):
        assert default_layer_set(2) == (1, 2, 3)
        assert default_layer_set(1) == (0, 1, 2)


class TestJmmdGrad:
    def test_identical_sets_cancel_and_fd(self):
        rng = np.random.default_rng(9)
        base = [rng.normal(size=(4, 3)) for _ in range(2)]
        spec = JmmdSpec(bandwidths=[1.0, 1.3])
        _, d_s, d_p = jmmd_split_grad(base, [a.copy() for a in base], spec)
        for g in d_s + d_p:
            assert np.all(np.abs(g) < 1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        s = [rng.normal(size=(4, 3)), rng.normal(size=(4, 2))]
        p = [rng.normal(size=(5, 3)), rng.normal(size=(5, 2))]
        spec = JmmdSpec(bandwidths=[0.9, 1.4])
        _, d_s, d_p = jmmd_split_grad(s, p, spec)

        for l in range(2):
            fd_matches(d_s[l], lambda x, l=l: jmmd_value([x if m == l else s[m] for m in range(2)], p, spec), s[l])
            fd_matches(d_p[l], lambda x, l=l: jmmd_value(s, [x if m == l else p[m] for m in range(2)], spec), p[l])

    def test_descent_moves_sketch_toward_photo(self):
        s = [np.array([[0.0, 0.0]])]
        p = [np.array([[5.0, 1.0]])]
        _, d_s, _ = jmmd_split_grad(s, p, JmmdSpec(bandwidths=[2.0]))
        to_photo = p[0][0] - s[0][0]
        assert float(np.dot(-d_s[0][0], to_photo)) > 0

    def test_clamped_bandwidth_keeps_gradient_finite(self):
        s = [np.ones((3, 2))]
        p = [np.ones((3, 2))]
        _, d_s, d_p = jmmd_split_grad(s, p, JmmdSpec())
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
            value, d_s, d_p = jmmd_split_grad(s, p, spec)
            ref_value, ref_s, ref_p = jmmd_block_reference(s, p, bws)
            worst = max(worst, abs(value - ref_value))
            for got, want in zip(d_s + d_p, ref_s + ref_p):
                assert got.shape == want.shape
                worst = max(worst, float(np.max(np.abs(got - want))))
            assert jmmd_value(s, p, spec) == value
        assert worst <= 1e-12

    def test_median_bandwidths_equal_pooled_heuristic(self):
        rng = np.random.default_rng(22)
        s = [rng.normal(size=(5, d)) for d in (3, 4)]
        p = [rng.normal(size=(2, d)) for d in (3, 4)]
        d2s = _layer_sq_dists([np.vstack([a, b]) for a, b in zip(s, p)])
        got = resolve_bandwidths(d2s, JmmdSpec())
        pairs = [d2[np.triu_indices(7, k=1)] for d2 in d2s]
        assert got == [float(np.sqrt(max(float(np.median(x)), 1e-12))) for x in pairs]

    def test_batch_order_gradients_follow_the_rows(self):
        # any interleaving of the same rows gives the same value, and the
        # gradient rows move with their samples
        rng = np.random.default_rng(23)
        for median in (True, False):
            n = 11
            layers = [rng.normal(size=(n, d)) for d in (3, 5)]
            is_sketch = rng.permutation(np.arange(n) < 4)
            spec = JmmdSpec() if median else JmmdSpec(bandwidths=[1.2, 2.5])
            value, grads = jmmd_with_grad(layers, is_sketch, spec, _layer_sq_dists(layers))
            perm = rng.permutation(n)
            permuted = [z[perm] for z in layers]
            p_value, p_grads = jmmd_with_grad(
                permuted, is_sketch[perm], spec, _layer_sq_dists(permuted)
            )
            assert abs(p_value - value) <= 1e-12
            for g, pg in zip(grads, p_grads):
                assert np.max(np.abs(pg - g[perm])) <= 1e-12
            want, ref_s, ref_p = jmmd_block_reference(
                [z[is_sketch] for z in layers], [z[~is_sketch] for z in layers],
                None if median else [1.2, 2.5],
            )
            assert abs(value - want) <= 1e-12
            for g, r_s, r_p in zip(grads, ref_s, ref_p):
                assert np.max(np.abs(g[is_sketch] - r_s)) <= 1e-12
                assert np.max(np.abs(g[~is_sketch] - r_p)) <= 1e-12

    def test_given_distances_are_used(self):
        rng = np.random.default_rng(24)
        layers = [rng.normal(size=(6, 3)), rng.normal(size=(6, 2))]
        is_sketch = np.arange(6) % 2 == 0
        d2s = np.stack([_sq_dists(z, z) for z in layers])
        assert jmmd_with_grad(layers, is_sketch, JmmdSpec(), d2s)[0] == jmmd_with_grad(
            layers, is_sketch, JmmdSpec(), _layer_sq_dists(layers)
        )[0]
        # the median heuristic is scale-free, so fixed bandwidths show the scaling
        fixed = JmmdSpec(bandwidths=[1.0, 1.0])
        scaled = jmmd_with_grad(layers, is_sketch, fixed, 4.0 * d2s)[0]
        doubled = [2.0 * z for z in layers]
        assert scaled == jmmd_with_grad(doubled, is_sketch, fixed, _layer_sq_dists(doubled))[0]

    def test_given_stacked_distances_give_the_same_bits(self):
        rng = np.random.default_rng(26)
        layers = [rng.normal(size=(7, 3)), rng.normal(size=(7, 5)), rng.normal(size=(7, 2))]
        is_sketch = np.arange(7) % 3 == 0
        # _layer_sq_dists writes each layer into one buffer; np.stack copies fresh matrices
        d2s = np.stack([_sq_dists(z, z) for z in layers])
        for spec in (JmmdSpec(), JmmdSpec(bandwidths=[0.5, 1.0, 2.0])):
            value, grads = jmmd_with_grad(layers, is_sketch, spec, _layer_sq_dists(layers))
            given_value, given_grads = jmmd_with_grad(layers, is_sketch, spec, d2s)
            assert given_value == value
            assert all(np.array_equal(a, b) for a, b in zip(given_grads, grads))

    @pytest.mark.parametrize(
        "given",
        [
            pytest.param(np.ones((2, 6, 6)), id="stack-of-two"),
            pytest.param(np.ones((4, 6, 6)), id="stack-of-four"),
            pytest.param(np.ones((3, 5, 5)), id="stack-too-small"),
            pytest.param(np.ones((3, 6, 7)), id="stack-not-square"),
            pytest.param(np.ones((3, 7, 7)), id="stack-too-large"),
            pytest.param(np.ones((0, 6, 6)), id="stack-of-none"),
            pytest.param(np.ones((1, 3, 6, 6)), id="stack-with-an-extra-axis"),
            pytest.param(np.ones((6, 6)), id="one-unstacked-matrix"),
        ],
    )
    def test_distance_count_or_shape_mismatch_rejected(self, given):
        # before the check, two matrices for three layers silently dropped the third layer
        rng = np.random.default_rng(27)
        layers = [rng.normal(size=(6, d)) for d in (3, 4, 2)]
        with pytest.raises(LossInputError, match="squared-distance matrix"):
            jmmd_with_grad(layers, np.arange(6) < 3, JmmdSpec(), given)

    @pytest.mark.parametrize("is_sketch", [[True] * 4, [False] * 4, [True, False, True]])
    def test_batch_without_both_modalities_or_rows_rejected(self, is_sketch):
        layers = [np.ones((4, 2))]
        with pytest.raises(LossInputError):
            jmmd_with_grad(
                layers, np.array(is_sketch), JmmdSpec(bandwidths=[1.0]), _layer_sq_dists(layers)
            )

    def test_bandwidth_count_mismatch_rejected(self):
        s = [np.ones((2, 3))] * 2
        with pytest.raises(LossInputError):
            jmmd_with_grad(s, np.arange(2) < 1, JmmdSpec(bandwidths=[1.0]), _layer_sq_dists(s))


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        # positives at distance 0, negatives at distance 1
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        assert triplet_loss_grad(emb, labels, 0.3, None)[0] == 0.0

    def test_equal_distances_give_margin(self):
        # unit square: every anchor has hardest positive and hardest negative at 1
        emb = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        assert np.isclose(triplet_loss_grad(emb, labels, 0.3, None)[0], 0.3)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            labels = rng.integers(0, 3, size=n)
            if np.unique(labels).size < 2:
                continue
            emb = rng.normal(size=(n, 4))
            got = triplet_loss_grad(emb, labels, 0.3, None)[0]
            want = triplet_oracle(emb, labels, 0.3)
            assert np.isclose(got, want, atol=1e-12)

    def test_single_identity_rejected(self):
        with pytest.raises(LossInputError):
            triplet_loss_grad(np.random.default_rng(0).normal(size=(4, 2)), np.zeros(4), 0.3, None)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        emb = rng.normal(size=(8, 4))
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        _, grad = triplet_loss_grad(emb, labels, 0.3, None)
        fd_matches(grad, lambda x: triplet_loss_grad(x, labels, 0.3, None)[0], emb)

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
                got_loss, got_grad = triplet_loss_grad(emb, labels, margin, None)
            except LossInputError:
                continue  # e.g. k = 1: no anchor has a positive
            want_loss, want_grad = triplet_loop_reference(emb, labels, margin)
            assert got_loss == want_loss
            assert np.array_equal(got_grad, want_grad)
            assert triplet_loss_grad(emb, labels, margin, None)[0] == got_loss
            cases += 1
        assert cases >= 200

    def test_single_sample_label_is_not_an_anchor(self):
        # the lone label-9 sample has no positive; it only serves as a negative
        emb = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0], [3.0, 1.0], [0.1, 0.0]])
        labels = np.array([0, 0, 1, 1, 9])
        loss, grad = triplet_loss_grad(emb, labels, 0.3, None)
        want_loss, want_grad = triplet_loop_reference(emb, labels, 0.3)
        assert loss == want_loss > 0
        assert np.array_equal(grad, want_grad)
        assert np.any(grad[4] != 0)

    def test_given_distances_give_the_same_bits(self):
        rng = np.random.default_rng(25)
        emb = rng.normal(size=(12, 4))
        labels = np.arange(12) % 4
        loss, grad = triplet_loss_grad(emb, labels, 0.3, None)
        shared_loss, shared_grad = triplet_loss_grad(emb, labels, 0.3, _sq_dists(emb, emb))
        assert shared_loss == loss
        assert np.array_equal(shared_grad, grad)

    @pytest.mark.parametrize("shape", [(11, 11), (12, 11), (12,), (1, 12, 12)])
    def test_given_distances_of_the_wrong_shape_rejected(self, shape):
        emb = np.random.default_rng(25).normal(size=(12, 4))
        with pytest.raises(LossInputError, match="sq_dists must be"):
            triplet_loss_grad(emb, np.arange(12) % 4, 0.3, np.ones(shape))

    def test_no_active_hinge_gives_zero_gradient(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.1], [5.0, 0.0], [5.0, 0.1]])
        labels = np.array([0, 0, 1, 1])
        loss, grad = triplet_loss_grad(emb, labels, 0.3, None)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(emb))
        assert triplet_loop_reference(emb, labels, 0.3)[0] == 0.0


class TestIdLoss:
    def test_one_hot_correct_is_zero(self):
        probs = np.eye(4)[[0, 2, 3]]
        assert cross_entropies_grad(probs, np.array([0, 2, 3]), smoothing=0.0)[0] == 0.0

    def test_uniform_is_log_c(self):
        probs = np.full((5, 7), 1 / 7)
        labels = np.arange(5)
        assert np.isclose(cross_entropies_grad(probs, labels, smoothing=0.0)[0], math.log(7))

    def test_smoothed_hand_expansion(self):
        # eps=0.1, C=4: q_true = 0.925, q_other = 0.025
        p = np.array([[0.7, 0.1, 0.15, 0.05]])
        want = -(
            0.925 * math.log(0.7)
            + 0.025 * (math.log(0.1) + math.log(0.15) + math.log(0.05))
        )
        assert np.isclose(cross_entropies_grad(p, np.array([0]), smoothing=0.1)[0], want)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(6, 5))
        probs = softmax(logits)
        labels = rng.integers(0, 5, size=6)
        # the identity CE's own gradient: the merged one less the prototype CE's
        g0 = cross_entropies_grad(probs, labels, 0.0)[2]
        grad = cross_entropies_grad(probs, labels, 0.1)[2] - g0 / 2
        fd_matches(grad, lambda z: cross_entropies_grad(softmax(z), labels, 0.1)[0], logits)

    def test_label_out_of_range(self):
        with pytest.raises(LossInputError):
            cross_entropies_grad(np.full((1, 3), 1 / 3), np.array([3]), 0.1)


class TestCrossEntropies:
    def test_prototype_ce_is_unsmoothed_identity_ce(self):
        rng = np.random.default_rng(26)
        probs = softmax(rng.normal(size=(9, 6)) * 3)
        labels = rng.integers(0, 6, size=9)
        l_id0, l_i2tce, g0 = cross_entropies_grad(probs, labels, smoothing=0.0)
        assert l_i2tce == l_id0
        # unsmoothed, the summed gradient is twice the prototype CE's (p - onehot) / n
        onehot = np.eye(6)[labels]
        np.testing.assert_allclose(g0 / 2, (probs - onehot) / 9, rtol=0, atol=1e-15)

    def test_joint_logits_gradient(self):
        # d(l_id + l_i2tce)/d logits = (2p - q_s - onehot) / n
        rng = np.random.default_rng(27)
        n, c, eps = 7, 5, 0.1
        logits = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        probs = softmax(logits)
        _, _, d_logits = cross_entropies_grad(probs, labels, smoothing=eps)
        onehot = np.eye(c)[labels]
        q = (1 - eps) * onehot + eps / c
        np.testing.assert_allclose(d_logits, (2 * probs - q - onehot) / n, rtol=0, atol=1e-15)
        # = 2 (p - q_{s/2}) / n
        q_half = (1 - eps / 2) * onehot + eps / 2 / c
        np.testing.assert_allclose(d_logits, 2 * (probs - q_half) / n, rtol=0, atol=1e-15)
        fd_matches(
            d_logits,
            lambda z: cross_entropies_grad(softmax(z), labels, smoothing=eps)[0]
            + cross_entropies_grad(softmax(z), labels, 0.0)[0],
            logits,
        )

    def test_values_equal_the_value_forms(self):
        rng = np.random.default_rng(28)
        emb = rng.normal(size=(5, 4))
        protos = rng.normal(size=(6, 4))
        labels = rng.integers(0, 6, size=5)
        probs = softmax(cosine_logits(emb, protos, 0.2, norms_of(emb, protos)))
        l_id, l_i2tce, _ = cross_entropies_grad(probs, labels, smoothing=0.2)
        assert l_id == cross_entropies_grad(probs, labels, smoothing=0.2)[0]
        assert l_i2tce == prototype_ce(emb, protos, labels, temperature=0.2)

    def test_values_match_the_target_matrix_form(self):
        # l_id = -sum(q_s log p) / n and l_i2tce = -sum(log p_y) / n, to rounding
        rng = np.random.default_rng(29)
        n, c, eps = 64, 50, 0.1
        probs = softmax(rng.normal(size=(n, c)) * 4)
        labels = rng.integers(0, c, size=n)
        q = np.full((n, c), eps / c)
        q[np.arange(n), labels] += 1 - eps
        l_id, l_i2tce, _ = cross_entropies_grad(probs, labels, eps)
        assert abs(l_id + (q * np.log(probs)).sum() / n) <= 1e-12
        assert abs(l_i2tce + np.log(probs[np.arange(n), labels]).sum() / n) <= 1e-12

    def test_one_logits_gradient_buffer(self):
        # at most two N x C arrays live at once: the clipped log, then it and the gradient
        rng = np.random.default_rng(30)
        probs = softmax(rng.normal(size=(2000, 200)))
        labels = rng.integers(0, 200, size=2000)
        (_, _, d_logits), peak = traced_peak(cross_entropies_grad, probs, labels, 0.1)
        assert peak < 2.5 * probs.nbytes, f"peak {peak / 2**20:.1f} MiB"
        assert d_logits.shape == probs.shape

    @pytest.mark.parametrize("smoothing", [-0.1, 1.0])
    def test_smoothing_outside_unit_interval_rejected(self, smoothing):
        with pytest.raises(LossInputError):
            cross_entropies_grad(np.full((2, 3), 1 / 3), np.array([0, 1]), smoothing)


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

    def test_one_buffer_bit_equal_and_input_unchanged(self):
        # the shifted logits are the only N x C array: under 2 N C float64 of peak
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(2000, 200)) * 8
        before = logits.copy()
        got, peak = traced_peak(softmax, logits)
        assert peak < 2 * logits.size * 8, f"peak {peak / 2**20:.1f} MiB"
        assert np.array_equal(logits, before)
        z = logits - logits.max(axis=1, keepdims=True)
        ez = np.exp(z)
        assert np.array_equal(got, ez / ez.sum(axis=1, keepdims=True))


class TestI2tce:
    def test_matched_prototype_low_temperature(self):
        protos = np.eye(4)
        emb = protos[[0, 1, 2, 3]] * 2.5
        labels = np.arange(4)
        losses = [prototype_ce(emb, protos, labels, temperature=t) for t in (1.0, 0.2, 0.07)]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-5

    def test_identical_prototypes_give_log_c(self):
        protos = np.tile(np.array([1.0, 2.0, 0.5]), (6, 1))
        emb = np.random.default_rng(16).normal(size=(3, 3))
        labels = np.array([0, 3, 5])
        assert np.isclose(prototype_ce(emb, protos, labels), math.log(6))

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
            prototype_ce(emb, protos, labels, temperature=t),
            cross_entropies_grad(probs, labels, smoothing=0.0)[0],
            atol=1e-12,
        )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        emb = rng.normal(size=(5, 4))
        protos = rng.normal(size=(6, 4))
        labels = rng.integers(0, 6, size=5)
        probs = softmax(cosine_logits(emb, protos, 0.3, norms_of(emb, protos)))
        # the prototype CE's own gradient: half the unsmoothed summed one
        d_logits = cross_entropies_grad(probs, labels, 0.0)[2] / 2
        d_e, d_p = cosine_logits_backward(emb, protos, d_logits, 0.3, norms_of(emb, protos))
        fd_matches(d_e, lambda x: prototype_ce(x, protos, labels, temperature=0.3), emb)
        fd_matches(d_p, lambda x: prototype_ce(emb, x, labels, temperature=0.3), protos)

    def test_cosine_logits_backward_matches_fd(self):
        rng = np.random.default_rng(19)
        emb = rng.normal(size=(4, 3))
        protos = rng.normal(size=(5, 3))
        w = rng.normal(size=(4, 5))

        def scalar_e(e):
            return float((cosine_logits(e, protos, 0.5, norms_of(e, protos)) * w).sum())

        def scalar_p(p):
            return float((cosine_logits(emb, p, 0.5, norms_of(emb, p)) * w).sum())

        d_e, d_p = cosine_logits_backward(emb, protos, w, 0.5, norms_of(emb, protos))
        fd_matches(d_e, scalar_e, emb)
        fd_matches(d_p, scalar_p, protos)


    def test_default_temperature_is_the_encoders(self):
        assert EncoderConfig.temperature == ExperimentConfig.temperature == 0.07


class TestSimLoss:
    def test_alpha_zero_ablation(self):
        b = LossBreakdown(l_id=0.4, l_tri=0.2, l_i2tce=0.1, l_jmmd=9.0, alpha=0.0)
        assert b.l_sim == b.l_reid

    def test_hand_value(self):
        b = LossBreakdown(l_id=0.5, l_tri=0.3, l_i2tce=0.2, l_jmmd=0.2, alpha=5.0)
        assert np.isclose(b.l_reid, 1.0)
        assert np.isclose(b.l_sim, 2.0)

    def test_all_zero(self):
        assert LossBreakdown(l_id=0.0, l_tri=0.0, l_i2tce=0.0, l_jmmd=0.0, alpha=5.0).l_sim == 0.0

    def test_breakdown_consistency(self):
        b = LossBreakdown(l_id=0.1, l_tri=0.2, l_i2tce=0.3, l_jmmd=0.4, alpha=2.0)
        assert np.isclose(b.l_reid, 0.6)
        assert np.isclose(b.l_sim, 0.6 + 2.0 * 0.4)
