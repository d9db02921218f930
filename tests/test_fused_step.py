"""The training step against the steps it replaced.

The first oracle is the earlier form of ``batch_gradients``: two separate
cross-entropy calls, each pulled back through the softmax and the cosine
head on its own, and the alignment term evaluated on the stacked
[sketch rows; photo rows] with its gradients scattered back into the batch.
The fused step must agree with it on every loss term and every parameter
gradient.

The second oracle keeps the alignment term per layer: one squared-distance
matrix and one median partition per layer, and the kernel exponent as a
running Python sum over the layers; its backward pass recomputes the cosine
head's row norms.  The step, which stacks the layers' distances into one
(L, n, n) array and reuses the forward pass's norms, must equal it to the
bit.
"""

import dataclasses
import logging

import numpy as np
import pytest

import xmcl.encoder as encoder
import xmcl.losses as losses
from xmcl.data import Split
from xmcl.encoder import (
    EncoderConfig,
    backward,
    forward,
    init_encoder,
    register_task_head,
)
from xmcl.losses import (
    MIN_BANDWIDTH_SQ,
    JmmdSpec,
    LossInputError,
    _row_norms,
    _sq_dists,
    cosine_logits_backward,
    cross_entropies_grad,
    default_layer_set,
    resolve_bandwidths,
    softmax_backward,
    triplet_loss_grad,
)
from xmcl.trainer import batch_gradients

TOL = 1e-12


def oracle_id_loss_grad(probs, labels, smoothing):
    """Label-smoothed CE and its gradient w.r.t. the probabilities."""
    n, c = probs.shape
    q = np.full((n, c), smoothing / c)
    q[np.arange(n), labels] += 1.0 - smoothing
    safe = np.clip(probs, 1e-300, None)
    return float(-(q * np.log(safe)).sum() / n), -(q / safe) / n


def oracle_i2tce_loss_grad(probs, embeddings, prototypes, labels, temperature):
    """Unsmoothed CE pulled back through the softmax and the cosine head on its own."""
    loss, d_probs = oracle_id_loss_grad(probs, labels, 0.0)
    d_logits = softmax_backward(probs, d_probs)
    norms = (_row_norms(embeddings), _row_norms(prototypes))
    d_e, d_p = cosine_logits_backward(embeddings, prototypes, d_logits, temperature, norms)
    return loss, d_e, d_p


def oracle_stacked_jmmd(sketch_layers, photo_layers, spec):
    """The alignment term on z = [sketches; photos], gradients split per set."""
    n_s = sketch_layers[0].shape[0]
    zs = [np.vstack([a, b]) for a, b in zip(sketch_layers, photo_layers)]
    d2s = np.stack([_sq_dists(z, z) for z in zs])
    bws = resolve_bandwidths(d2s, spec)
    joint = np.exp(-sum(d2 / (2.0 * bw**2) for d2, bw in zip(d2s, bws)))
    n_p = zs[0].shape[0] - n_s
    w = np.concatenate([np.full(n_s, 1.0 / n_s), np.full(n_p, -1.0 / n_p)])
    jw = joint @ w
    d_s, d_p = [], []
    for z, bw in zip(zs, bws):
        g = (-2.0 / bw**2) * w[:, None] * (z * jw[:, None] - joint @ (w[:, None] * z))
        d_s.append(g[:n_s])
        d_p.append(g[n_s:])
    return float(w @ jw), d_s, d_p


def oracle_batch_gradients(state, batch, task_id, head_ids, spec, margin, smoothing):
    """(l_id, l_tri, l_i2tce, l_jmmd, shared gradient, prototype gradient)."""
    stack = forward(state, batch.features, task_id)
    rows = np.searchsorted(head_ids, batch.ids)
    protos = state.head(task_id)
    l_id, d_probs = oracle_id_loss_grad(stack.probs, rows, smoothing)
    l_i2tce, d_emb_i2, d_protos_i2 = oracle_i2tce_loss_grad(
        stack.probs, stack.embedding, protos, rows, state.config.temperature
    )
    try:
        l_tri, d_emb_tri = triplet_loss_grad(stack.embedding, batch.ids, margin, None)
    except LossInputError:
        l_tri, d_emb_tri = 0.0, np.zeros_like(stack.embedding)
    n_hidden = len(state.config.hidden_dims)
    d_layers = [None] * len(stack.layers)
    d_layers[-1] = d_probs
    d_layers[n_hidden] = d_emb_tri + d_emb_i2
    sketch_rows = np.flatnonzero(batch.is_sketch)
    photo_rows = np.flatnonzero(~batch.is_sketch)
    l_jmmd = 0.0
    if sketch_rows.size and photo_rows.size and spec.alpha > 0:
        layer_set = spec.layer_set or default_layer_set(n_hidden)
        l_jmmd, d_s, d_p = oracle_stacked_jmmd(
            [stack.layers[i][sketch_rows] for i in layer_set],
            [stack.layers[i][photo_rows] for i in layer_set],
            spec,
        )
        for li, idx in enumerate(layer_set):
            buf = d_layers[idx]
            buf = np.zeros_like(stack.layers[idx]) if buf is None else buf.copy()
            buf[sketch_rows] += spec.alpha * d_s[li]
            buf[photo_rows] += spec.alpha * d_p[li]
            d_layers[idx] = buf
    grads = backward(state, stack, d_layers, np.zeros_like(stack.logits))
    return l_id, l_tri, l_i2tce, l_jmmd, grads.shared, grads.d_prototypes + d_protos_i2


def per_layer_median_sigma(d2):
    """sigma^2 = median of one layer's upper-triangle pairs, by one partition."""
    pairs = d2[np.triu_indices(d2.shape[0], k=1)]
    mid = pairs.size // 2
    if pairs.size % 2:
        med = np.partition(pairs, mid)[mid]
    else:
        part = np.partition(pairs, mid - 1)
        med = (part[mid - 1] + part[mid:].min()) / 2
    return float(np.sqrt(max(float(med), MIN_BANDWIDTH_SQ)))


def per_layer_jmmd(layers, is_sketch, spec, d2s):
    """The alignment term with one distance matrix and one bandwidth per layer."""
    n_s = int(np.count_nonzero(is_sketch))
    n_p = is_sketch.size - n_s
    if isinstance(spec.bandwidths, str):
        bws = [per_layer_median_sigma(d2) for d2 in d2s]
    else:
        bws = [float(b) for b in spec.bandwidths]
    exponent = sum(d2 / (2.0 * bw**2) for d2, bw in zip(d2s, bws))
    joint = np.exp(-exponent)
    w = np.where(is_sketch, 1.0 / n_s, -1.0 / n_p)
    jw = joint @ w
    grads = [
        (-2.0 / bw**2) * w[:, None] * (z * jw[:, None] - joint @ (w[:, None] * z))
        for z, bw in zip(layers, bws)
    ]
    return float(w @ jw), grads


def per_layer_step(state, batch, task_id, head_ids, spec, margin, smoothing):
    """(l_id, l_tri, l_i2tce, l_jmmd, shared gradient, prototype gradient), per layer."""
    stack = forward(state, batch.features, task_id)
    rows = np.searchsorted(head_ids, batch.ids)
    l_id, l_i2tce, d_logits = cross_entropies_grad(stack.probs, rows, smoothing)
    n_hidden = len(state.config.hidden_dims)
    layer_set = ()
    if batch.is_sketch.any() and not batch.is_sketch.all() and spec.alpha > 0:
        layer_set = spec.layer_set or default_layer_set(n_hidden)
    d2s = [_sq_dists(stack.layers[i], stack.layers[i]) for i in layer_set]
    emb_d2 = d2s[layer_set.index(n_hidden)] if n_hidden in layer_set else None
    try:
        l_tri, d_tri = triplet_loss_grad(stack.embedding, batch.ids, margin, emb_d2)
    except LossInputError:
        l_tri, d_tri = 0.0, np.zeros_like(stack.embedding)
    d_layers = [None] * len(stack.layers)
    d_layers[n_hidden] = d_tri
    l_jmmd = 0.0
    if layer_set:
        l_jmmd, d_jmmd = per_layer_jmmd(
            [stack.layers[i] for i in layer_set], batch.is_sketch, spec, d2s
        )
        for idx, g in zip(layer_set, d_jmmd):
            g = spec.alpha * g
            d_layers[idx] = g if d_layers[idx] is None else d_layers[idx] + g
    # the cosine head's row norms recomputed, not the forward pass's
    norms = (_row_norms(stack.embedding), _row_norms(state.head(task_id)))
    grads = backward(state, dataclasses.replace(stack, norms=norms), d_layers, d_logits)
    return l_id, l_tri, l_i2tce, l_jmmd, grads.shared, grads.d_prototypes


def random_case(rng):
    """A small encoder, a batch and the step's settings, covering the step's branches."""
    hidden = tuple(int(d) for d in rng.integers(2, 9, size=int(rng.integers(1, 4))))
    config = EncoderConfig(
        input_dim=int(rng.integers(2, 9)),
        hidden_dims=hidden,
        embedding_dim=int(rng.integers(2, 7)),
        seed=int(rng.integers(2**32)),
        temperature=float(rng.choice([0.07, 0.3, 1.0])),
    )
    state = init_encoder(config)
    num_ids = int(rng.integers(1, 7))
    register_task_head(state, 3, num_ids, seed=int(rng.integers(2**32)))
    head_ids = np.sort(rng.choice(1000, size=num_ids, replace=False))
    n = int(rng.integers(1, 13))
    ids = head_ids[rng.integers(0, num_ids, size=n)]
    modality = rng.integers(4)  # 0: sketches only, 1: photos only, else mixed
    is_sketch = np.full(n, modality == 0) if modality < 2 else rng.random(n) < 0.5
    batch = Split(rng.normal(size=(n, config.input_dim)) * 2.0, ids, is_sketch)
    top = len(hidden) + 1
    layer_choice = rng.integers(4)
    if layer_choice == 0:
        layer_set = None
    elif layer_choice == 1:
        layer_set = (0, top)
    else:
        size = int(rng.integers(1, top + 2))
        layer_set = tuple(int(i) for i in np.sort(rng.choice(top + 1, size=size, replace=False)))
    n_layers = len(layer_set or default_layer_set(len(hidden)))
    bandwidths = "median-heuristic"
    if rng.random() < 0.4:
        bandwidths = [float(b) for b in rng.uniform(0.3, 3.0, size=n_layers)]
    alpha = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.1, 6.0))
    spec = JmmdSpec(layer_set=layer_set, bandwidths=bandwidths, alpha=alpha)
    margin = float(rng.choice([0.0, 0.3, 2.0]))
    smoothing = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.5))
    return state, batch, head_ids, spec, margin, smoothing


def test_fused_step_matches_the_oracle_on_random_batches(caplog):
    caplog.set_level(logging.ERROR, logger="xmcl.trainer")
    rng = np.random.default_rng(2027)
    seen = {"sketch_only": 0, "photo_only": 0, "alpha_zero": 0, "triplet_skip": 0,
            "edge_layers": 0, "explicit_bw": 0, "no_smoothing": 0, "full": 0}
    worst = 0.0
    for _ in range(240):
        state, batch, head_ids, spec, margin, smoothing = random_case(rng)
        breakdown, grads = batch_gradients(state, batch, 3, head_ids, spec, margin, smoothing)
        want = oracle_batch_gradients(state, batch, 3, head_ids, spec, margin, smoothing)
        got = (breakdown.l_id, breakdown.l_tri, breakdown.l_i2tce, breakdown.l_jmmd,
               grads.shared, grads.d_prototypes)
        for g, w in zip(got, want):
            diff = float(np.max(np.abs(np.asarray(g) - np.asarray(w))))
            worst = max(worst, diff)
            assert diff <= TOL, (diff, spec, smoothing, batch)
        seen["sketch_only"] += bool(batch.is_sketch.all())
        seen["photo_only"] += not batch.is_sketch.any()
        seen["alpha_zero"] += spec.alpha == 0
        counts = np.unique(batch.ids, return_counts=True)[1]
        seen["triplet_skip"] += counts.size < 2 or counts.max() < 2
        seen["edge_layers"] += spec.layer_set == (0, len(state.config.hidden_dims) + 1)
        seen["explicit_bw"] += not isinstance(spec.bandwidths, str)
        seen["no_smoothing"] += smoothing == 0.0
        seen["full"] += breakdown.l_jmmd != 0.0
    assert worst <= TOL
    assert all(count >= 5 for count in seen.values()), seen


def test_step_equals_the_per_layer_form_to_the_bit(caplog):
    caplog.set_level(logging.ERROR, logger="xmcl.trainer")
    rng = np.random.default_rng(2028)
    seen = {"odd_pairs": 0, "even_pairs": 0, "one_layer": 0, "explicit_bw": 0,
            "embedding_outside": 0, "alpha_zero": 0, "triplet_skip": 0}
    for _ in range(300):
        state, batch, head_ids, spec, margin, smoothing = random_case(rng)
        breakdown, grads = batch_gradients(state, batch, 3, head_ids, spec, margin, smoothing)
        want = per_layer_step(state, batch, 3, head_ids, spec, margin, smoothing)
        got = (breakdown.l_id, breakdown.l_tri, breakdown.l_i2tce, breakdown.l_jmmd,
               grads.shared, grads.d_prototypes)
        names = ("l_id", "l_tri", "l_i2tce", "l_jmmd", "shared", "protos")
        for name, g, w in zip(names, got, want):
            assert np.array_equal(g, w), (name, spec, margin, smoothing, batch)
        n_hidden = len(state.config.hidden_dims)
        layers = spec.layer_set or default_layer_set(n_hidden)
        if breakdown.l_jmmd != 0.0:  # the alignment term ran
            pairs = batch.ids.size * (batch.ids.size - 1) // 2
            seen["odd_pairs" if pairs % 2 else "even_pairs"] += 1
            seen["one_layer"] += len(layers) == 1
            seen["explicit_bw"] += not isinstance(spec.bandwidths, str)
            seen["embedding_outside"] += n_hidden not in layers
        seen["alpha_zero"] += spec.alpha == 0
        counts = np.unique(batch.ids, return_counts=True)[1]
        seen["triplet_skip"] += counts.size < 2 or counts.max() < 2
    assert all(count >= 5 for count in seen.values()), seen


def test_one_cosine_pull_back_and_three_distance_matrices_per_step(monkeypatch):
    calls = {"cosine": 0, "sq_dists": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    real_backward = encoder.cosine_logits_backward
    monkeypatch.setattr(encoder, "cosine_logits_backward", counted("cosine", real_backward))
    monkeypatch.setattr(losses, "_sq_dists", counted("sq_dists", losses._sq_dists))
    state = init_encoder(EncoderConfig(input_dim=6, hidden_dims=(7, 6), embedding_dim=5))
    register_task_head(state, 0, 4, seed=1)
    batch = Split(
        np.random.default_rng(0).normal(size=(8, 6)), np.arange(8) % 4, np.arange(8) % 2 == 0
    )
    breakdown, _ = batch_gradients(state, batch, 0, np.arange(4), JmmdSpec(), 0.3, 0.1)
    assert breakdown.l_tri > 0 and breakdown.l_jmmd > 0
    assert calls == {"cosine": 1, "sq_dists": 3}


@pytest.mark.parametrize("alpha", [0.0, 5.0])
def test_single_modality_or_alpha_zero_leaves_the_triplet_its_own_distances(monkeypatch, alpha):
    calls = []
    real = losses._sq_dists
    monkeypatch.setattr(losses, "_sq_dists", lambda x, y: calls.append(x.shape) or real(x, y))
    state = init_encoder(EncoderConfig(input_dim=6, hidden_dims=(7, 6), embedding_dim=5))
    register_task_head(state, 0, 4, seed=1)
    is_sketch = np.arange(8) % 2 == 0 if alpha == 0 else np.ones(8, dtype=bool)
    batch = Split(np.random.default_rng(1).normal(size=(8, 6)), np.arange(8) % 4, is_sketch)
    breakdown, _ = batch_gradients(state, batch, 0, np.arange(4), JmmdSpec(alpha=alpha), 0.3, 0.1)
    assert breakdown.l_jmmd == 0.0
    assert calls == [(8, 5)]
