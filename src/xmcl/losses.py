"""Training objectives with analytic gradients.

Everything here is a pure function of numpy arrays.  The alignment loss
measures the squared distance between kernel mean embeddings of the sketch
and photo sets, with the kernel taken as a product of per-layer Gaussian
kernels so that several network layers are matched jointly.  The biased
V-statistic form is used: same-index terms are kept in all three double sums.

It is evaluated on the pooled batch z = [sketches; photos] with one signed
weight per row, w_i = +1/n_s for a sketch and -1/n_p for a photo.  With the
joint kernel J = exp(-sum_l D_l / (2 sigma_l^2)), D_l the layer's pooled
squared-distance matrix, the loss is MMD = w^T J w and its gradient on
layer l is -(2 / sigma_l^2) w_i sum_j w_j J_ij (z_i - z_j).

The prototype cross-entropy is the identity CE of the cosine-similarity
softmax without smoothing; its gradient form takes those probabilities
from the encoder's forward pass instead of computing them again.

Summation order is fixed (numpy reductions over contiguous arrays) so that
repeated evaluation of the same inputs is bit-reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MIN_BANDWIDTH_SQ = 1e-12
MEDIAN = "median-heuristic"


class LossInputError(ValueError):
    """Inputs violate a loss precondition (empty set, bad labels, ...)."""


# ---------------------------------------------------------------------------
# kernels and bandwidths


def gaussian_kernel(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """exp(-||x-y||^2 / (2 sigma^2)); symmetric, in (0, 1]."""
    if bandwidth <= 0:
        raise LossInputError(f"bandwidth must be positive, got {bandwidth}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LossInputError(f"kernel arguments differ in shape: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-d2 / (2.0 * bandwidth**2)))


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero."""
    xx = np.sum(x * x, axis=1)[:, None]
    yy = np.sum(y * y, axis=1)[None, :]
    d2 = xx + yy - 2.0 * (x @ y.T)
    return np.maximum(d2, 0.0)


def gaussian_kernel_matrix(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-||x_i - y_j||^2 / (2 sigma^2))."""
    if bandwidth <= 0:
        raise LossInputError(f"bandwidth must be positive, got {bandwidth}")
    return np.exp(-_sq_dists(np.asarray(x, float), np.asarray(y, float)) / (2.0 * bandwidth**2))


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> np.ndarray:
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _median_sigma(d2: np.ndarray) -> float:
    """sigma with sigma^2 = median over unordered pairs of a squared-distance matrix.

    The median is taken by partition: the middle value, or (a + b) / 2 of
    the two middle values, which is how np.median forms it too.
    """
    pairs = d2[_upper_pairs(d2.shape[0])]
    mid = pairs.size // 2
    if pairs.size % 2:
        med = np.partition(pairs, mid)[mid]
    else:
        lo, hi = np.partition(pairs, (mid - 1, mid))[mid - 1 : mid + 1]
        med = (lo + hi) / 2
    return float(np.sqrt(max(float(med), MIN_BANDWIDTH_SQ)))


def median_bandwidth(features: np.ndarray) -> float:
    """Bandwidth sigma with sigma^2 = median pairwise squared distance.

    The median runs over all unordered pairs of the pooled batch and is
    clamped below by 1e-12 so degenerate batches stay usable.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = features.shape[0]
    if n < 2:
        raise LossInputError(f"median bandwidth needs at least 2 vectors, got {n}")
    return _median_sigma(_sq_dists(features, features))


# ---------------------------------------------------------------------------
# joint multi-layer alignment loss


@dataclass
class JmmdSpec:
    """Layer selection, per-layer bandwidths, and the alignment weight alpha.

    layer_set indexes into an activation stack; None means "resolve to the
    last hidden layer, the embedding, and the softmax layer" at the call
    site.  bandwidths may be explicit positive reals, or the median
    heuristic computed per layer on the pooled sketch+photo batch.
    """

    layer_set: tuple[int, ...] | None = None
    bandwidths: Sequence[float] | str = MEDIAN
    alpha: float = 5.0

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.layer_set is not None and len(self.layer_set) == 0:
            raise ValueError("layer_set must be non-empty")
        if not isinstance(self.bandwidths, str):
            if any(b <= 0 for b in self.bandwidths):
                raise ValueError("explicit bandwidths must be positive")
        elif self.bandwidths != MEDIAN:
            raise ValueError(f"unknown bandwidth mode {self.bandwidths!r}")


def default_layer_set(num_hidden: int) -> tuple[int, ...]:
    """Stack indices of (last hidden layer, embedding, softmax)."""
    if num_hidden < 1:
        raise ValueError("need at least one hidden layer")
    return (num_hidden - 1, num_hidden, num_hidden + 1)


def _check_layer_lists(
    sketch_layers: Sequence[np.ndarray], photo_layers: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    if len(sketch_layers) == 0 or len(sketch_layers) != len(photo_layers):
        raise LossInputError(
            f"layer lists must be non-empty and equal length, got "
            f"{len(sketch_layers)} vs {len(photo_layers)}"
        )
    s = [np.atleast_2d(np.asarray(a, np.float64)) for a in sketch_layers]
    p = [np.atleast_2d(np.asarray(a, np.float64)) for a in photo_layers]
    if s[0].shape[0] == 0 or p[0].shape[0] == 0:
        raise LossInputError("both sample sets must be non-empty")
    for l, (a, b) in enumerate(zip(s, p)):
        if a.shape[1] != b.shape[1]:
            raise LossInputError(f"layer {l} dims differ: {a.shape[1]} vs {b.shape[1]}")
        if a.shape[0] != s[0].shape[0] or b.shape[0] != p[0].shape[0]:
            raise LossInputError("sample counts must agree across layers")
    return s, p


def resolve_bandwidths(pooled_sq_dists: Sequence[np.ndarray], spec: JmmdSpec) -> list[float]:
    """Per-layer bandwidths, by median heuristic on the pooled batch unless given.

    Takes each layer's squared-distance matrix over the pooled sketch+photo
    batch, so the heuristic reuses the distances the kernel is built from.
    """
    if isinstance(spec.bandwidths, str):
        return [_median_sigma(d2) for d2 in pooled_sq_dists]
    if len(spec.bandwidths) != len(pooled_sq_dists):
        raise LossInputError(
            f"got {len(spec.bandwidths)} bandwidths for {len(pooled_sq_dists)} layers"
        )
    return [float(b) for b in spec.bandwidths]


def jmmd(
    sketch_layers: Sequence[np.ndarray],
    photo_layers: Sequence[np.ndarray],
    spec: JmmdSpec = JmmdSpec(),
) -> float:
    """Joint multi-layer MMD between the sketch set and the photo set.

    mean(J_ss) + mean(J_pp) - 2 mean(J_sp) where J is the elementwise product
    of per-layer Gaussian kernel matrices.  Same-index terms are included.
    """
    return jmmd_with_grad(sketch_layers, photo_layers, spec)[0]


def jmmd_with_grad(
    sketch_layers: Sequence[np.ndarray],
    photo_layers: Sequence[np.ndarray],
    spec: JmmdSpec = JmmdSpec(),
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Value plus gradients w.r.t. every activation in both sets.

    Bandwidths are treated as constants: no gradient flows through the
    median heuristic.
    """
    s, p = _check_layer_lists(sketch_layers, photo_layers)
    n_s, n_p = s[0].shape[0], p[0].shape[0]
    zs = [np.vstack([a, b]) for a, b in zip(s, p)]
    d2s = [_sq_dists(z, z) for z in zs]
    bws = resolve_bandwidths(d2s, spec)
    exponent = sum(d2 / (2.0 * bw**2) for d2, bw in zip(d2s, bws))
    joint = np.exp(-exponent)
    w = np.concatenate([np.full(n_s, 1.0 / n_s), np.full(n_p, -1.0 / n_p)])
    jw = joint @ w
    value = float(w @ jw)
    d_s, d_p = [], []
    for z, bw in zip(zs, bws):
        g = (-2.0 / bw**2) * w[:, None] * (z * jw[:, None] - joint @ (w[:, None] * z))
        d_s.append(g[:n_s])
        d_p.append(g[n_s:])
    return value, d_s, d_p


# ---------------------------------------------------------------------------
# metric-learning and classification losses


def triplet_loss(
    embeddings: np.ndarray, labels: np.ndarray, margin: float = 0.3
) -> float:
    """Batch-hard triplet loss with Euclidean distances.

    Every sample with at least one positive and one negative acts as an
    anchor; its hardest positive and hardest negative form the triplet.
    """
    return triplet_loss_grad(embeddings, labels, margin)[0]


def triplet_loss_grad(
    embeddings: np.ndarray, labels: np.ndarray, margin: float = 0.3
) -> tuple[float, np.ndarray]:
    """Loss and its (sub)gradient w.r.t. the embeddings.

    Ties pick the lowest index.  Hinges are summed, and gradient rows
    accumulated, sequentially in anchor order, so the result equals that of
    a per-anchor loop to the bit.
    """
    emb = np.atleast_2d(np.asarray(embeddings, np.float64))
    labels = np.asarray(labels)
    if emb.shape[0] != labels.size:
        raise LossInputError("one label per embedding required")
    if np.unique(labels).size < 2:
        raise LossInputError("triplet loss needs at least 2 identities in the batch")
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(labels.size, dtype=bool)
    neg = ~same
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    if anchors.size == 0:
        raise LossInputError("no anchor has both a positive and a negative")
    dist = np.sqrt(np.maximum(_sq_dists(emb, emb), 1e-24))[anchors]
    pos_d = np.where(pos[anchors], dist, -np.inf)
    neg_d = np.where(neg[anchors], dist, np.inf)
    hp = pos_d.argmax(axis=1)
    hn = neg_d.argmin(axis=1)
    k = np.arange(anchors.size)
    d_p = pos_d[k, hp]
    d_n = neg_d[k, hn]
    hinge = d_p - d_n + margin
    active = hinge > 0
    total = float(np.cumsum(hinge[active])[-1]) if active.any() else 0.0
    a, hp, hn = anchors[active], hp[active], hn[active]
    u_p = (emb[a] - emb[hp]) / np.maximum(d_p[active], 1e-12)[:, None]
    u_n = (emb[a] - emb[hn]) / np.maximum(d_n[active], 1e-12)[:, None]
    # one scatter over the interleaved (a, hp, hn) rows, flattened to scalar
    # entries: each entry then accumulates in the loop order a, hp, hn, a, ...
    dim = emb.shape[1]
    rows = np.stack([a, hp, hn], axis=1)
    grad = np.zeros(emb.size)
    np.add.at(
        grad,
        (rows[..., None] * dim + np.arange(dim)).ravel(),
        np.stack([u_p - u_n, -u_p, u_n], axis=1).ravel(),
    )
    return total / anchors.size, grad.reshape(emb.shape) / anchors.size


def id_loss(
    probs: np.ndarray, labels: np.ndarray, smoothing: float = 0.1
) -> float:
    """Label-smoothed cross-entropy over already-normalized probabilities."""
    return id_loss_grad(probs, labels, smoothing)[0]


def id_loss_grad(
    probs: np.ndarray, labels: np.ndarray, smoothing: float = 0.1
) -> tuple[float, np.ndarray]:
    p = np.atleast_2d(np.asarray(probs, np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    n, c = p.shape
    if labels.size != n:
        raise LossInputError("one label per row required")
    if labels.min() < 0 or labels.max() >= c:
        raise LossInputError(f"labels out of range for {c} classes")
    if not 0.0 <= smoothing < 1.0:
        raise LossInputError(f"smoothing must be in [0, 1), got {smoothing}")
    q = np.full((n, c), smoothing / c)
    q[np.arange(n), labels] += 1.0 - smoothing
    safe = np.clip(p, 1e-300, None)
    loss = float(-(q * np.log(safe)).sum() / n)
    return loss, -(q / safe) / n


def cosine_logits(
    embeddings: np.ndarray, prototypes: np.ndarray, temperature: float = 0.07
) -> np.ndarray:
    """Temperature-scaled cosine similarities to each prototype row."""
    if temperature <= 0:
        raise LossInputError(f"temperature must be positive, got {temperature}")
    e = np.atleast_2d(np.asarray(embeddings, np.float64))
    pr = np.atleast_2d(np.asarray(prototypes, np.float64))
    en = np.sqrt(np.maximum(np.sum(e * e, axis=1), 1e-24))
    pn = np.sqrt(np.maximum(np.sum(pr * pr, axis=1), 1e-24))
    return (e @ pr.T) / (en[:, None] * pn[None, :]) / temperature


def cosine_logits_backward(
    embeddings: np.ndarray,
    prototypes: np.ndarray,
    d_logits: np.ndarray,
    temperature: float = 0.07,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain an upstream logits gradient to embeddings and prototypes."""
    e = np.atleast_2d(np.asarray(embeddings, np.float64))
    pr = np.atleast_2d(np.asarray(prototypes, np.float64))
    en = np.sqrt(np.maximum(np.sum(e * e, axis=1), 1e-24))
    pn = np.sqrt(np.maximum(np.sum(pr * pr, axis=1), 1e-24))
    eh = e / en[:, None]
    ph = pr / pn[:, None]
    cos = eh @ ph.T
    g = np.asarray(d_logits, np.float64) / temperature
    # d cos(e, p)/d e = (p_hat - cos * e_hat) / ||e||
    d_e = (g @ ph - (g * cos).sum(axis=1)[:, None] * eh) / en[:, None]
    d_p = (g.T @ eh - (g * cos).sum(axis=0)[:, None] * ph) / pn[:, None]
    return d_e, d_p


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction."""
    z = np.atleast_2d(np.asarray(logits, np.float64))
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Upstream probability gradient pulled back to the logits."""
    p = np.asarray(probs, np.float64)
    g = np.asarray(d_probs, np.float64)
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def i2tce_loss(
    embeddings: np.ndarray,
    prototypes: np.ndarray,
    labels: np.ndarray,
    temperature: float = 0.07,
) -> float:
    """Cross-entropy of cosine-similarity logits against the label prototype."""
    probs = softmax(cosine_logits(embeddings, prototypes, temperature))
    return i2tce_loss_grad(probs, embeddings, prototypes, labels, temperature)[0]


def i2tce_loss_grad(
    probs: np.ndarray,
    embeddings: np.ndarray,
    prototypes: np.ndarray,
    labels: np.ndarray,
    temperature: float = 0.07,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and gradients w.r.t. embeddings and prototype rows.

    probs must be softmax(cosine_logits(embeddings, prototypes,
    temperature)): the encoder's forward pass has already computed them.
    """
    loss, d_probs = id_loss_grad(probs, labels, smoothing=0.0)
    d_logits = softmax_backward(probs, d_probs)
    d_e, d_p = cosine_logits_backward(embeddings, prototypes, d_logits, temperature)
    return loss, d_e, d_p


# ---------------------------------------------------------------------------
# weighted composition


@dataclass(frozen=True)
class LossBreakdown:
    """All objective terms for one batch; l_sim = l_reid + alpha * l_jmmd."""

    l_id: float
    l_tri: float
    l_i2tce: float
    l_jmmd: float
    alpha: float

    @property
    def l_reid(self) -> float:
        return self.l_id + self.l_tri + self.l_i2tce

    @property
    def l_sim(self) -> float:
        return self.l_reid + self.alpha * self.l_jmmd


def sim_loss(
    l_id: float, l_tri: float, l_i2tce: float, l_jmmd: float, alpha: float = 5.0
) -> LossBreakdown:
    """Compose the full objective from its parts."""
    if alpha < 0:
        raise LossInputError(f"alpha must be non-negative, got {alpha}")
    return LossBreakdown(l_id=l_id, l_tri=l_tri, l_i2tce=l_i2tce, l_jmmd=l_jmmd, alpha=alpha)
