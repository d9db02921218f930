"""Training objectives with analytic gradients.

Everything here is a pure function of numpy arrays.  The alignment loss
measures the squared distance between kernel mean embeddings of the sketch
and photo sets, with the kernel taken as a product of per-layer Gaussian
kernels so that several network layers are matched jointly.  The biased
V-statistic form is used: same-index terms are kept in all three double sums.

It is evaluated on a batch's rows in the order they come, with one signed
weight per row, w_i = +1/n_s for a sketch and -1/n_p for a photo, so the
rows never need regrouping.  With the joint kernel
J = exp(-sum_l D_l / (2 sigma_l^2)), D_l the layer's squared-distance
matrix, the loss is MMD = w^T J w and its gradient on layer l is
-(2 / sigma_l^2) w_i sum_j w_j J_ij (z_i - z_j).  D_l may be passed in: the
trainer computes each layer's matrix once and hands the embedding layer's
to the triplet loss as well.

Both classification terms read one softmax p = softmax(cosine_logits).  The
identity CE takes the label-smoothed target q_s (1 - s on the label plus
s / C everywhere) and the prototype CE the one-hot target; with one cosine
head the prototype CE is the unsmoothed identity CE.  Their gradients at
the logits are (p - q_s) / n and (p - onehot) / n, so one function returns
both values and both logits gradients, and the encoder pulls their sum
back through the cosine head once.

Summation order is fixed (numpy reductions over contiguous arrays) so that
repeated evaluation of the same inputs is bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_TEMPERATURE = 0.07
MIN_BANDWIDTH_SQ = 1e-12
MEDIAN = "median-heuristic"


class LossInputError(ValueError):
    """Inputs violate a loss precondition (empty set, bad labels, ...)."""


# ---------------------------------------------------------------------------
# kernels and bandwidths


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero.

    The bits of max(xx + yy - 2 (x @ y.T), 0), built in the xx + yy buffer
    with the doubled product as the one other (n, m) array; the norms are
    taken once when y is x.
    """
    xx = np.sum(x * x, axis=1)
    yy = xx if y is x else np.sum(y * y, axis=1)
    d2 = xx[:, None] + yy[None, :]
    xy = x @ y.T
    xy *= 2.0
    d2 -= xy
    return np.maximum(d2, 0.0, out=d2)


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix."""
    flat = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    flat.flags.writeable = False
    return flat


def _median_sigma(d2: np.ndarray) -> float:
    """sigma with sigma^2 = median over unordered pairs of a squared-distance matrix.

    The median is taken by one partition: the middle value, or (a + b) / 2
    of the two middle values, which is how np.median forms it too.  For an
    even count b is the smallest value above the partition point.
    """
    pairs = d2.take(_upper_pairs(d2.shape[0]))
    mid = pairs.size // 2
    if pairs.size % 2:
        med = np.partition(pairs, mid)[mid]
    else:
        part = np.partition(pairs, mid - 1)
        med = (part[mid - 1] + part[mid:].min()) / 2
    return float(np.sqrt(max(float(med), MIN_BANDWIDTH_SQ)))


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
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be non-negative and finite, got {self.alpha}")
        if self.layer_set is not None and len(self.layer_set) == 0:
            raise ValueError("layer_set must be non-empty")
        if not isinstance(self.bandwidths, str):
            if not all(0 < b < math.inf for b in self.bandwidths):
                raise ValueError("explicit bandwidths must be positive and finite")
        elif self.bandwidths != MEDIAN:
            raise ValueError(f"unknown bandwidth mode {self.bandwidths!r}")


def default_layer_set(num_hidden: int) -> tuple[int, ...]:
    """Stack indices of (last hidden layer, embedding, softmax)."""
    if num_hidden < 1:
        raise ValueError("need at least one hidden layer")
    return (num_hidden - 1, num_hidden, num_hidden + 1)


def _pool(
    sketch_layers: Sequence[np.ndarray], photo_layers: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each layer's rows stacked as [sketches; photos], and the sketch mask of those rows."""
    if len(sketch_layers) == 0 or len(sketch_layers) != len(photo_layers):
        raise LossInputError(
            f"layer lists must be non-empty and equal length, got "
            f"{len(sketch_layers)} vs {len(photo_layers)}"
        )
    s = [np.atleast_2d(np.asarray(a, np.float64)) for a in sketch_layers]
    p = [np.atleast_2d(np.asarray(a, np.float64)) for a in photo_layers]
    for l, (a, b) in enumerate(zip(s, p)):
        if a.shape[1] != b.shape[1]:
            raise LossInputError(f"layer {l} dims differ: {a.shape[1]} vs {b.shape[1]}")
        if a.shape[0] != s[0].shape[0] or b.shape[0] != p[0].shape[0]:
            raise LossInputError("sample counts must agree across layers")
    n_s, n_p = s[0].shape[0], p[0].shape[0]
    return [np.concatenate([a, b]) for a, b in zip(s, p)], np.arange(n_s + n_p) < n_s


def resolve_bandwidths(sq_dists: Sequence[np.ndarray], spec: JmmdSpec) -> list[float]:
    """Per-layer bandwidths, by median heuristic over the batch unless given.

    Takes each layer's squared-distance matrix over the whole sketch+photo
    batch, so the heuristic reuses the distances the kernel is built from.
    """
    if isinstance(spec.bandwidths, str):
        return [_median_sigma(d2) for d2 in sq_dists]
    if len(spec.bandwidths) != len(sq_dists):
        raise LossInputError(
            f"got {len(spec.bandwidths)} bandwidths for {len(sq_dists)} layers"
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
    return jmmd_with_grad(*_pool(sketch_layers, photo_layers), spec)[0]


def jmmd_with_grad(
    layers: Sequence[np.ndarray],
    is_sketch: np.ndarray,
    spec: JmmdSpec = JmmdSpec(),
    sq_dists: Sequence[np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Value plus the gradient w.r.t. every layer, rows in the batch's order.

    layers[l] is an (n, d_l) array with one row per sample, and is_sketch
    marks the sketch rows; the rest are photos.  sq_dists, when given, holds
    _sq_dists(z, z) for each layer, so a caller can share those matrices
    with other terms.  Bandwidths are treated as constants: no gradient
    flows through the median heuristic.
    """
    is_sketch = np.asarray(is_sketch, dtype=bool)
    n_s = int(np.count_nonzero(is_sketch))
    n_p = is_sketch.size - n_s
    if n_s == 0 or n_p == 0:
        raise LossInputError("both sample sets must be non-empty")
    if len(layers) == 0 or any(z.shape[0] != is_sketch.size for z in layers):
        raise LossInputError(f"need at least one layer, each with {is_sketch.size} rows")
    d2s = [_sq_dists(z, z) for z in layers] if sq_dists is None else sq_dists
    bws = resolve_bandwidths(d2s, spec)
    exponent = sum(d2 / (2.0 * bw**2) for d2, bw in zip(d2s, bws))
    joint = np.exp(-exponent)
    w = np.where(is_sketch, 1.0 / n_s, -1.0 / n_p)
    jw = joint @ w
    value = float(w @ jw)
    grads = [
        (-2.0 / bw**2) * w[:, None] * (z * jw[:, None] - joint @ (w[:, None] * z))
        for z, bw in zip(layers, bws)
    ]
    return value, grads


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
    embeddings: np.ndarray,
    labels: np.ndarray,
    margin: float = 0.3,
    sq_dists: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Loss and its (sub)gradient w.r.t. the embeddings.

    Ties pick the lowest index.  Hinges are summed, and gradient rows
    accumulated, sequentially in anchor order, so the result equals that of
    a per-anchor loop to the bit.  sq_dists, when given, is
    _sq_dists(embeddings, embeddings), computed once by a caller that shares
    it with other terms.
    """
    emb = np.atleast_2d(np.asarray(embeddings, np.float64))
    labels = np.asarray(labels)
    if emb.shape[0] != labels.size:
        raise LossInputError("one label per embedding required")
    if labels.size == 0 or np.all(labels == labels.flat[0]):
        raise LossInputError("triplet loss needs at least 2 identities in the batch")
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(labels.size, dtype=bool)
    neg = ~same
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    if anchors.size == 0:
        raise LossInputError("no anchor has both a positive and a negative")
    d2 = _sq_dists(emb, emb) if sq_dists is None else sq_dists
    dist = np.sqrt(np.maximum(d2[anchors], 1e-24))
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
    # entries: bincount adds each entry's weights from 0.0 in the loop order
    # a, hp, hn, a, ...
    dim = emb.shape[1]
    rows = np.stack([a, hp, hn], axis=1)
    grad = np.bincount(
        (rows[..., None] * dim + np.arange(dim)).ravel(),
        np.stack([u_p - u_n, -u_p, u_n], axis=1).ravel(),
        minlength=emb.size,
    )
    return total / anchors.size, grad.reshape(emb.shape) / anchors.size


def id_loss(
    probs: np.ndarray, labels: np.ndarray, smoothing: float = 0.1
) -> float:
    """Label-smoothed cross-entropy over already-normalized probabilities."""
    return cross_entropies_grad(probs, labels, smoothing)[0]


def cross_entropies_grad(
    probs: np.ndarray, labels: np.ndarray, smoothing: float = 0.1
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Identity CE and prototype CE of one softmax, with their logits gradients.

    probs is softmax(logits), one row per sample.  Returns
    (l_id, d_logits_id, l_i2tce, d_logits_i2tce): the label-smoothed CE
    and its gradient (p - q_s) / n, then the unsmoothed CE and its gradient
    (p - onehot) / n.  The log clips probabilities at 1e-300.
    """
    p = np.atleast_2d(np.asarray(probs, np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    n, c = p.shape
    if labels.size != n:
        raise LossInputError("one label per row required")
    if labels.min() < 0 or labels.max() >= c:
        raise LossInputError(f"labels out of range for {c} classes")
    if not 0.0 <= smoothing < 1.0:
        raise LossInputError(f"smoothing must be in [0, 1), got {smoothing}")
    rows = np.arange(n)
    q = np.full((n, c), smoothing / c)
    q[rows, labels] += 1.0 - smoothing
    log_p = np.log(np.maximum(p, 1e-300))
    l_id = float(-(q * log_p).sum() / n)
    l_i2tce = float(-log_p[rows, labels].sum() / n)
    d_i2tce = p.copy()
    d_i2tce[rows, labels] -= 1.0
    d_i2tce /= n
    return l_id, (p - q) / n, l_i2tce, d_i2tce


def cosine_logits(embeddings: np.ndarray, prototypes: np.ndarray, temperature: float) -> np.ndarray:
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
    temperature: float,
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
    g_cos = g * cos
    d_e = (g @ ph - g_cos.sum(axis=1)[:, None] * eh) / en[:, None]
    d_p = (g.T @ eh - g_cos.sum(axis=0)[:, None] * ph) / pn[:, None]
    return d_e, d_p


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction, computed in one N x C buffer.

    The shifted logits are the only new array: the exponential and the
    normalisation run in place on it, so the input is left as it was and
    the values equal exp(z) / sum(exp(z)) bit for bit.
    """
    z = np.atleast_2d(np.asarray(logits, np.float64))
    z = z - z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Upstream probability gradient pulled back to the logits."""
    p = np.asarray(probs, np.float64)
    g = np.asarray(d_probs, np.float64)
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def i2tce_loss(
    embeddings: np.ndarray,
    prototypes: np.ndarray,
    labels: np.ndarray,
    temperature: float = DEFAULT_TEMPERATURE,
) -> float:
    """Cross-entropy of cosine-similarity logits against the label prototype."""
    probs = softmax(cosine_logits(embeddings, prototypes, temperature))
    return cross_entropies_grad(probs, labels)[2]


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
