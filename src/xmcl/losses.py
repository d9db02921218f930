"""Training objectives with analytic gradients.

Everything here is a pure function of numpy arrays.  Each loss term has one
function, its gradient form, which returns the value with the gradient:
jmmd_with_grad(...)[0] is the alignment loss, triplet_loss_grad(...)[0] the
triplet loss, and cross_entropies_grad(...)[0] and [1] the identity and
prototype cross-entropies.  There are no value-only twins.

The alignment loss measures the squared distance between kernel mean
embeddings of the sketch and photo sets, with the kernel taken as a product
of per-layer Gaussian kernels so that several network layers are matched
jointly.  The biased V-statistic form is used: same-index terms are kept in
all three double sums.

It is evaluated on a batch's rows in the order they come, with one signed
weight per row, w_i = +1/n_s for a sketch and -1/n_p for a photo, so the
rows never need regrouping.  With the joint kernel
J = exp(-sum_l D_l / (2 sigma_l^2)), D_l the layer's squared-distance
matrix, the loss is MMD = w^T J w and its gradient on layer l is
-(2 / sigma_l^2) w_i sum_j w_j J_ij (z_i - z_j).  The L layers' D_l are
held as one (L, n, n) array: all L median-heuristic bandwidths come from one
gather and one partition of its (L, pairs) upper triangles, and the exponent
is one sum over the layer axis.  The caller passes that stack in: the
trainer computes each layer's matrix once into it and hands the embedding
layer's to the triplet loss as well.

The constants of the objective (margin, label smoothing, temperature, the
alignment spec) are arguments with no defaults here: their defaults are
fields of the run config.

Both classification terms read one softmax p = softmax(cosine_logits).  The
identity CE takes the label-smoothed target q_s (1 - s on the label plus
s / C everywhere) and the prototype CE the one-hot target; with one cosine
head the prototype CE is the unsmoothed identity CE.  Their logits
gradients (p - q_s) / n and (p - onehot) / n sum to 2 (p - q_{s/2}) / n, so
one function returns both values and that one summed gradient, and the
encoder pulls it back through the cosine head once.

Summation order is fixed (numpy reductions over contiguous arrays) so that
repeated evaluation of the same inputs is bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MIN_BANDWIDTH_SQ = 1e-12
MEDIAN = "median-heuristic"


class LossInputError(ValueError):
    """Inputs violate a loss precondition (empty set, bad labels, ...)."""


# ---------------------------------------------------------------------------
# kernels and bandwidths


def _sq_dists(
    x: np.ndarray,
    y: np.ndarray,
    out: np.ndarray | None = None,
    *,
    sq_norms: tuple[np.ndarray, np.ndarray] | None = None,
    product: np.ndarray | None = None,
    clip: bool = True,
) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero unless clip is False.

    The bits of max(xx + yy - 2 (x @ y.T), 0), built in the xx + yy buffer
    (out, when given) with the doubled product as the one other (n, m)
    array.  That buffer is filled with yy in every row and xx added down its
    columns, which has the bits of xx + yy as addition commutes, in fewer
    passes than a sum of two broadcast operands.  When y is x the norms are
    taken once and the product is x @ x.T, which numpy computes as a
    symmetric product; otherwise it is (-2 x) @ y.T, written into product
    when given, which has the bits of -2 (x @ y.T).  A caller that ranks many
    row blocks of x against one y passes the norms (xx, yy) as sq_norms.
    """
    if sq_norms is None:
        xx = (x * x).sum(axis=1)
        sq_norms = xx, xx if y is x else (y * y).sum(axis=1)
    xx, yy = sq_norms
    d2 = np.empty((xx.size, yy.size)) if out is None else out
    d2[...] = yy
    d2 += xx[:, None]
    if y is x:
        xy = x @ x.T
        xy *= 2.0
        d2 -= xy
    else:
        d2 += np.matmul(-2.0 * x, y.T, out=product)
    return np.maximum(d2, 0.0, out=d2) if clip else d2


def _layer_sq_dists(layers: Sequence[np.ndarray]) -> np.ndarray:
    """_sq_dists(z, z) of every layer, stacked in one (L, n, n) buffer."""
    d2 = np.empty((len(layers), layers[0].shape[0], layers[0].shape[0]))
    for l, z in enumerate(layers):
        _sq_dists(z, z, out=d2[l])
    return d2


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix."""
    flat = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    flat.flags.writeable = False
    return flat


def _median_sigmas(d2: np.ndarray) -> np.ndarray:
    """sigma_l with sigma_l^2 = median over unordered pairs of each (n, n) layer of d2.

    All layers' upper triangles are gathered by one take and their medians
    found by one partition along the pair axis: the middle value, or
    (a + b) / 2 of the two middle values, which is how np.median forms it
    too.  For an even count b is the smallest value above the partition
    point.
    """
    n = d2.shape[-1]
    pairs = d2.reshape(d2.shape[0], n * n).take(_upper_pairs(n), axis=1)
    mid = pairs.shape[1] // 2
    if pairs.shape[1] % 2:
        med = np.partition(pairs, mid, axis=1)[:, mid]
    else:
        part = np.partition(pairs, mid - 1, axis=1)
        med = (part[:, mid - 1] + part[:, mid:].min(axis=1)) / 2
    return np.sqrt(np.maximum(med, MIN_BANDWIDTH_SQ, out=med), out=med)


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
            # the kernel divides by 2 sigma^2 and the gradient by sigma^2, so
            # the squares must neither overflow nor underflow to 0
            if not all(0 < b and 0 < 2.0 * b * b < math.inf for b in self.bandwidths):
                raise ValueError(
                    "explicit bandwidths must be positive with a finite, nonzero 2 sigma^2"
                )
        elif self.bandwidths != MEDIAN:
            raise ValueError(f"unknown bandwidth mode {self.bandwidths!r}")


def default_layer_set(num_hidden: int) -> tuple[int, ...]:
    """Stack indices of (last hidden layer, embedding, softmax)."""
    if num_hidden < 1:
        raise ValueError("need at least one hidden layer")
    return (num_hidden - 1, num_hidden, num_hidden + 1)


def resolve_bandwidths(sq_dists: np.ndarray, spec: JmmdSpec) -> list[float]:
    """Per-layer bandwidths, by median heuristic over the batch unless given.

    Takes the (L, n, n) stack of each layer's squared-distance matrix over
    the whole sketch+photo batch, so the heuristic reuses the distances the
    kernel is built from.  The median needs at least one pair, so each layer
    needs at least 2 rows.
    """
    if isinstance(spec.bandwidths, str):
        if sq_dists.shape[-1] < 2:
            raise LossInputError(
                f"the median bandwidth needs at least 2 rows per layer, got {sq_dists.shape[-1]}"
            )
        return _median_sigmas(sq_dists).tolist()
    if len(spec.bandwidths) != len(sq_dists):
        raise LossInputError(
            f"got {len(spec.bandwidths)} bandwidths for {len(sq_dists)} layers"
        )
    return [float(b) for b in spec.bandwidths]


def jmmd_with_grad(
    layers: Sequence[np.ndarray],
    is_sketch: np.ndarray,
    spec: JmmdSpec,
    sq_dists: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Value plus the gradient w.r.t. every layer, rows in the batch's order.

    layers[l] is an (n, d_l) array with one row per sample, and is_sketch
    marks the sketch rows; the rest are photos.  sq_dists is the (L, n, n)
    array _layer_sq_dists(layers), which a caller shares with other terms.
    Bandwidths are treated as constants: no gradient flows through the
    median heuristic.

    The exponent sum_l D_l / (2 sigma_l^2) is one reduction over the layer
    axis, which adds the layers in order, as a running sum over them would.
    """
    is_sketch = np.asarray(is_sketch, dtype=bool)
    n = is_sketch.size
    n_s = int(np.count_nonzero(is_sketch))
    n_p = n - n_s
    if n_s == 0 or n_p == 0:
        raise LossInputError("both sample sets must be non-empty")
    if len(layers) == 0 or any(z.shape[0] != n for z in layers):
        raise LossInputError(f"need at least one layer, each with {n} rows")
    if np.shape(sq_dists) != (len(layers), n, n):
        raise LossInputError(
            f"need one ({n}, {n}) squared-distance matrix for each of the {len(layers)} "
            f"layers, stacked, got shape {np.shape(sq_dists)}"
        )
    bws = resolve_bandwidths(sq_dists, spec)
    # the Python-float scalars that a per-layer quotient d2 / (2.0 * bw**2) divides by
    scale = np.array([2.0 * bw**2 for bw in bws])
    joint = (sq_dists / scale[:, None, None]).sum(axis=0)
    np.negative(joint, out=joint)
    np.exp(joint, out=joint)
    w = np.where(is_sketch, 1.0 / n_s, -1.0 / n_p)
    jw = joint @ w
    value = float(w @ jw)
    w_col, jw_col = w[:, None], jw[:, None]
    grads = []
    for z, bw in zip(layers, bws):
        # (-2 / sigma^2) w_i (z_i jw_i - (J (w z))_i), formed in one buffer
        g = z * jw_col
        g -= joint @ (w_col * z)
        g *= (-2.0 / bw**2) * w_col
        grads.append(g)
    return value, grads


# ---------------------------------------------------------------------------
# metric-learning and classification losses


def triplet_loss_grad(
    embeddings: np.ndarray,
    labels: np.ndarray,
    margin: float,
    sq_dists: np.ndarray | None,
) -> tuple[float, np.ndarray]:
    """Batch-hard triplet loss and its (sub)gradient w.r.t. the embeddings.

    Every sample with at least one positive and one negative acts as an
    anchor; its hardest positive and hardest negative, by Euclidean
    distance, form the triplet.  Ties pick the lowest index.  Hinges are
    summed, and gradient rows accumulated, sequentially in anchor order, so
    the result equals that of a per-anchor loop to the bit.  sq_dists is
    _sq_dists(embeddings, embeddings), computed once by a caller that shares
    it with other terms, or None to compute it here.
    """
    emb = np.atleast_2d(np.asarray(embeddings, np.float64))
    labels = np.asarray(labels).ravel()
    m = labels.size
    if emb.shape[0] != m:
        raise LossInputError("one label per embedding required")
    if sq_dists is not None and np.shape(sq_dists) != (m, m):
        raise LossInputError(f"sq_dists must be ({m}, {m}), got {np.shape(sq_dists)}")
    same = labels[:, None] == labels[None, :]
    n_same = same.sum(axis=1)  # each row counts itself
    if m == 0 or n_same[0] == m:
        raise LossInputError("triplet loss needs at least 2 identities in the batch")
    is_anchor = (n_same > 1) & (n_same < m)
    d2 = _sq_dists(emb, emb) if sq_dists is None else sq_dists
    if is_anchor.all():
        anchors = k = np.arange(m)
    else:
        anchors = np.flatnonzero(is_anchor)
        if anchors.size == 0:
            raise LossInputError("no anchor has both a positive and a negative")
        k = np.arange(anchors.size)
        same, d2 = same[anchors], d2[anchors]
    dist = np.maximum(d2, 1e-24)
    np.sqrt(dist, out=dist)
    pos_d = np.where(same, dist, -np.inf)
    pos_d[k, anchors] = -np.inf  # an anchor is not its own positive
    neg_d = np.where(same, np.inf, dist)
    hp = pos_d.argmax(axis=1)
    hn = neg_d.argmin(axis=1)
    d_p = pos_d[k, hp]
    d_n = neg_d[k, hn]
    hinge = d_p - d_n + margin
    active = hinge > 0
    total = float(np.cumsum(hinge[active])[-1]) if active.any() else 0.0
    a, hp, hn = anchors[active], hp[active], hn[active]
    # one scatter over the interleaved (a, hp, hn) rows, flattened to scalar
    # entries: bincount adds each entry's weights from 0.0 in the loop order
    # a, hp, hn, a, ...
    dim = emb.shape[1]
    rows = np.empty((a.size, 3), dtype=np.intp)
    rows[:, 0], rows[:, 1], rows[:, 2] = a, hp, hn
    weights = np.empty((a.size, 3, dim))
    u_p, u_n = weights[:, 1], weights[:, 2]
    e_a = emb[a]
    np.divide(e_a - emb[hp], np.maximum(d_p[active], 1e-12)[:, None], out=u_p)
    np.divide(e_a - emb[hn], np.maximum(d_n[active], 1e-12)[:, None], out=u_n)
    np.subtract(u_p, u_n, out=weights[:, 0])
    np.negative(u_p, out=u_p)
    grad = np.bincount(
        (rows[..., None] * dim + np.arange(dim)).ravel(), weights.ravel(), minlength=emb.size
    )
    return total / anchors.size, grad.reshape(emb.shape) / anchors.size


def cross_entropies_grad(
    probs: np.ndarray, labels: np.ndarray, smoothing: float
) -> tuple[float, float, np.ndarray]:
    """Identity CE and prototype CE of one softmax, with their summed logits gradient.

    probs is softmax(logits), one row per sample.  Returns (l_id, l_i2tce,
    d_logits): the label-smoothed CE, the unsmoothed CE, and the gradient of
    their sum, (2p - s / C - (2 - s) onehot) / n = 2 (p - q_{s/2}) / n.  The
    log clips probabilities at 1e-300.
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
    log_p = np.log(np.maximum(p, 1e-300))
    log_p_y = log_p[rows, labels].sum()
    l_id = float(-(smoothing / c * log_p.sum() + (1.0 - smoothing) * log_p_y) / n)
    d_logits = 2.0 * p
    d_logits -= smoothing / c
    d_logits[rows, labels] -= 2.0 - smoothing
    d_logits /= n
    return l_id, float(-log_p_y / n), d_logits


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, floored at 1e-12."""
    return np.sqrt(np.maximum((a * a).sum(axis=1), 1e-24))


def cosine_logits(
    embeddings: np.ndarray,
    prototypes: np.ndarray,
    temperature: float,
    norms: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Temperature-scaled cosine similarities to each prototype row.

    norms is (_row_norms(embeddings), _row_norms(prototypes)), kept by the
    caller for the backward pass.
    """
    if temperature <= 0:
        raise LossInputError(f"temperature must be positive, got {temperature}")
    e = np.atleast_2d(np.asarray(embeddings, np.float64))
    pr = np.atleast_2d(np.asarray(prototypes, np.float64))
    en, pn = norms
    return (e @ pr.T) / (en[:, None] * pn[None, :]) / temperature


def cosine_logits_backward(
    embeddings: np.ndarray,
    prototypes: np.ndarray,
    d_logits: np.ndarray,
    temperature: float,
    norms: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Chain an upstream logits gradient to embeddings and prototypes.

    norms are the row norms the forward pass's cosine_logits used.
    """
    e = np.atleast_2d(np.asarray(embeddings, np.float64))
    pr = np.atleast_2d(np.asarray(prototypes, np.float64))
    en, pn = norms
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
