"""Small fully-connected encoder with hand-written forward and backward passes.

The network is input -> tanh hidden layers -> linear embedding.  Each task
gets its own prototype matrix; class scores are temperature-scaled cosine
similarities between embeddings and prototype rows, so the prototypes act
both as the classifier head and as the semantic anchors of the
image-to-prototype cross-entropy.

The shared weights and biases live in one flat vector, all weights then
all biases, the layout ``backward`` writes its gradient in; per-layer
arrays are views of it.  ``forward`` and ``embed`` run the same trunk.
States are treated as immutable during forward/backward.  ``apply_deltas``
is the single mutation point: it adds the optimizer's flat step to the
vector in place and bumps a version counter that invalidates activation
stacks captured earlier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import (
    DEFAULT_TEMPERATURE,
    _row_norms,
    cosine_logits,
    cosine_logits_backward,
    softmax,
    softmax_backward,
)


class ConfigurationError(ValueError):
    """Invalid encoder configuration."""


class ShapeError(ValueError):
    """Batch shape incompatible with the encoder."""


class UsageError(RuntimeError):
    """API misuse: duplicate heads, stale stacks, unregistered tasks."""


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 64
    hidden_dims: tuple[int, ...] = (128, 128)
    embedding_dim: int = 64
    seed: int = 0
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self) -> None:
        dims = (self.input_dim, *self.hidden_dims, self.embedding_dim)
        if len(self.hidden_dims) == 0:
            raise ConfigurationError("hidden_dims must be non-empty")
        if any(int(d) != d or d < 1 for d in dims):
            raise ConfigurationError(f"all dims must be positive integers, got {dims}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in 64 unsigned bits")
        if not 0 < self.temperature < math.inf:
            raise ConfigurationError(
                f"temperature must be positive and finite, got {self.temperature}"
            )
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.embedding_dim)


@dataclass(eq=False)
class EncoderState:
    """Encoder parameters; ``weights`` and ``biases`` are per-layer views of ``shared``.

    ``shared`` holds all weights, then all biases, flat: the layout of
    ``ParameterGradients.shared``, so one optimizer step updates it in place.
    The views are built once and rebuilt when a copy or pickle restores the
    state, so they always alias the state's own vector.
    """

    config: EncoderConfig
    shared: np.ndarray
    heads: dict[int, np.ndarray] = field(default_factory=dict)
    version: int = 0
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights, self.biases = _views(self.config.layer_dims, self.shared)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["weights"], state["biases"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def head(self, task_id: int) -> np.ndarray:
        if task_id not in self.heads:
            raise UsageError(f"task {task_id} has no registered head")
        return self.heads[task_id]


@dataclass(eq=False)
class ActivationStack:
    """Per-layer activations for one batch.

    layers = [hidden_1, ..., hidden_H, embedding, probs]; the probability
    layer makes the stack one longer than the encoder depth.  norms holds
    the row norms of the embeddings and of the head's prototypes that the
    cosine logits divided by, for ``backward`` to reuse.
    """

    layers: list[np.ndarray]
    logits: np.ndarray
    task_id: int
    inputs: np.ndarray
    state_version: int
    norms: tuple[np.ndarray, np.ndarray]

    @property
    def embedding(self) -> np.ndarray:
        return self.layers[-2]

    @property
    def probs(self) -> np.ndarray:
        return self.layers[-1]


@dataclass(eq=False)
class ParameterGradients:
    """Gradients of one batch; d_weights and d_biases are views into shared."""

    shared: np.ndarray
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_prototypes: np.ndarray


def _views(
    dims: tuple[int, ...], flat: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a vector laid out as all weights, then all biases."""
    shapes = [*zip(dims[:-1], dims[1:]), *((d,) for d in dims[1:])]
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    n = len(dims) - 1
    return views[:n], views[n:]


def _uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_encoder(config: EncoderConfig) -> EncoderState:
    """Seeded init: weights uniform in +-sqrt(3/fan_in), biases zero, no heads."""
    rng = np.random.default_rng(config.seed)
    dims = config.layer_dims
    size = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    state = EncoderState(config=config, shared=np.zeros(size))
    for w in state.weights:
        w[...] = _uniform_init(rng, w.shape[0], w.shape)
    return state


def register_task_head(
    state: EncoderState, task_id: int, num_identities: int, seed: int
) -> EncoderState:
    """Attach a fresh prototype matrix for a new task; existing heads untouched."""
    if task_id in state.heads:
        raise UsageError(f"task {task_id} already has a head")
    if num_identities < 1:
        raise ConfigurationError(f"num_identities must be >= 1, got {num_identities}")
    rng = np.random.default_rng(seed)
    state.heads[task_id] = _uniform_init(
        rng, state.config.embedding_dim, (num_identities, state.config.embedding_dim)
    )
    state.version += 1
    return state


def _trunk(state: EncoderState, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The checked input batch and its activations [hidden_1, ..., hidden_H, embedding]."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x.shape[1] != state.config.input_dim:
        raise ShapeError(f"batch has dim {x.shape[1]}, encoder expects {state.config.input_dim}")
    layers: list[np.ndarray] = []
    h = x
    # the bias and tanh go in place into each fresh product
    for w, b in zip(state.weights[:-1], state.biases[:-1]):
        h = h @ w
        h += b
        layers.append(np.tanh(h, out=h))
    z = h @ state.weights[-1]
    z += state.biases[-1]
    layers.append(z)
    return x, layers


def embed(state: EncoderState, batch: np.ndarray) -> np.ndarray:
    """Embeddings only, no task head required."""
    return _trunk(state, batch)[1][-1]


def forward(state: EncoderState, batch: np.ndarray, task_id: int) -> ActivationStack:
    """Run a batch through the net and the task's head."""
    protos = state.head(task_id)
    x, layers = _trunk(state, batch)
    norms = (_row_norms(layers[-1]), _row_norms(protos))
    logits = cosine_logits(layers[-1], protos, state.config.temperature, norms)
    layers.append(softmax(logits))
    return ActivationStack(
        layers=layers,
        logits=logits,
        task_id=task_id,
        inputs=x,
        state_version=state.version,
        norms=norms,
    )


def backward(
    state: EncoderState,
    stack: ActivationStack,
    d_layers: list[np.ndarray | None],
    d_logits: np.ndarray | None = None,
) -> ParameterGradients:
    """Pull upstream gradients back to every parameter.

    d_layers holds one gradient per stack layer (None means zero).  d_logits
    is a gradient at the logits: the trainer passes the summed gradient of
    both cross-entropies there, so it skips the softmax pull-back that
    d_layers[-1] goes through (which then carries only the alignment term
    on the probability layer).  The two are added at the logits and the
    cosine head's backward runs once.

    Returns gradients for all shared weights/biases and for the prototype
    rows of the stack's task; other heads are never touched.
    """
    if stack.state_version != state.version:
        raise UsageError("stale activation stack: state has mutated since forward")
    n_hidden = len(state.config.hidden_dims)
    if len(d_layers) != len(stack.layers):
        raise ShapeError(f"expected {len(stack.layers)} layer gradients, got {len(d_layers)}")
    protos = state.head(stack.task_id)

    if d_logits is None:
        d_logits = np.zeros_like(stack.logits)
    if d_layers[-1] is not None:
        d_logits = d_logits + softmax_backward(stack.probs, d_layers[-1])
    d_emb, d_protos = cosine_logits_backward(
        stack.embedding, protos, d_logits, state.config.temperature, stack.norms
    )
    if d_layers[n_hidden] is not None:
        d_emb += d_layers[n_hidden]

    # every entry of the flat buffer is written below
    shared = np.empty_like(state.shared)
    d_weights, d_biases = _views(state.config.layer_dims, shared)

    # linear embedding layer
    inp = stack.layers[n_hidden - 1] if n_hidden >= 1 else stack.inputs
    np.matmul(inp.T, d_emb, out=d_weights[n_hidden])
    d_emb.sum(axis=0, out=d_biases[n_hidden])
    d_h = d_emb @ state.weights[n_hidden].T

    for l in range(n_hidden - 1, -1, -1):
        if d_layers[l] is not None:
            d_h += d_layers[l]
        d_pre = d_h * (1.0 - stack.layers[l] ** 2)
        inp = stack.layers[l - 1] if l >= 1 else stack.inputs
        np.matmul(inp.T, d_pre, out=d_weights[l])
        d_pre.sum(axis=0, out=d_biases[l])
        if l:  # no gradient w.r.t. the inputs
            d_h = d_pre @ state.weights[l].T

    return ParameterGradients(
        shared=shared, d_weights=d_weights, d_biases=d_biases, d_prototypes=d_protos
    )


def apply_deltas(
    state: EncoderState,
    shared_delta: np.ndarray | None,
    proto_delta: np.ndarray,
    task_id: int,
) -> EncoderState:
    """Add a flat shared delta (None leaves the shared layers as they are) and
    a task head delta in place (single writer); bumps the version."""
    if shared_delta is not None:
        state.shared += shared_delta
    state.heads[task_id] = state.head(task_id) + proto_delta
    state.version += 1
    return state
