"""Small fully-connected encoder with hand-written forward and backward passes.

The network is input -> tanh hidden layers -> linear embedding.  Each task
gets its own prototype matrix; class scores are temperature-scaled cosine
similarities between embeddings and prototype rows, so the prototypes act
both as the classifier head and as the semantic anchors of the
image-to-prototype cross-entropy.

States are treated as immutable during forward/backward.  ``apply_deltas``
is the single mutation point; it bumps a version counter that invalidates
activation stacks captured earlier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import cosine_logits, cosine_logits_backward, softmax, softmax_backward

DEFAULT_TEMPERATURE = 0.07


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


@dataclass
class EncoderState:
    config: EncoderConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    heads: dict[int, np.ndarray] = field(default_factory=dict)
    active_task: int | None = None
    version: int = 0

    def head(self, task_id: int) -> np.ndarray:
        if task_id not in self.heads:
            raise UsageError(f"task {task_id} has no registered head")
        return self.heads[task_id]


@dataclass
class ActivationStack:
    """Per-layer activations for one batch.

    layers = [hidden_1, ..., hidden_H, embedding, probs]; the probability
    layer makes the stack one longer than the encoder depth.
    """

    layers: list[np.ndarray]
    logits: np.ndarray
    task_id: int
    inputs: np.ndarray
    state_version: int

    @property
    def embedding(self) -> np.ndarray:
        return self.layers[-2]

    @property
    def probs(self) -> np.ndarray:
        return self.layers[-1]


@dataclass
class StackGradients:
    """Upstream gradients w.r.t. stack layers (None entries mean zero).

    d_logits is a gradient at the logits: the trainer passes the summed
    gradient of both cross-entropies there, so it skips the softmax
    pull-back that d_layers[-1] goes through (which then carries only the
    alignment term on the probability layer).  ``backward`` adds the two at
    the logits and runs the cosine head's backward once.
    """

    d_layers: list[np.ndarray | None]
    d_logits: np.ndarray | None = None


@dataclass
class ParameterGradients:
    """Gradients of one batch; d_weights and d_biases are views into shared."""

    shared: np.ndarray
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_prototypes: np.ndarray
    task_id: int


def shared_views(
    state: EncoderState, flat: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-parameter views of a flat vector laid out as all weights, then all biases."""
    views = []
    offset = 0
    for param in (*state.weights, *state.biases):
        views.append(flat[offset : offset + param.size].reshape(param.shape))
        offset += param.size
    n = len(state.weights)
    return views[:n], views[n:]


def _uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_encoder(config: EncoderConfig) -> EncoderState:
    """Seeded init: weights uniform in +-sqrt(3/fan_in), biases zero, no heads."""
    rng = np.random.default_rng(config.seed)
    dims = config.layer_dims
    weights = [_uniform_init(rng, dims[i], (dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return EncoderState(config=config, weights=weights, biases=biases)


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
    state.active_task = task_id
    state.version += 1
    return state


def embed(state: EncoderState, batch: np.ndarray) -> np.ndarray:
    """Embeddings only, no task head required."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x.shape[1] != state.config.input_dim:
        raise ShapeError(f"batch has dim {x.shape[1]}, encoder expects {state.config.input_dim}")
    h = x
    for l in range(len(state.config.hidden_dims)):
        h = np.tanh(h @ state.weights[l] + state.biases[l])
    return h @ state.weights[-1] + state.biases[-1]


def forward(state: EncoderState, batch: np.ndarray, task_id: int | None = None) -> ActivationStack:
    """Run a batch through the net and the selected task head."""
    task = state.active_task if task_id is None else task_id
    if task is None:
        raise UsageError("no task selected and no active task set")
    protos = state.head(task)
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x.shape[1] != state.config.input_dim:
        raise ShapeError(f"batch has dim {x.shape[1]}, encoder expects {state.config.input_dim}")
    layers: list[np.ndarray] = []
    h = x
    n_hidden = len(state.config.hidden_dims)
    for l in range(n_hidden):
        h = np.tanh(h @ state.weights[l] + state.biases[l])
        layers.append(h)
    emb = h @ state.weights[n_hidden] + state.biases[n_hidden]
    layers.append(emb)
    logits = cosine_logits(emb, protos, state.config.temperature)
    probs = softmax(logits)
    layers.append(probs)
    return ActivationStack(
        layers=layers, logits=logits, task_id=task, inputs=x, state_version=state.version
    )


def backward(state: EncoderState, stack: ActivationStack, grads: StackGradients) -> ParameterGradients:
    """Pull upstream activation gradients back to every parameter.

    Returns gradients for all shared weights/biases and for the prototype
    rows of the stack's task; other heads are never touched.
    """
    if stack.state_version != state.version:
        raise UsageError("stale activation stack: state has mutated since forward")
    n_hidden = len(state.config.hidden_dims)
    if len(grads.d_layers) != len(stack.layers):
        raise ShapeError(
            f"expected {len(stack.layers)} layer gradients, got {len(grads.d_layers)}"
        )
    protos = state.head(stack.task_id)

    d_logits = np.zeros_like(stack.logits) if grads.d_logits is None else grads.d_logits
    if grads.d_layers[-1] is not None:
        d_logits = d_logits + softmax_backward(stack.probs, grads.d_layers[-1])
    d_emb, d_protos = cosine_logits_backward(
        stack.embedding, protos, d_logits, state.config.temperature
    )
    if grads.d_layers[n_hidden] is not None:
        d_emb = d_emb + grads.d_layers[n_hidden]

    # every entry of the flat buffer is written below
    shared = np.empty(sum(p.size for p in (*state.weights, *state.biases)))
    d_weights, d_biases = shared_views(state, shared)

    # linear embedding layer
    inp = stack.layers[n_hidden - 1] if n_hidden >= 1 else stack.inputs
    np.matmul(inp.T, d_emb, out=d_weights[n_hidden])
    np.sum(d_emb, axis=0, out=d_biases[n_hidden])
    d_h = d_emb @ state.weights[n_hidden].T

    for l in range(n_hidden - 1, -1, -1):
        if grads.d_layers[l] is not None:
            d_h = d_h + grads.d_layers[l]
        d_pre = d_h * (1.0 - stack.layers[l] ** 2)
        inp = stack.layers[l - 1] if l >= 1 else stack.inputs
        np.matmul(inp.T, d_pre, out=d_weights[l])
        np.sum(d_pre, axis=0, out=d_biases[l])
        if l:  # no gradient w.r.t. the inputs
            d_h = d_pre @ state.weights[l].T

    return ParameterGradients(
        shared=shared,
        d_weights=d_weights,
        d_biases=d_biases,
        d_prototypes=d_protos,
        task_id=stack.task_id,
    )


def apply_deltas(
    state: EncoderState,
    weight_deltas: list[np.ndarray] | None,
    bias_deltas: list[np.ndarray] | None,
    proto_deltas: np.ndarray | None,
    task_id: int | None,
) -> EncoderState:
    """Add parameter deltas in place (single writer); bumps the version."""
    if weight_deltas is not None:
        for w, d in zip(state.weights, weight_deltas):
            w += d
    if bias_deltas is not None:
        for b, d in zip(state.biases, bias_deltas):
            b += d
    if proto_deltas is not None:
        if task_id is None:
            raise UsageError("prototype deltas need a task_id")
        state.head(task_id)
        state.heads[task_id] = state.heads[task_id] + proto_deltas
    state.version += 1
    return state
