"""Sequential task training with alternating replay and an evaluation grid.

One experiment trains tasks in order with the combined objective
(identity CE + batch-hard triplet + prototype CE + weighted alignment).
From the second task on, epochs alternate between new-task PK batches and
replay batches drawn from the banks, and the banks are refreshed with the
lowest-uncertainty samples once each task finishes.  Every task is
evaluated at one step before training, then at a halfway step and an end
step for each task that trains: five steps for two training tasks, seven
for three, and three for epoch budgets (4, 0).

Every run is a pure function of (config, master seed): all randomness is
drawn from tagged SeedSequence streams, so adding later tasks to a config
cannot perturb the training of earlier ones.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .banks import ReplayBanks, ingest_task, replay_epoch_batches
from .conformal import CpConfig
from .data import (
    Split,
    SynthSpec,
    TaskDataset,
    generate_synthetic_task,
    load_task,
    pk_epoch_batches,
)
from .encoder import (
    EncoderConfig,
    EncoderState,
    ParameterGradients,
    apply_deltas,
    backward,
    forward,
    init_encoder,
    register_task_head,
)
from .losses import (
    JmmdSpec,
    LossBreakdown,
    LossInputError,
    _sq_dists,
    cross_entropies_grad,
    default_layer_set,
    jmmd_with_grad,
    triplet_loss_grad,
)
from .metrics import aggregate, evaluate

logger = logging.getLogger(__name__)

REPORT_FORMAT = "xmcl-report-v1"

# stream tags for deterministic, order-independent RNG derivation
_TAG_ENCODER, _TAG_HEAD, _TAG_DATA, _TAG_BATCHES = 1, 2, 3, 4


@dataclass(frozen=True)
class Schedule:
    """Per-task epoch budget, warmup/decay learning-rate shape, Adam moments."""

    epochs_first_task: int = 60
    epochs_later_tasks: int = 30
    warmup_epochs: int = 10
    base_lr: float = 5e-6
    warmup_start_lr: float = 5e-7
    decay_epochs: tuple[int, ...] = (30, 50)
    decay_factor: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.warmup_epochs < 0 or self.epochs_first_task < 0 or self.epochs_later_tasks < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.warmup_epochs > max(self.epochs_first_task, self.epochs_later_tasks):
            raise ValueError("warmup cannot exceed the longest task budget")
        if not 0 < self.decay_factor < 1:
            raise ValueError(f"decay factor must be in (0, 1), got {self.decay_factor}")
        if not all(0 < lr < math.inf for lr in (self.base_lr, self.warmup_start_lr)):
            raise ValueError("learning rates must be positive and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"Adam betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"Adam eps must be positive and finite, got {self.eps}")


def lr_at(epoch: int, schedule: Schedule) -> float:
    """Linear warmup to base_lr, then a step decay at each decay epoch."""
    if epoch < schedule.warmup_epochs:
        frac = epoch / schedule.warmup_epochs
        return schedule.warmup_start_lr + frac * (schedule.base_lr - schedule.warmup_start_lr)
    lr = schedule.base_lr
    for d in schedule.decay_epochs:
        if epoch >= d:
            lr *= schedule.decay_factor
    return lr


class Adam:
    """Moment estimates and step counts per key.

    The trainer keys all shared weights and biases, flattened into one
    vector, as "shared" (they always step together) and each task head as
    ("p", task_id).  Every operation is elementwise, so one call over the
    flat vector equals one call per parameter to the bit.
    """

    def __init__(self, schedule: Schedule):
        self.b1, self.b2, self.eps = schedule.beta1, schedule.beta2, schedule.eps
        self.m: dict = {}
        self.v: dict = {}
        self.t: dict = {}

    def delta(self, key, grad: np.ndarray, lr: float) -> np.ndarray:
        if key not in self.t:
            self.m[key] = np.zeros(np.shape(grad))
            self.v[key] = np.zeros(np.shape(grad))
            self.t[key] = 0
        m, v = self.m[key], self.v[key]
        self.t[key] += 1
        t = self.t[key]
        # in place, in the operation order of
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;  -lr m_hat / (sqrt(v_hat) + eps)
        m *= self.b1
        m += (1 - self.b1) * grad
        v *= self.b2
        v += (1 - self.b2) * grad * grad
        step = m / (1 - self.b1**t)
        step *= -lr
        denom = v / (1 - self.b2**t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        return step


@dataclass
class ExperimentConfig:
    """Everything a run needs besides the master seed."""

    tasks: list[SynthSpec | str]
    schedule: Schedule = Schedule()
    cp: CpConfig = CpConfig()
    jmmd: JmmdSpec = field(default_factory=JmmdSpec)
    hidden_dims: tuple[int, ...] = EncoderConfig.hidden_dims
    embedding_dim: int = EncoderConfig.embedding_dim
    temperature: float = EncoderConfig.temperature
    pk_p: int = 16
    pk_k: int = 4
    mpm: bool = True
    triplet_margin: float = 0.3
    label_smoothing: float = 0.1
    use_cosine_eval: bool = False
    swap_eval_direction: bool = False
    freeze_shared_on_replay: bool = False

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("config needs at least one task")
        # the encoder's own checks, before any task is built
        EncoderConfig(
            hidden_dims=self.hidden_dims,
            embedding_dim=self.embedding_dim,
            temperature=self.temperature,
        )
        if self.pk_p < 2 or self.pk_k < 1:
            raise ValueError("PK sampling needs at least 2 identities and 1 instance")
        if not (np.isfinite(self.triplet_margin) and self.triplet_margin >= 0):
            raise ValueError(f"triplet_margin must be finite and >= 0, got {self.triplet_margin}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        top = len(self.hidden_dims) + 1
        outside = [i for i in self.jmmd.layer_set or () if not 0 <= i <= top]
        if outside:
            raise ValueError(
                f"jmmd.layer_set indices {outside} outside the activation stack [0, {top}]"
            )
        if not isinstance(self.jmmd.bandwidths, str):
            layers = self.jmmd.layer_set or default_layer_set(len(self.hidden_dims))
            if len(self.jmmd.bandwidths) != len(layers):
                raise ValueError(
                    f"jmmd.bandwidths has {len(self.jmmd.bandwidths)} values "
                    f"for the {len(layers)} layers {list(layers)}"
                )


@dataclass(eq=False)
class ExperimentState:
    encoder: EncoderState
    adam: Adam
    banks: ReplayBanks
    head_ids: dict[int, np.ndarray]
    loss_history: dict[int, list[float]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _stream(master_seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, *tags)))


def _derived_seed(master_seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((master_seed, *tags)).generate_state(1)[0])


def _require_finite(terms, grads: ParameterGradients) -> None:
    """One check over the loss values and the final parameter gradients.

    Only when it fails are the (name, value, gradients) terms checked, in
    evaluation order, to name the first non-finite one.
    """
    if (
        all(math.isfinite(value) for _, value, _ in terms)
        and np.isfinite(grads.shared).all()
        and np.isfinite(grads.d_prototypes).all()
    ):
        return
    for term, value, term_grads in terms:
        if not (math.isfinite(value) and all(np.isfinite(g).all() for g in term_grads)):
            raise FloatingPointError(f"non-finite {term}")
    raise FloatingPointError("non-finite parameter gradient")


def batch_gradients(
    state: EncoderState,
    batch: Split,
    task_id: int,
    head_ids: np.ndarray,
    jmmd_spec: JmmdSpec,
    margin: float = 0.3,
    smoothing: float = 0.1,
) -> tuple[LossBreakdown, ParameterGradients]:
    """Combined loss value and parameter gradients for one batch.

    head_ids are the task head's identities, ascending (row i of the head
    is identity i).  The alignment term acts between the batch's sketch
    rows and photo rows on the configured layer set; a batch missing one
    modality skips it (and with it the cross-modal part of the triplet
    term) with a warning, and alpha = 0 skips its evaluation outright.  A
    non-finite loss term or gradient raises FloatingPointError naming the
    term.

    Shared work is done once: both cross-entropies come from one pass over
    the probabilities, and their summed logits gradient goes through the
    cosine head once in ``backward``.  The alignment term runs on the rows
    in batch order, on squared-distance matrices computed once per layer;
    the embedding layer's matrix also feeds the triplet term.
    """
    stack = forward(state, batch.features, task_id)
    rows = np.searchsorted(head_ids, batch.ids)
    if not np.array_equal(head_ids[np.minimum(rows, head_ids.size - 1)], batch.ids):
        raise KeyError(f"batch holds identities outside task {task_id}'s head")
    l_id, d_id, l_i2tce, d_i2tce = cross_entropies_grad(stack.probs, rows, smoothing)

    n_hidden = len(state.config.hidden_dims)
    both_modalities = bool(batch.is_sketch.any()) and not batch.is_sketch.all()
    layer_set: tuple[int, ...] = ()
    if both_modalities and jmmd_spec.alpha > 0:
        layer_set = jmmd_spec.layer_set or default_layer_set(n_hidden)
    sq_dists = [_sq_dists(stack.layers[i], stack.layers[i]) for i in layer_set]
    emb_sq_dists = sq_dists[layer_set.index(n_hidden)] if n_hidden in layer_set else None
    try:
        l_tri, d_tri = triplet_loss_grad(stack.embedding, batch.ids, margin, emb_sq_dists)
    except LossInputError as e:
        logger.warning("skipping triplet term: %s", e)
        l_tri, d_tri = 0.0, np.zeros_like(stack.embedding)
    if not both_modalities:
        logger.warning(
            "batch for task %d lacks one modality; skipping cross-modal terms", task_id
        )

    d_layers: list[np.ndarray | None] = [None] * len(stack.layers)
    d_layers[n_hidden] = d_tri
    l_jmmd, d_jmmd = 0.0, []
    if layer_set:
        l_jmmd, d_jmmd = jmmd_with_grad(
            [stack.layers[i] for i in layer_set], batch.is_sketch, jmmd_spec, sq_dists
        )
        for idx, g in zip(layer_set, d_jmmd):
            g = jmmd_spec.alpha * g
            d_layers[idx] = g if d_layers[idx] is None else d_layers[idx] + g

    grads = backward(state, stack, d_layers, d_id + d_i2tce)
    _require_finite(
        (
            ("l_id", l_id, (d_id,)),
            ("l_i2tce", l_i2tce, (d_i2tce,)),
            ("l_tri", l_tri, (d_tri,)),
            ("l_jmmd", l_jmmd, d_jmmd),
        ),
        grads,
    )
    return LossBreakdown(l_id, l_tri, l_i2tce, l_jmmd, jmmd_spec.alpha), grads


def _apply_step(
    exp: ExperimentState,
    grads: ParameterGradients,
    task_id: int,
    lr: float,
    update_shared: bool = True,
) -> None:
    shared_delta = exp.adam.delta("shared", grads.shared, lr) if update_shared else None
    p_delta = exp.adam.delta(("p", task_id), grads.d_prototypes, lr)
    apply_deltas(exp.encoder, shared_delta, p_delta, task_id)


def train_task(
    exp: ExperimentState,
    task: TaskDataset,
    config: ExperimentConfig,
    epochs: int,
    rng: np.random.Generator,
    use_replay: bool,
    halfway_callback=None,
) -> list[float]:
    """Train one task for its epoch budget; returns per-epoch mean losses.

    With replay active, odd epochs (1-based) run on new-task PK batches and
    even epochs on bank batches under the originating task's head.  The
    halfway callback fires once half the budget is complete.  A non-finite
    loss or gradient raises FloatingPointError naming the task, the 1-based
    epoch and the loss term.
    """
    replay_tasks = exp.banks.task_ids() if use_replay else []
    replay_counter = 0
    epoch_losses: list[float] = []
    halfway = epochs // 2
    if halfway == 0 and halfway_callback is not None:
        halfway_callback()
    for epoch in range(epochs):
        lr = lr_at(epoch, config.schedule)
        if use_replay and (epoch + 1) % 2 == 0:
            head = replay_tasks[replay_counter % len(replay_tasks)]
            replay_counter += 1
            batches = replay_epoch_batches(exp.banks, config.pk_p, config.pk_k, rng, task_id=head)
            update_shared = not config.freeze_shared_on_replay
            where = f"task {task.task_id} (replaying task {head})"
        else:
            head = task.task_id
            batches = [
                task.train[rows]
                for rows in pk_epoch_batches(task.train, config.pk_p, config.pk_k, rng)
            ]
            update_shared = True
            where = f"task {task.task_id}"
        losses = []
        for batch in batches:
            try:
                breakdown, grads = batch_gradients(
                    exp.encoder,
                    batch,
                    head,
                    exp.head_ids[head],
                    config.jmmd,
                    config.triplet_margin,
                    config.label_smoothing,
                )
            except FloatingPointError as e:
                raise FloatingPointError(f"{where}, epoch {epoch + 1}: {e}") from e
            _apply_step(exp, grads, head, lr, update_shared=update_shared)
            losses.append(breakdown.l_sim)
        epoch_losses.append(float(np.mean(losses)))
        if epoch + 1 == halfway and halfway_callback is not None:
            halfway_callback()
    return epoch_losses


def _resolve_tasks(config: ExperimentConfig, master_seed: int) -> list[TaskDataset]:
    tasks = []
    for entry in config.tasks:
        if isinstance(entry, SynthSpec):
            # tag by task_id, not position: reordering tasks must not change data
            seed = _derived_seed(master_seed, _TAG_DATA, entry.task_id, entry.seed)
            tasks.append(generate_synthetic_task(dataclasses.replace(entry, seed=seed)))
        else:
            tasks.append(load_task(entry))
    dims = {t.feature_dim for t in tasks}
    if len(dims) != 1:
        raise ValueError(f"tasks disagree on feature dim: {sorted(dims)}")
    ids_seen: set[int] = set()
    for t in tasks:
        ids = t.train_identities | t.test_identities
        if ids & ids_seen:
            raise ValueError("tasks share identities; identity spaces must be disjoint")
        ids_seen |= ids
    return tasks


def _epoch_budget(config: ExperimentConfig, pos: int) -> int:
    schedule = config.schedule
    return schedule.epochs_first_task if pos == 0 else schedule.epochs_later_tasks


def run_sequence(config: ExperimentConfig, master_seed: int) -> tuple[dict, ExperimentState]:
    """Train all tasks in order, evaluating every task at each grid point.

    Grid: step 1 before training, then for each task that trains one step
    halfway through and one at completion (a task with a zero epoch budget
    adds none; two training tasks yield steps 1-5).  Returns the
    report dict plus the final experiment state (encoder, optimizer, banks,
    loss history).
    """
    tasks = _resolve_tasks(config, master_seed)
    for pos, task in enumerate(tasks):
        if _epoch_budget(config, pos) > 0 and len(task.train_identities) < config.pk_p:
            raise ValueError(
                f"pk_p={config.pk_p} needs at least {config.pk_p} train identities, "
                f"task {task.task_id} has {len(task.train_identities)}"
            )
    enc_config = EncoderConfig(
        input_dim=tasks[0].feature_dim,
        hidden_dims=config.hidden_dims,
        embedding_dim=config.embedding_dim,
        seed=_derived_seed(master_seed, _TAG_ENCODER),
        temperature=config.temperature,
    )
    exp = ExperimentState(
        encoder=init_encoder(enc_config),
        adam=Adam(config.schedule),
        banks=ReplayBanks(),
        head_ids={},
    )
    if len(tasks) == 1:
        exp.warnings.append("single-task config: no continual-learning step will run")

    steps: list[dict] = []

    def eval_all(step: int) -> None:
        records = [
            evaluate(
                exp.encoder,
                t,
                step=step,
                use_cosine=config.use_cosine_eval,
                swap_direction=config.swap_eval_direction,
            )
            for t in tasks
        ]
        steps.append(
            {
                "step": step,
                "records": [r.as_row() for r in records],
                "average": aggregate(records),
            }
        )

    eval_all(1)
    step = 1
    for pos, task in enumerate(tasks):
        head_seed = _derived_seed(master_seed, _TAG_HEAD, task.task_id)
        register_task_head(
            exp.encoder, task.task_id, len(task.train_identities), head_seed
        )
        exp.head_ids[task.task_id] = task.train.identities()
        epochs = _epoch_budget(config, pos)
        rng = _stream(master_seed, _TAG_BATCHES, task.task_id)
        use_replay = config.mpm and pos > 0 and not exp.banks.is_empty()
        if epochs > 0:
            halfway_step = step + 1
            losses = train_task(
                exp,
                task,
                config,
                epochs,
                rng,
                use_replay,
                halfway_callback=lambda s=halfway_step: eval_all(s),
            )
            exp.loss_history[task.task_id] = losses
            step += 2
            eval_all(step)
        if config.mpm:
            ingest_task(exp.banks, exp.encoder, task, config.cp)

    report = {
        "format": REPORT_FORMAT,
        "master_seed": master_seed,
        "task_ids": [t.task_id for t in tasks],
        "mpm": config.mpm,
        "alpha": config.jmmd.alpha,
        "steps": steps,
        "loss_history": {str(t): v for t, v in sorted(exp.loss_history.items())},
        "warnings": exp.warnings,
    }
    return report, exp


def report_to_csv(report: dict) -> str:
    """Per-step metrics with the documented column layout."""
    lines = ["step,task_id,mAP,r1,r5,r10"]
    for entry in report["steps"]:
        for row in entry["records"]:
            lines.append(
                f'{entry["step"]},{row["task_id"]},{row["mAP"]!r},'
                f'{row["r1"]!r},{row["r5"]!r},{row["r10"]!r}'
            )
    return "\n".join(lines) + "\n"
