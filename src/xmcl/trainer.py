"""Sequential task training with alternating replay and an evaluation grid.

One experiment trains tasks in order with the combined objective
(identity CE + batch-hard triplet + prototype CE + weighted alignment).
From the second task on, epochs alternate between new-task PK batches and
replay batches drawn from the banks, and the banks are refreshed with the
lowest-uncertainty samples once each task finishes; the task's own train
rows are then dropped, since replay reads only the banks.  Every task is
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
    identity_groups,
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
    _layer_sq_dists,
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
    """Per-task epoch budget and warmup/decay learning-rate shape."""

    epochs_first_task: int = 60
    epochs_later_tasks: int = 30
    warmup_epochs: int = 10
    base_lr: float = 5e-6
    warmup_start_lr: float = 5e-7
    decay_epochs: tuple[int, ...] = (30, 50)
    decay_factor: float = 0.1

    def __post_init__(self) -> None:
        if self.warmup_epochs < 0 or self.epochs_first_task < 0 or self.epochs_later_tasks < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.warmup_epochs > max(self.epochs_first_task, self.epochs_later_tasks):
            raise ValueError("warmup cannot exceed the longest task budget")
        if not 0 < self.decay_factor < 1:
            raise ValueError(f"decay factor must be in (0, 1), got {self.decay_factor}")
        if not all(0 < lr < math.inf for lr in (self.base_lr, self.warmup_start_lr)):
            raise ValueError("learning rates must be positive and finite")


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

    b1, b2 and eps are the values the Adam paper recommends (Kingma & Ba,
    ICLR 2015).  The trainer keys all shared weights and biases, flattened
    into one vector, as "shared" (they always step together) and each task
    head as ("p", task_id).  Every operation is elementwise, so one call
    over the flat vector equals one call per parameter to the bit.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
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
    # only False: kept while the benchmark's config payload still writes these keys
    use_cosine_eval: bool = False
    swap_eval_direction: bool = False
    freeze_shared_on_replay: bool = False

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("config needs at least one task")
        for name in ("use_cosine_eval", "swap_eval_direction", "freeze_shared_on_replay"):
            if getattr(self, name):
                raise ValueError(f"{name} must be false, got {getattr(self, name)!r}")
        # the encoder's own checks, before any task is built; a task file's
        # width is known only once the file is read
        first = self.tasks[0]
        EncoderConfig(
            input_dim=first.feature_dim if isinstance(first, SynthSpec) else 1,
            hidden_dims=self.hidden_dims,
            embedding_dim=self.embedding_dim,
            temperature=self.temperature,
        )
        if self.pk_p < 2 or self.pk_k < 1:
            raise ValueError("PK sampling needs at least 2 identities and 1 instance")
        # float64 elements of a batch at its widest layer, or of its distance stack
        rows = self.pk_p * self.pk_k
        widths = [t.feature_dim for t in self.tasks if isinstance(t, SynthSpec)]
        depth = len(self.jmmd.layer_set or default_layer_set(len(self.hidden_dims)))
        size = rows * max(*widths, *self.hidden_dims, self.embedding_dim, depth * rows)
        if 8 * size > np.iinfo(np.intp).max:
            raise ValueError(
                f"pk.p * pk.k = {rows} rows make a batch or a ({depth}, {rows}, {rows}) "
                f"distance stack past numpy's limit of {np.iinfo(np.intp).max} bytes"
            )
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
    margin: float,
    smoothing: float,
) -> tuple[LossBreakdown, ParameterGradients]:
    """Combined loss value and parameter gradients for one batch.

    head_ids are the task head's identities, ascending (row i of the head
    is identity i).  The alignment term acts between the batch's sketch
    rows and photo rows on the configured layer set; a batch missing one
    modality skips it (and with it the cross-modal part of the triplet
    term) with a warning, and alpha = 0 skips its evaluation outright.  A
    non-finite loss term or gradient raises FloatingPointError naming the
    term.

    Shared work is done once: both cross-entropies and their one summed
    logits gradient come from one pass over the probabilities, and that
    gradient goes through the cosine head once in ``backward`` (the
    finiteness check names it l_id).  The alignment term runs on the rows in
    batch order, on squared-distance matrices computed once per layer into
    one (L, n, n) buffer; the embedding layer's matrix also feeds the
    triplet term.
    """
    stack = forward(state, batch.features, task_id)
    rows = head_ids.searchsorted(batch.ids)
    if not (head_ids[np.minimum(rows, head_ids.size - 1)] == batch.ids).all():
        raise KeyError(f"batch holds identities outside task {task_id}'s head")
    l_id, l_i2tce, d_logits = cross_entropies_grad(stack.probs, rows, smoothing)

    n_hidden = len(state.config.hidden_dims)
    both_modalities = bool(batch.is_sketch.any()) and not batch.is_sketch.all()
    layer_set: tuple[int, ...] = ()
    if both_modalities and jmmd_spec.alpha > 0:
        layer_set = jmmd_spec.layer_set or default_layer_set(n_hidden)
    align_layers = [stack.layers[i] for i in layer_set]
    sq_dists = _layer_sq_dists(align_layers) if layer_set else None
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
        l_jmmd, d_jmmd = jmmd_with_grad(align_layers, batch.is_sketch, jmmd_spec, sq_dists)
        for idx, g in zip(layer_set, d_jmmd):
            g = jmmd_spec.alpha * g
            d_layers[idx] = g if d_layers[idx] is None else d_layers[idx] + g

    grads = backward(state, stack, d_layers, d_logits)
    _require_finite(
        (
            ("l_id", l_id, (d_logits,)),
            ("l_i2tce", l_i2tce, ()),
            ("l_tri", l_tri, (d_tri,)),
            ("l_jmmd", l_jmmd, d_jmmd),
        ),
        grads,
    )
    return LossBreakdown(l_id, l_tri, l_i2tce, l_jmmd, jmmd_spec.alpha), grads


def train_task(
    exp: ExperimentState,
    task: TaskDataset,
    config: ExperimentConfig,
    epochs: range,
    rng: np.random.Generator,
    use_replay: bool,
) -> list[float]:
    """Train one task over a range of its 0-based epochs; returns per-epoch mean losses.

    The learning rate and the phase depend only on the epoch number, so
    training over range(0, h) and then range(h, n) with the same rng equals
    training over range(n).  With replay active, even (0-based) epochs run on
    new-task PK batches and odd ones on bank batches under a past task's head,
    taking the banked tasks in turn; every batch steps the shared weights and
    the head it trains.  The samplers return row indices, and
    each batch is gathered just before its step, so one batch's rows are
    held at a time.  A non-finite loss or gradient raises
    FloatingPointError naming the task, the 1-based epoch and the loss term;
    so does, at the end of the epoch, a non-finite Adam second moment.
    """
    replay_tasks = exp.banks.task_ids() if use_replay else []
    # the split does not change while it trains: its identities are grouped once
    groups = identity_groups(task.train)
    epoch_losses: list[float] = []
    for epoch in epochs:
        lr = lr_at(epoch, config.schedule)
        if use_replay and epoch % 2 == 1:
            head = replay_tasks[(epoch // 2) % len(replay_tasks)]
            source = exp.banks.rows
            batches = replay_epoch_batches(exp.banks, config.pk_p, config.pk_k, rng, task_id=head)
            where = f"task {task.task_id} (replaying task {head})"
        else:
            head = task.task_id
            source = task.train
            batches = pk_epoch_batches(groups, config.pk_p, config.pk_k, rng)
            where = f"task {task.task_id}"
        losses = []
        try:
            for rows in batches:
                breakdown, grads = batch_gradients(
                    exp.encoder,
                    source[rows],
                    head,
                    exp.head_ids[head],
                    config.jmmd,
                    config.triplet_margin,
                    config.label_smoothing,
                )
                shared_delta = exp.adam.delta("shared", grads.shared, lr)
                p_delta = exp.adam.delta(("p", head), grads.d_prototypes, lr)
                apply_deltas(exp.encoder, shared_delta, p_delta, head)
                losses.append(breakdown.l_sim)
            # a finite gradient above about 1e154 squares to inf in v, and every
            # later step of its weights is then 0
            if not all(np.isfinite(v).all() for v in exp.adam.v.values()):
                raise FloatingPointError("non-finite adam second moment")
        except FloatingPointError as e:
            raise FloatingPointError(f"{where}, epoch {epoch + 1}: {e}") from e
        epoch_losses.append(float(np.mean(losses)))
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
        raise ValueError(f"tasks disagree on feature_dim: {sorted(dims)}")
    ids_seen: set[int] = set()
    for t in tasks:
        ids = t.train_identities | t.test_identities
        if shared := ids & ids_seen:
            raise ValueError(
                f"task_id {t.task_id} shares identities {sorted(shared)[:5]} with an earlier "
                "task; identity spaces must be disjoint"
            )
        ids_seen |= ids
    return tasks


def _epoch_budget(config: ExperimentConfig, pos: int) -> int:
    schedule = config.schedule
    return schedule.epochs_first_task if pos == 0 else schedule.epochs_later_tasks


def run_sequence(config: ExperimentConfig, master_seed: int) -> tuple[dict, ExperimentState]:
    """Train all tasks in order, evaluating every task at each grid point.

    Grid: step 1 before training, then for each task that trains one step
    halfway through and one at completion (a task with a zero epoch budget
    adds none; two training tasks yield steps 1-5).  Once a task is trained
    and ingested its train rows are dropped: replay reads only the banks.
    Returns the report dict plus the final experiment state (encoder,
    optimizer, banks, loss history).
    """
    tasks = _resolve_tasks(config, master_seed)
    for pos, task in enumerate(tasks):
        if _epoch_budget(config, pos) > 0 and len(task.train_identities) < config.pk_p:
            raise ValueError(
                f"pk_p={config.pk_p} needs at least {config.pk_p} train identities, "
                f"task {task.task_id} has {len(task.train_identities)} (num_train_ids)"
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
        adam=Adam(),
        banks=ReplayBanks(),
        head_ids={},
    )
    if len(tasks) == 1:
        exp.warnings.append("single-task config: no continual-learning step will run")

    steps: list[dict] = []

    def eval_all(step: int) -> None:
        records = [evaluate(exp.encoder, t, step=step) for t in tasks]
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
            if config.mpm and pos > 0 and not use_replay:
                exp.warnings.append(
                    f"task {task.task_id} trains without replay: "
                    "no earlier sample was admitted to the banks"
                )
            half = epochs // 2
            losses = train_task(exp, task, config, range(half), rng, use_replay)
            eval_all(step + 1)
            losses += train_task(exp, task, config, range(half, epochs), rng, use_replay)
            exp.loss_history[task.task_id] = losses
            step += 2
            eval_all(step)
        if config.mpm:
            ingest_task(exp.banks, exp.encoder, task, config.cp)
        # evaluation reads only the test splits; a fresh empty split, as a
        # slice of the old one would keep its rows alive
        task.train = Split.empty(task.feature_dim)

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
