"""Synthetic cross-modal tasks, task-file I/O, and PK batch sampling.

A synthetic task draws one latent per identity and renders it into feature
space twice: once through the photo transform and once through the sketch
transform.  The two transforms share a base geometry (a fixed function of
the dimensions); ``task_shift`` rotates the base relative to task 0 and
``modality_gap`` rotates/offsets the sketch side relative to the photo
side, so gap 0 with zero noise makes both modalities coincide exactly.

Identity labels are offset by a large per-task stride, keeping identity
spaces of different tasks disjoint by construction.

Each split is held as arrays (``Split``): one feature row, identity and
modality flag per sample, in sample order, in memory that no other split
shares.  The PK sampler returns index arrays into a split, so a batch is
one fancy-indexing gather, made by the caller when it needs the batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ID_STRIDE = 1_000_000
# identity labels and task ids are held as int64
_INT64 = np.iinfo(np.int64)
MODALITIES = ("sketch", "photo")
SPLITS = ("train", "query", "gallery")
_BASE_GEOMETRY_SEED = 24017


class SynthSpecError(ValueError):
    """Invalid synthetic-task specification."""


class TaskFileError(ValueError):
    """Malformed task file row; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DatasetValidationError(ValueError):
    """A task violates a dataset invariant; names the broken rule."""


@dataclass(eq=False)
class Split:
    """Samples as arrays: features (N, D) float64, ids (N,) int64, is_sketch (N,) bool.

    Indexing with a slice or an index array gives the split of those rows.
    """

    features: np.ndarray
    ids: np.ndarray
    is_sketch: np.ndarray

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, rows) -> "Split":
        return Split(self.features[rows], self.ids[rows], self.is_sketch[rows])

    @classmethod
    def empty(cls, dim: int) -> "Split":
        """No rows, with (0, dim) features that share no other split's memory."""
        return cls(np.empty((0, dim)), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))

    def identities(self) -> np.ndarray:
        """The distinct identities, ascending: row i of the task's head is the i-th."""
        return np.unique(self.ids)


def _split_of(ids: list[int], is_sketch: list[bool], features: list, dim: int) -> Split:
    feats = np.array(features, dtype=np.float64) if features else np.empty((0, dim))
    return Split(feats, np.array(ids, dtype=np.int64), np.array(is_sketch, dtype=bool))


@dataclass(eq=False)
class TaskDataset:
    task_id: int
    train: Split
    query: Split
    gallery: Split

    @property
    def train_identities(self) -> set[int]:
        return set(self.train.ids.tolist())

    @property
    def test_identities(self) -> set[int]:
        return set(self.query.ids.tolist()) | set(self.gallery.ids.tolist())

    @property
    def feature_dim(self) -> int:
        return int(self.train.features.shape[1])

    def splits(self) -> tuple[tuple[str, Split], ...]:
        return (("train", self.train), ("query", self.query), ("gallery", self.gallery))

    def validate(self) -> "TaskDataset":
        splits = [s for _, s in self.splits()]
        if not any(len(s) for s in splits):
            raise DatasetValidationError("empty-task: task has no samples")
        dims = {s.features.shape[1:] for s in splits}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise DatasetValidationError(f"feature-dim-constant: found dims {sorted(dims)}")
        if any(not len(s) == len(s.features) == s.is_sketch.size for s in splits):
            raise DatasetValidationError(
                "split-rows-agree: features, ids and modality flags differ in length"
            )
        overlap = self.train_identities & self.test_identities
        if overlap:
            raise DatasetValidationError(
                f"train-test-disjoint: identities {sorted(overlap)[:5]} appear in both splits"
            )
        missing = set(self.query.ids.tolist()) - set(self.gallery.ids.tolist())
        if missing:
            raise DatasetValidationError(
                f"query-covered-by-gallery: identities {sorted(missing)[:5]} have no gallery sample"
            )
        return self


@dataclass(frozen=True)
class SynthSpec:
    task_id: int = 0
    latent_dim: int = 16
    feature_dim: int = 64
    num_train_ids: int = 50
    num_test_ids: int = 20
    sketches_per_id: int = 4
    photos_per_id: int = 4
    modality_gap: float = 0.6
    task_shift: float = 0.0
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        counts = {
            "latent_dim": self.latent_dim,
            "feature_dim": self.feature_dim,
            "num_train_ids": self.num_train_ids,
            "num_test_ids": self.num_test_ids,
            "sketches_per_id": self.sketches_per_id,
            "photos_per_id": self.photos_per_id,
        }
        for name, v in counts.items():
            if int(v) != v or v < 1:
                raise SynthSpecError(f"{name} must be a positive integer, got {v}")
        if not 0 <= self.noise_sigma < math.inf:
            raise SynthSpecError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        for name in ("modality_gap", "task_shift"):
            if not math.isfinite(getattr(self, name)):
                raise SynthSpecError(f"{name} must be finite, got {getattr(self, name)}")
        if self.task_id < 0:
            raise SynthSpecError(f"task_id must be >= 0, got {self.task_id}")
        if self.seed < 0:
            raise SynthSpecError(f"seed must be >= 0, got {self.seed}")
        total = self.num_train_ids + self.num_test_ids
        if total > ID_STRIDE:
            raise SynthSpecError(f"too many identities for one task: {total}")
        if self.task_id * ID_STRIDE + total > _INT64.max:
            raise SynthSpecError(f"task_id {self.task_id} puts identity labels past int64")


def _modality_transforms(spec: SynthSpec):
    """Photo and sketch (matrix, offset) pairs for this task's geometry.

    Both gap and shift are mixing angles (radians): the task transform
    interpolates between the base matrix and an independent one, and the
    sketch transform interpolates between the task matrix and a third.
    cos/sin mixing keeps feature variance constant, so an angle near pi/2
    makes raw cross-modal matching near chance while the shared latent
    stays fully recoverable.
    """
    rng = np.random.default_rng(_BASE_GEOMETRY_SEED)
    shape = (spec.feature_dim, spec.latent_dim)
    scale = 1.0 / np.sqrt(spec.latent_dim)
    a_base = rng.normal(size=shape) * scale
    a_shift_dir = rng.normal(size=shape) * scale
    a_gap_dir = rng.normal(size=shape) * scale
    b_base = 0.1 * rng.normal(size=spec.feature_dim)
    u_shift = rng.normal(size=spec.feature_dim)
    u_shift /= np.linalg.norm(u_shift)
    u_gap = rng.normal(size=spec.feature_dim)
    u_gap /= np.linalg.norm(u_gap)

    a_task = np.cos(spec.task_shift) * a_base + np.sin(spec.task_shift) * a_shift_dir
    b_task = b_base + spec.task_shift * u_shift
    a_photo, b_photo = a_task, b_task
    a_sketch = np.cos(spec.modality_gap) * a_task + np.sin(spec.modality_gap) * a_gap_dir
    b_sketch = b_task + spec.modality_gap * u_gap
    return (a_photo, b_photo), (a_sketch, b_sketch)


def generate_synthetic_task(spec: SynthSpec) -> TaskDataset:
    """Render a full task; deterministic in (spec, seed), fixed RNG order.

    The latents come first, then the noise: per identity, in identity order,
    its sketches' noise, then its photos'.  The first num_train_ids
    identities go to train (sketches first), a test identity's sketches to
    query and its photos to gallery.  The train identities' noise is drawn
    straight into the train split's own buffer and the test identities'
    into one block that query and gallery copy their rows from; two
    consecutive draws give the stream of one draw of their total size.
    Each buffer's noise is scaled and each identity's two centres, a @ z + b,
    are added in place.
    """
    (a_p, b_p), (a_s, b_s) = _modality_transforms(spec)
    rng = np.random.default_rng(spec.seed)
    n_train, n_test = spec.num_train_ids, spec.num_test_ids
    n_sk, n_ph, dim = spec.sketches_per_id, spec.photos_per_id, spec.feature_dim
    latents = rng.normal(size=(n_train + n_test, spec.latent_dim))

    def rendered(z: np.ndarray) -> np.ndarray:
        # (identity, row, dim): the same stream as one (rows, dim) draw per
        # identity and modality; a stack of (dim, latent) @ (latent, 1)
        # products gives each identity's a @ z as a matrix-vector product, the
        # bits of a @ z[k] whatever the stack's length
        feats = rng.normal(size=(len(z), n_sk + n_ph, dim))
        feats *= spec.noise_sigma
        feats[:, :n_sk] += (np.matmul(a_s, z[:, :, None])[..., 0] + b_s)[:, None]
        feats[:, n_sk:] += (np.matmul(a_p, z[:, :, None])[..., 0] + b_p)[:, None]
        return feats

    def split(feats: np.ndarray, ids: np.ndarray, sketch: np.ndarray) -> Split:
        # feats is (identities, rows per identity, dim), owned by the split;
        # sketch flags one identity's rows
        return Split(feats.reshape(-1, dim), np.repeat(ids, len(sketch)), np.tile(sketch, ids.size))

    ids = spec.task_id * ID_STRIDE + np.arange(n_train + n_test)
    sketch = np.arange(n_sk + n_ph) < n_sk
    train = split(rendered(latents[:n_train]), ids[:n_train], sketch)
    test = rendered(latents[n_train:])
    return TaskDataset(
        spec.task_id,
        train=train,
        # copies, so neither split keeps the test block alive
        query=split(test[:, :n_sk].copy(), ids[n_train:], sketch[:n_sk]),
        gallery=split(test[:, n_sk:].copy(), ids[n_train:], sketch[n_sk:]),
    ).validate()


# ---------------------------------------------------------------------------
# task files: one JSON object per line, floats at 17 significant digits


def json_numbers(values) -> np.ndarray:
    """A parsed JSON array as float64, refusing strings and booleans in it.

    np.asarray would read "1.5" as 1.5 and true as 1.0; JSON keeps numbers,
    strings and booleans apart, and so does a task or score file.  An integer
    beyond the float64 range is a ValueError too, not numpy's OverflowError.
    """
    if isinstance(values, list):
        for v in values:
            if isinstance(v, (str, bool)):
                raise ValueError(f"could not convert {json.dumps(v)} to float: not a JSON number")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as e:
        raise ValueError(f"could not convert to float: {e}") from e


def save_task(dataset: TaskDataset, path: str | Path) -> None:
    lines = []
    for split, rows in dataset.splits():
        columns = zip(rows.ids.tolist(), rows.is_sketch.tolist(), rows.features.tolist())
        for identity, sketch, feats in columns:
            modality = MODALITIES[0] if sketch else MODALITIES[1]
            text = ",".join(format(v, ".17g") for v in feats)
            lines.append(
                f'{{"task":{dataset.task_id},"id":{identity},"modality":"{modality}",'
                f'"split":"{split}","features":[{text}]}}'
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_task(path: str | Path) -> TaskDataset:
    """Parse and validate a task file; parse errors carry the line number."""
    rows: dict[str, tuple[list, list, list]] = {split: ([], [], []) for split in SPLITS}
    task_ids = set()
    dims = set()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as e:
            raise TaskFileError(lineno, f"invalid JSON ({e.msg})") from e
        if not isinstance(row, dict):
            raise TaskFileError(lineno, "row is not an object")
        try:
            task, identity = row["task"], row["id"]
            modality = row["modality"]
            split = row["split"]
            features = json_numbers(row["features"])
        except (KeyError, TypeError, ValueError) as e:
            raise TaskFileError(lineno, f"missing or malformed field ({e})") from e
        for key, value in (("task", task), ("id", identity)):
            if type(value) is not int:  # bool is an int subclass, and int() would truncate
                raise TaskFileError(lineno, f"{key} must be an integer, got {value!r}")
            if not _INT64.min <= value <= _INT64.max:
                raise TaskFileError(lineno, f"{key} {value} does not fit a 64-bit integer")
        if modality not in MODALITIES:
            raise TaskFileError(lineno, f"unknown modality {modality!r}")
        if split not in SPLITS:
            raise TaskFileError(lineno, f"unknown split {split!r}")
        if features.ndim != 1 or features.size == 0:
            raise TaskFileError(lineno, "features must be a non-empty flat list")
        task_ids.add(task)
        dims.add(features.shape)
        ids, sketch, feats = rows[split]
        ids.append(identity)
        sketch.append(modality == "sketch")
        feats.append(features)
    if not task_ids:
        raise DatasetValidationError("empty-task: file contains no samples")
    if len(task_ids) != 1:
        raise DatasetValidationError(f"single-task-file: found task ids {sorted(task_ids)}")
    if len(dims) != 1:
        raise DatasetValidationError(f"feature-dim-constant: found dims {sorted(dims)}")
    (dim,) = dims.pop()
    train, query, gallery = (_split_of(*rows[split], dim) for split in SPLITS)
    return TaskDataset(task_id=task_ids.pop(), train=train, query=query, gallery=gallery).validate()


# ---------------------------------------------------------------------------
# PK batch sampling


def _choice_loop(rng: np.random.Generator, sizes: np.ndarray, k: int) -> np.ndarray:
    return np.stack([rng.choice(n, size=k, replace=n < k) for n in sizes.tolist()])


def _choice_rows(rng: np.random.Generator, sizes: np.ndarray, k: int) -> np.ndarray:
    """``np.stack([rng.choice(n, size=k, replace=n < k) for n in sizes])`` from one raw draw.

    For n <= 10_000, numpy's choice without replacement is Floyd's algorithm
    (bounded draws of bounds n-k .. n-1, a value already picked replaced by
    its step's bound) and then a shuffle of the k picks (bounds k-1 .. 1);
    with replacement it is k draws of bound n-1.  Each draw of a bound b > 0
    takes one 32-bit value u from ``next_uint32`` -- the buffered high half
    of the last 64-bit word, else the low half of a new word, whose high half
    it buffers -- and returns (u (b+1)) >> 32, Lemire's method; b = 0 takes
    none.  So every draw of the epoch is known before any is made, and one
    ``random_raw`` call gives them the bits, and leaves the generator, as the
    calls would.  A Lemire rejection (about one epoch in a million), a
    larger identity (numpy shuffles a tail instead), or a bit generator with
    no 32-bit buffer (MT19937) takes the calls themselves.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    if "has_uint32" not in saved or sizes.max() > 10_000:
        return _choice_loop(rng, sizes, k)
    replace = sizes < k
    # per identity, in draw order: k Floyd bounds and k-1 shuffle bounds, or
    # with replacement k bounds n-1 and k-1 empty ones
    steps = np.arange(k - 1, -k, -1)
    bounds = np.where(steps >= 0, sizes[:, None] - 1 - steps, steps + k)
    bounds[replace] = np.where(steps >= 0, sizes[replace, None] - 1, 0)
    drawn = bounds > 0
    count = int(np.count_nonzero(drawn))
    buffered = saved["has_uint32"] if count else 0
    raw = bitgen.random_raw((count - buffered + 1) // 2)
    # next_uint32's order, each word split by arithmetic so byte order cannot
    # matter; int64 // and %, not bitwise ops, whose loops nothing else in a
    # run uses: they would map 128 KiB more of numpy's library into memory
    words = raw.view(np.int64)
    u32 = np.empty(buffered + 2 * raw.size, dtype=np.int64)
    u32[:buffered] = saved["uinteger"]
    u32[buffered::2] = words % 2**32
    u32[buffered + 1 :: 2] = words // 2**32 % 2**32
    span = bounds + 1
    products = np.zeros(bounds.shape, dtype=np.int64)
    products[drawn] = u32[:count]
    products *= span  # below 2**46, as span <= 10_000
    if (products % 2**32 < 2**32 % span).any():
        bitgen.state = saved  # numpy would have drawn again
        return _choice_loop(rng, sizes, k)
    if count:
        state = bitgen.state
        state["has_uint32"] = (count - buffered) % 2
        if raw.size:
            state["uinteger"] = int(raw[-1]) >> 32
        bitgen.state = state
    values = products // 2**32
    # (k, identities): row t holds every identity's t-th pick
    picks = values[:, :k].T.copy()
    for t in range(1, k):
        np.copyto(picks[t], bounds[:, t], where=(picks[:t] == picks[t]).any(axis=0))
    flat, cols = picks.reshape(-1), np.arange(sizes.size)
    for i, d in zip(range(k - 1, 0, -1), values[:, k:].T):
        at = d * sizes.size + cols
        swapped = flat[at]
        flat[at] = picks[i]
        picks[i] = swapped
    np.copyto(picks.T, values[:, :k], where=replace[:, None])
    return picks.T


def pk_epoch_batches(
    train: Split, p: int, k: int, rng: np.random.Generator | int
) -> list[np.ndarray]:
    """Index batches into ``train`` covering every identity once before any repeats.

    Identities are shuffled and chunked into groups of P; a short final
    chunk is padded with identities drawn from the earlier chunks.  Each
    identity then contributes K draws from its own rows, taken in split
    order: without replacement, or with it when it has fewer than K rows.
    The draws equal one ``rng.choice(rows, K, replace=rows < K)`` call per
    identity in chunk order, bit for bit, generator state included; they
    come from one raw draw for the epoch, with those calls as the fallback.
    """
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    order = np.argsort(train.ids, kind="stable")
    _, starts, counts = np.unique(train.ids[order], return_index=True, return_counts=True)
    if starts.size < p:
        raise ValueError(f"need at least {p} identities, train split has {starts.size}")
    perm = rng.permutation(starts.size)
    short = perm.size % p
    if short:
        seen = perm[: perm.size - short]
        pad = rng.choice(seen.size, size=p - short, replace=False)
        perm = np.concatenate([perm, seen[pad]])
    rows = order[starts[perm, None] + _choice_rows(rng, counts[perm], k)]
    return list(rows.reshape(-1, p * k))
