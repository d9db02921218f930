"""Synthetic cross-modal tasks, task-file I/O, and PK batch sampling.

A synthetic task draws one latent per identity and renders it into feature
space twice: once through the photo transform and once through the sketch
transform.  The two transforms share a base geometry (a fixed function of
the dimensions); ``task_shift`` rotates the base relative to task 0 and
``modality_gap`` rotates/offsets the sketch side relative to the photo
side, so gap 0 with zero noise makes both modalities coincide exactly.

Identity labels are offset by a large per-task stride, keeping identity
spaces of different tasks disjoint by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ID_STRIDE = 1_000_000
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


@dataclass
class Sample:
    identity: int
    modality: str
    features: np.ndarray
    split: str


@dataclass
class TaskDataset:
    task_id: int
    train: list[Sample]
    query: list[Sample]
    gallery: list[Sample]

    @property
    def train_identities(self) -> set[int]:
        return {s.identity for s in self.train}

    @property
    def test_identities(self) -> set[int]:
        return {s.identity for s in self.query} | {s.identity for s in self.gallery}

    @property
    def feature_dim(self) -> int:
        return int(self.all_samples()[0].features.shape[0])

    def all_samples(self) -> list[Sample]:
        return [*self.train, *self.query, *self.gallery]

    def validate(self) -> "TaskDataset":
        samples = self.all_samples()
        if not samples:
            raise DatasetValidationError("empty-task: task has no samples")
        dims = {s.features.shape for s in samples}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise DatasetValidationError(f"feature-dim-constant: found dims {sorted(dims)}")
        overlap = self.train_identities & self.test_identities
        if overlap:
            raise DatasetValidationError(
                f"train-test-disjoint: identities {sorted(overlap)[:5]} appear in both splits"
            )
        gallery_ids = {s.identity for s in self.gallery}
        missing = {s.identity for s in self.query} - gallery_ids
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
    num_aux_ids: int = 0
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
        if self.num_aux_ids < 0:
            raise SynthSpecError(f"num_aux_ids must be >= 0, got {self.num_aux_ids}")
        if self.noise_sigma < 0:
            raise SynthSpecError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.task_id < 0:
            raise SynthSpecError(f"task_id must be >= 0, got {self.task_id}")
        total = self.num_train_ids + self.num_test_ids + self.num_aux_ids
        if total > ID_STRIDE:
            raise SynthSpecError(f"too many identities for one task: {total}")


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
    """Render a full task; deterministic in (spec, seed), fixed RNG order."""
    (a_p, b_p), (a_s, b_s) = _modality_transforms(spec)
    rng = np.random.default_rng(spec.seed)
    n_train, n_test, n_aux = spec.num_train_ids, spec.num_test_ids, spec.num_aux_ids
    n_total = n_train + n_test + n_aux
    latents = rng.normal(size=(n_total, spec.latent_dim))

    train: list[Sample] = []
    query: list[Sample] = []
    gallery: list[Sample] = []
    for k in range(n_total):
        identity = spec.task_id * ID_STRIDE + k
        is_test = n_train <= k < n_train + n_test
        z = latents[k]
        for _ in range(spec.sketches_per_id):
            noise = spec.noise_sigma * rng.normal(size=spec.feature_dim)
            feats = a_s @ z + b_s + noise
            split = "query" if is_test else "train"
            (query if is_test else train).append(Sample(identity, "sketch", feats, split))
        for _ in range(spec.photos_per_id):
            noise = spec.noise_sigma * rng.normal(size=spec.feature_dim)
            feats = a_p @ z + b_p + noise
            split = "gallery" if is_test else "train"
            (gallery if is_test else train).append(Sample(identity, "photo", feats, split))
    return TaskDataset(task_id=spec.task_id, train=train, query=query, gallery=gallery).validate()


# ---------------------------------------------------------------------------
# task files: one JSON object per line, floats at 17 significant digits


def _format_row(task_id: int, s: Sample) -> str:
    feats = ",".join(format(float(v), ".17g") for v in s.features)
    return (
        f'{{"task":{task_id},"id":{s.identity},"modality":"{s.modality}",'
        f'"split":"{s.split}","features":[{feats}]}}'
    )


def save_task(dataset: TaskDataset, path: str | Path) -> None:
    lines = [_format_row(dataset.task_id, s) for s in dataset.all_samples()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_task(path: str | Path) -> TaskDataset:
    """Parse and validate a task file; parse errors carry the line number."""
    train: list[Sample] = []
    query: list[Sample] = []
    gallery: list[Sample] = []
    task_ids = set()
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
            task = int(row["task"])
            identity = int(row["id"])
            modality = row["modality"]
            split = row["split"]
            features = np.asarray(row["features"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as e:
            raise TaskFileError(lineno, f"missing or malformed field ({e})") from e
        if modality not in MODALITIES:
            raise TaskFileError(lineno, f"unknown modality {modality!r}")
        if split not in SPLITS:
            raise TaskFileError(lineno, f"unknown split {split!r}")
        if features.ndim != 1 or features.size == 0:
            raise TaskFileError(lineno, "features must be a non-empty flat list")
        task_ids.add(task)
        sample = Sample(identity, modality, features, split)
        {"train": train, "query": query, "gallery": gallery}[split].append(sample)
    if not task_ids:
        raise DatasetValidationError("empty-task: file contains no samples")
    if len(task_ids) != 1:
        raise DatasetValidationError(f"single-task-file: found task ids {sorted(task_ids)}")
    return TaskDataset(task_id=task_ids.pop(), train=train, query=query, gallery=gallery).validate()


# ---------------------------------------------------------------------------
# PK batch sampling


def identity_index_map(samples: list[Sample]) -> dict[int, int]:
    """Global identity -> dense row index, sorted ascending for determinism."""
    return {identity: i for i, identity in enumerate(sorted({s.identity for s in samples}))}


def _by_identity(samples: list[Sample]) -> dict[int, list[Sample]]:
    groups: dict[int, list[Sample]] = {}
    for s in samples:
        groups.setdefault(s.identity, []).append(s)
    return {i: groups[i] for i in sorted(groups)}


def _draw_k(pool: list[Sample], k: int, rng: np.random.Generator) -> list[Sample]:
    if len(pool) >= k:
        idx = rng.choice(len(pool), size=k, replace=False)
    else:
        idx = rng.choice(len(pool), size=k, replace=True)
    return [pool[int(i)] for i in idx]


def pk_epoch_batches(
    train: list[Sample], p: int, k: int, rng: np.random.Generator | int
) -> list[list[Sample]]:
    """Batches covering every identity once before any identity repeats.

    Identities are shuffled and chunked into groups of P; a short final
    chunk is padded with identities drawn from the earlier chunks.
    """
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    groups = _by_identity(train)
    ids = list(groups)
    if len(ids) < p:
        raise ValueError(f"need at least {p} identities, train split has {len(ids)}")
    order = [ids[int(i)] for i in rng.permutation(len(ids))]
    chunks = [order[i : i + p] for i in range(0, len(order), p)]
    if len(chunks[-1]) < p:
        seen = order[: len(order) - len(chunks[-1])]
        pad = rng.choice(len(seen), size=p - len(chunks[-1]), replace=False)
        chunks[-1] = chunks[-1] + [seen[int(i)] for i in pad]
    batches = []
    for chunk in chunks:
        batch: list[Sample] = []
        for identity in chunk:
            batch.extend(_draw_k(groups[identity], k, rng))
        batches.append(batch)
    return batches


def features_of(samples: list[Sample]) -> np.ndarray:
    return np.stack([s.features for s in samples])


def labels_of(samples: list[Sample]) -> np.ndarray:
    return np.array([s.identity for s in samples], dtype=np.int64)
