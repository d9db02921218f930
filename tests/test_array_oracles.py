"""The array-backed data path against the list-of-Sample code it replaced.

The oracles below are the earlier implementations, kept verbatim in
substance: synthetic generation one sample at a time, task files written
from Sample lists, the PK and replay samplers over Sample lists, and the
replay banks as two dicts filled by one update per offered row.  The array
versions must give the same samples in the same order, draw the same random
numbers, keep the same bank rows, and write the same bytes.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest

import xmcl.data
from xmcl.banks import ReplayBanks, admit, replay_epoch_batches
from xmcl.data import (
    ID_STRIDE,
    Split,
    SynthSpec,
    _choice_rows,
    _modality_transforms,
    generate_synthetic_task,
    identity_groups,
    load_task,
    pk_epoch_batches,
    save_task,
)

# ---------------------------------------------------------------------------
# oracles


@dataclass
class Sample:
    """One sample as the list-of-samples data model held it."""

    identity: int
    modality: str
    features: np.ndarray


@dataclass(frozen=True)
class BankEntry:
    sample: Sample
    uncertainty: float
    task_id: int


@dataclass
class OracleBanks:
    """The replay banks as one dict of entries per modality."""

    sketch: dict[int, BankEntry] = field(default_factory=dict)
    photo: dict[int, BankEntry] = field(default_factory=dict)

    def identities(self, task_id: int) -> list[int]:
        return sorted(
            i
            for i in set(self.sketch) | set(self.photo)
            if (i in self.sketch and self.sketch[i].task_id == task_id)
            or (i in self.photo and self.photo[i].task_id == task_id)
        )


def update_bank(banks: OracleBanks, sample: Sample, unc: float, task_id: int) -> OracleBanks:
    """Offer one candidate; admit it if its slot is empty or strictly better."""
    if unc <= 0.0:
        return banks
    bank = banks.sketch if sample.modality == "sketch" else banks.photo
    incumbent = bank.get(sample.identity)
    if incumbent is None or unc < incumbent.uncertainty:
        bank[sample.identity] = BankEntry(sample=sample, uncertainty=unc, task_id=task_id)
    return banks


class Row(NamedTuple):
    """A sample of a task split as the list-of-samples data model held it."""

    identity: int
    modality: str
    features: np.ndarray
    split: str


def generate_oracle(spec: SynthSpec) -> dict[str, list[Row]]:
    (a_p, b_p), (a_s, b_s) = _modality_transforms(spec)
    rng = np.random.default_rng(spec.seed)
    n_train, n_test = spec.num_train_ids, spec.num_test_ids
    n_total = n_train + n_test
    latents = rng.normal(size=(n_total, spec.latent_dim))
    splits: dict[str, list[Row]] = {"train": [], "query": [], "gallery": []}
    for k in range(n_total):
        identity = spec.task_id * ID_STRIDE + k
        is_test = n_train <= k < n_train + n_test
        z = latents[k]
        for _ in range(spec.sketches_per_id):
            noise = spec.noise_sigma * rng.normal(size=spec.feature_dim)
            split = "query" if is_test else "train"
            splits[split].append(Row(identity, "sketch", a_s @ z + b_s + noise, split))
        for _ in range(spec.photos_per_id):
            noise = spec.noise_sigma * rng.normal(size=spec.feature_dim)
            split = "gallery" if is_test else "train"
            splits[split].append(Row(identity, "photo", a_p @ z + b_p + noise, split))
    return splits


def save_oracle(task_id: int, samples: list[Row]) -> bytes:
    lines = []
    for s in samples:
        feats = ",".join(format(float(v), ".17g") for v in s.features)
        lines.append(
            f'{{"task":{task_id},"id":{s.identity},"modality":"{s.modality}",'
            f'"split":"{s.split}","features":[{feats}]}}'
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def pk_oracle(train: list[Sample], p: int, k: int, rng: np.random.Generator) -> list[list[Sample]]:
    groups: dict[int, list[Sample]] = {}
    for s in train:
        groups.setdefault(s.identity, []).append(s)
    groups = {i: groups[i] for i in sorted(groups)}
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
            pool = groups[identity]
            idx = rng.choice(len(pool), size=k, replace=len(pool) < k)
            batch.extend(pool[int(i)] for i in idx)
        batches.append(batch)
    return batches


def replay_oracle(banks: OracleBanks, p: int, k: int, rng: np.random.Generator, task_id: int):
    ids = banks.identities(task_id)
    order = [ids[int(i)] for i in rng.permutation(len(ids))]
    chunks = [order[i : i + p] for i in range(0, len(order), p)] or [order]
    batches = []
    for chunk in chunks:
        batch: list[Sample] = []
        for identity in chunk:
            pool = []
            if identity in banks.sketch:
                pool.append(banks.sketch[identity].sample)
            if identity in banks.photo:
                pool.append(banks.photo[identity].sample)
            batch.extend(pool[j % len(pool)] for j in range(k))
        batches.append(batch)
    return batches


def rows_of(samples: list[Sample]) -> list[tuple]:
    return [(s.identity, s.modality == "sketch", s.features.tobytes()) for s in samples]


def rows_of_split(split: Split) -> list[tuple]:
    return [
        (i, sketch, f.tobytes())
        for i, sketch, f in zip(split.ids.tolist(), split.is_sketch.tolist(), split.features)
    ]


def split_of(samples: list[Sample]) -> Split:
    return Split(
        np.array([s.features for s in samples]),
        np.array([s.identity for s in samples], dtype=np.int64),
        np.array([s.modality == "sketch" for s in samples]),
    )


# ---------------------------------------------------------------------------
# synthetic tasks and task files

SPECS = [
    SynthSpec(task_id=0, latent_dim=4, feature_dim=8, num_train_ids=10, num_test_ids=5,
              sketches_per_id=2, photos_per_id=3, modality_gap=0.4, noise_sigma=0.05, seed=7),
    SynthSpec(task_id=2, latent_dim=16, feature_dim=64, num_train_ids=50, num_test_ids=20,
              modality_gap=1.45, task_shift=1.57, noise_sigma=0.2, seed=123456789),
    SynthSpec(task_id=1, latent_dim=3, feature_dim=5, num_train_ids=4, num_test_ids=3,
              sketches_per_id=1, photos_per_id=4, seed=3),
    SynthSpec(task_id=0, latent_dim=4, feature_dim=8, num_train_ids=4, num_test_ids=2,
              modality_gap=0.0, noise_sigma=0.0, seed=3),
]


@pytest.mark.parametrize("spec", SPECS)
def test_synthetic_features_equal_per_sample_generation(spec):
    task = generate_synthetic_task(spec)
    oracle = generate_oracle(spec)
    for name, split in task.splits():
        expected = oracle[name]
        assert split.ids.tolist() == [s.identity for s in expected]
        assert split.is_sketch.tolist() == [s.modality == "sketch" for s in expected]
        assert np.array_equal(split.features, np.array([s.features for s in expected]))
        # a split keeps only its own rows alive, not the task's whole noise block
        owner = split.features if split.features.base is None else split.features.base
        assert owner.nbytes == split.features.nbytes


@pytest.mark.parametrize("spec", SPECS)
def test_save_task_bytes_equal_sample_rows(spec, tmp_path):
    task = generate_synthetic_task(spec)
    oracle = generate_oracle(spec)
    expected = save_oracle(spec.task_id, [*oracle["train"], *oracle["query"], *oracle["gallery"]])
    path = tmp_path / "task.jsonl"
    save_task(task, path)
    assert path.read_bytes() == expected
    again = tmp_path / "again.jsonl"
    save_task(load_task(path), again)
    assert again.read_bytes() == expected


# ---------------------------------------------------------------------------
# PK epochs


def random_train(rng: np.random.Generator, num_ids: int, k: int) -> list[Sample]:
    """Identities with 1..k+2 rows each (some below k), rows shuffled across identities."""
    samples = []
    for identity in rng.choice(10_000, size=num_ids, replace=False).tolist():
        for _ in range(int(rng.integers(1, k + 3))):
            modality = "sketch" if rng.random() < 0.5 else "photo"
            samples.append(Sample(identity, modality, rng.normal(size=3)))
    return [samples[i] for i in rng.permutation(len(samples))]


# the raw-bits path serves the generators whose state buffers a 32-bit half:
# PCG64, which every generator of a run is, and these others of numpy's
BIT_GENERATORS = ["PCG64", "PCG64DXSM", "SFC64", "Philox"]


def generator(bit_generator: str, seed: int) -> np.random.Generator:
    return np.random.Generator(getattr(np.random, bit_generator)(seed))


def generator_state(rng: np.random.Generator) -> dict:
    """The bit generator's state as plain values, its buffered half only while it holds one."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    state = plain(rng.bit_generator.state)
    if state.get("has_uint32") == 0:
        del state["uinteger"]
    return state


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("block", range(4))
def test_pk_index_batches_equal_sample_batches(block, bit_generator):
    for seed in range(block * 60, block * 60 + 60):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        # seed % 3 == 0: p divides the identity count; otherwise the last chunk pads
        num_ids = p * int(rng.integers(1, 4)) + (0 if seed % 3 == 0 else int(rng.integers(1, p)))
        samples = random_train(rng, num_ids, k)
        train = split_of(samples)
        a, b = generator(bit_generator, seed), generator(bit_generator, seed)
        if seed % 2:
            # choice(5, 3) takes five 32-bit values, so the epoch starts on a buffered half
            a.choice(5, 3, replace=False)
            b.choice(5, 3, replace=False)
        expected = pk_oracle(samples, p, k, a)
        got = pk_epoch_batches(identity_groups(train), p, k, b)
        assert len(got) == len(expected)
        for rows, batch in zip(got, expected):
            assert rows.dtype == np.int64
            assert rows_of_split(train[rows]) == rows_of(batch)
        assert generator_state(a) == generator_state(b)


def choice_calls(rng: np.random.Generator, sizes: list[int], k: int) -> np.ndarray:
    return np.stack([rng.choice(n, size=k, replace=n < k) for n in sizes])


@pytest.fixture
def fallbacks(monkeypatch) -> list:
    """The calls that take the per-identity path, recorded as they run."""
    calls = []
    loop = xmcl.data._choice_loop
    monkeypatch.setattr(xmcl.data, "_choice_loop", lambda *args: calls.append(args) or loop(*args))
    return calls


@pytest.mark.parametrize(
    "bit_generator, sizes, k, raw",
    [
        ("PCG64", [8, 3, 1, 5, 4], 4, True),
        ("Philox", [1, 1], 1, True),  # no bound above 0: nothing is drawn
        ("PCG64", [10_000, 5], 201, True),
        ("PCG64", [10_001, 5], 201, False),  # numpy shuffles a tail of this population
    ],
)
def test_choice_rows_equal_the_choice_calls(fallbacks, bit_generator, sizes, k, raw):
    a, b = generator(bit_generator, 7), generator(bit_generator, 7)
    assert _choice_rows(b, np.array(sizes), k).tolist() == choice_calls(a, sizes, k).tolist()
    assert generator_state(a) == generator_state(b)
    assert len(fallbacks) == (0 if raw else 1)


# PCG64 steps its 128-bit state s to s M + inc (mod 2**128), then outputs the
# high and low 64-bit halves of the new state xor-ed and rotated
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_word_pcg64(h: int) -> np.random.Generator:
    """A PCG64 generator whose next 64-bit word is 0: its next state has two halves h."""
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (((h << 64) | h) - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bitgen.state = state
    return np.random.Generator(bitgen)


def test_a_lemire_rejection_takes_the_choice_calls(fallbacks):
    assert zero_word_pcg64(12345).bit_generator.random_raw(1).tolist() == [0]
    # Floyd's first bound for 8 rows and k = 4 is 4: u = 0 leaves (0 * 5) mod
    # 2**32 = 0 below 2**32 mod 5 = 1, so numpy rejects it and draws again
    a, b = zero_word_pcg64(12345), zero_word_pcg64(12345)
    expected = a.choice(8, size=4, replace=False)
    assert _choice_rows(b, np.array([8]), 4).tolist() == [expected.tolist()] == [[7, 6, 2, 3]]
    assert len(fallbacks) == 1
    assert generator_state(a) == generator_state(b)


def test_pk_covers_the_replace_path_and_even_chunks():
    # an identity with fewer rows than k draws with replacement
    samples = [Sample(5, "sketch", np.zeros(2))]
    samples += [Sample(i, "photo", np.full(2, float(j))) for i in (1, 9) for j in range(4)]
    for seed in range(20):
        expected = pk_oracle(samples, 3, 4, np.random.default_rng(seed))
        groups = identity_groups(split_of(samples))
        got = pk_epoch_batches(groups, 3, 4, np.random.default_rng(seed))
        assert [rows_of_split(split_of(samples)[r]) for r in got] == [rows_of(b) for b in expected]
        assert len(got) == 1


# ---------------------------------------------------------------------------
# bank admission


def offer_both(oracle: OracleBanks, banks: ReplayBanks, samples, uncs, task_id: int) -> None:
    """One task's candidates: row by row to the oracle, as one set to admit."""
    for sample, unc in zip(samples, uncs):
        update_bank(oracle, sample, unc, task_id)
    rows = split_of(samples) if samples else Split(np.empty((0, 3)), np.empty(0, np.int64), np.empty(0, bool))
    admit(banks, rows, np.array(uncs, dtype=np.float64), task_id)


def bank_rows(oracle: OracleBanks) -> list[tuple]:
    """Every stored entry by identity, sketch before photo, as the arrays hold them."""
    entries = [*oracle.sketch.values(), *oracle.photo.values()]
    entries.sort(key=lambda e: (e.sample.identity, e.sample.modality != "sketch"))
    return [(*rows_of([e.sample])[0], e.uncertainty, e.task_id) for e in entries]


def array_bank_rows(banks: ReplayBanks) -> list[tuple]:
    return [
        (*row, unc, task)
        for row, unc, task in zip(rows_of_split(banks.rows), banks.uncs.tolist(), banks.tasks.tolist())
    ]


# uncertainties drawn from a small set tie often; 0 is an empty prediction set
UNC_CHOICES = np.array([0.0, 1.5, 2.0, 2.0, 23.25, 23.5])


def random_offers(rng: np.random.Generator):
    """(task id, samples, uncertainties) per ingest, for a few ingests.

    Each identity offers sketches only, photos only, or both; some ingests
    repeat the previous one exactly, and task ids repeat across ingests.
    """
    kinds = [("sketch",), ("photo",), ("sketch", "photo")]
    pool = {
        identity: kinds[int(rng.integers(0, 3))]
        for identity in rng.choice(1000, size=int(rng.integers(1, 12)), replace=False).tolist()
    }
    ingests = []
    for _ in range(int(rng.integers(1, 5))):
        if ingests and rng.random() < 0.25:
            ingests.append(ingests[-1])
            continue
        samples = []
        for identity in rng.choice(list(pool), size=int(rng.integers(0, 20))).tolist():
            modality = pool[identity][int(rng.integers(0, len(pool[identity])))]
            samples.append(Sample(identity, modality, rng.normal(size=3)))
        if rng.random() < 0.5:
            uncs = rng.choice(UNC_CHOICES, size=len(samples)).tolist()
        else:
            uncs = rng.uniform(0.5, 30.0, size=len(samples)).tolist()
        ingests.append((int(rng.integers(0, 3)), samples, uncs))
    return ingests


@pytest.mark.parametrize("block", range(4))
def test_admission_equals_per_row_updates(block):
    for seed in range(block * 60, block * 60 + 60):
        rng = np.random.default_rng(seed)
        oracle, banks = OracleBanks(), ReplayBanks()
        for task_id, samples, uncs in random_offers(rng):
            offer_both(oracle, banks, samples, uncs, task_id)
            assert array_bank_rows(banks) == bank_rows(oracle)
        assert banks.task_ids() == sorted({e.task_id for e in (*oracle.sketch.values(), *oracle.photo.values())})


def test_admission_covers_ties_zeros_and_repeats():
    seen = {"tie": 0, "zero": 0, "repeat": 0, "one modality": 0, "tasks": 0}
    for seed in range(240):
        ingests = random_offers(np.random.default_rng(seed))
        offered = [(s.identity, s.modality, u) for _, samples, uncs in ingests for s, u in zip(samples, uncs)]
        seen["tie"] += len(offered) > len(set(offered))
        seen["zero"] += any(u == 0.0 for *_, u in offered)
        seen["repeat"] += any(a is b for a, b in zip(ingests, ingests[1:]))
        seen["one modality"] += len({(i, m) for i, m, _ in offered}) < 2 * len({i for i, _, _ in offered})
        seen["tasks"] += len({task for task, _, _ in ingests}) > 1
    assert min(seen.values()) >= 20, seen


def test_admission_into_empty_banks_of_nothing_or_only_rejects():
    rng = np.random.default_rng(3)
    oracle, banks = OracleBanks(), ReplayBanks()
    offer_both(oracle, banks, [], [], 0)
    assert banks.is_empty() and banks.rows.features.shape == (0, 3)
    rejected = [Sample(int(i), ("sketch", "photo")[i % 2], rng.normal(size=3)) for i in range(6)]
    offer_both(oracle, banks, rejected, [0.0] * 6, 1)
    assert banks.is_empty() and array_bank_rows(banks) == bank_rows(oracle) == []
    assert banks.task_ids() == []


def test_admission_rejecting_every_candidate_keeps_the_banks():
    rng = np.random.default_rng(4)
    oracle, banks = OracleBanks(), ReplayBanks()
    stored = [Sample(i, ("sketch", "photo")[i % 2], rng.normal(size=3)) for i in range(8)]
    offer_both(oracle, banks, stored, rng.uniform(1.0, 5.0, size=8).tolist(), 0)
    before = array_bank_rows(banks)
    # the same identities and modalities, and new ones, all with empty prediction sets
    offers = [Sample(i, ("sketch", "photo")[i % 3 % 2], rng.normal(size=3)) for i in range(12)]
    offer_both(oracle, banks, offers, [0.0] * 12, 1)
    assert array_bank_rows(banks) == before == bank_rows(oracle)
    assert banks.task_ids() == [0]


def test_banks_own_their_features():
    rng = np.random.default_rng(5)
    banks = ReplayBanks()
    first = split_of([Sample(i, "sketch", rng.normal(size=3)) for i in range(4)])
    admit(banks, first, np.full(4, 2.0), 0)
    pairs = [(i, m) for i in range(6) for m in ("sketch", "photo")]
    second = split_of([Sample(i, m, rng.normal(size=3)) for i, m in pairs])
    # lower uncertainties replace every stored sketch; identities 4 and 5 are new
    admit(banks, second, np.full(12, 1.0), 1)
    kept = banks.rows.features.copy()
    assert np.array_equal(kept, second.features)
    for offered in (first, second):
        offered.features[:] = np.nan
        offered.ids[:] = -1
    assert np.array_equal(banks.rows.features, kept)
    assert banks.rows.ids.tolist() == np.repeat(np.arange(6), 2).tolist()


# ---------------------------------------------------------------------------
# replay epochs


def random_banks(rng: np.random.Generator) -> tuple[OracleBanks, ReplayBanks]:
    """Entries of two tasks; some identities hold only a sketch or only a photo.

    An identity's sketch and photo may come from different tasks.
    """
    oracle, banks = OracleBanks(), ReplayBanks()
    for identity in rng.choice(1000, size=int(rng.integers(1, 30)), replace=False).tolist():
        kinds = [("sketch",), ("photo",), ("sketch", "photo")][int(rng.integers(0, 3))]
        for modality in kinds:
            task_id = int(rng.integers(0, 2))
            sample = Sample(identity, modality, rng.normal(size=4))
            offer_both(oracle, banks, [sample], [float(rng.uniform(1, 20))], task_id)
    return oracle, banks


@pytest.mark.parametrize("block", range(4))
def test_replay_array_batches_equal_sample_batches(block):
    for seed in range(block * 60, block * 60 + 60):
        rng = np.random.default_rng(seed)
        oracle, banks = random_banks(rng)
        # p above, equal to, dividing and not dividing the banked identity count
        p = int(rng.integers(1, 12))
        k = int(rng.integers(1, 6))
        task_id = banks.task_ids()[int(rng.integers(0, len(banks.task_ids())))]
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = replay_oracle(oracle, p, k, a, task_id)
        got = replay_epoch_batches(banks, p, k, b, task_id=task_id)
        assert all(rows.dtype == np.int64 for rows in got)
        assert [rows_of_split(banks.rows[rows]) for rows in got] == [
            rows_of(batch) for batch in expected
        ]
        assert a.random() == b.random()


def test_replay_p_dividing_evenly_and_fewer_identities_than_p():
    rng = np.random.default_rng(0)
    oracle, banks = OracleBanks(), ReplayBanks()
    for identity in range(8):
        offer_both(oracle, banks, [Sample(identity, "sketch", rng.normal(size=2))], [2.0], 0)
    for p, count in ((4, 2), (8, 1), (20, 1)):
        expected = replay_oracle(oracle, p, 3, np.random.default_rng(p), 0)
        got = replay_epoch_batches(banks, p, 3, np.random.default_rng(p), task_id=0)
        assert len(got) == count
        assert [rows_of_split(banks.rows[rows]) for rows in got] == [
            rows_of(batch) for batch in expected
        ]
