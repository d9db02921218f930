#!/usr/bin/env python3
"""Filling the replay banks from a trained task and drawing one replay epoch."""

import numpy as np

from xmcl import (
    CpConfig,
    EncoderConfig,
    ReplayBanks,
    SynthSpec,
    generate_synthetic_task,
    ingest_task,
    init_encoder,
    register_task_head,
    replay_epoch_batches,
    score_task,
)

spec = SynthSpec(
    task_id=0,
    latent_dim=8,
    feature_dim=32,
    num_train_ids=10,
    num_test_ids=4,
    modality_gap=1.2,
    noise_sigma=0.15,
    seed=3,
)
task = generate_synthetic_task(spec)
state = init_encoder(EncoderConfig(input_dim=32, hidden_dims=(32, 32), embedding_dim=16, seed=0))
register_task_head(state, 0, 10, seed=1)

print("=== scoring the finished task ===")
uncs = score_task(state, task, CpConfig())
print(f"{uncs.size} training samples scored; unc range [{uncs.min():.2f}, {uncs.max():.2f}]")

banks = ingest_task(ReplayBanks(), state, task, CpConfig())
sketches = np.count_nonzero(banks.rows.is_sketch)
print(f"sketch bank: {sketches} identities, photo bank: {len(banks.rows) - sketches}")
one = int(banks.rows.ids[0])
offered = uncs[(task.train.ids == one) & task.train.is_sketch]
print(f"identity {one}: stored sketch unc = {banks.uncs[0]:.3f}, "
      f"the minimum of the {offered.size} offered ({offered.min():.3f})")

print()
print("=== one replay epoch ===")
# the sampler returns row indices into the banks; a batch is one gather
epoch = replay_epoch_batches(banks, p=4, k=4, rng=np.random.default_rng(0), task_id=0)
for rows in epoch:
    batch = banks.rows[rows]
    print(f"{len(batch)} samples, identities {sorted(set(batch.ids.tolist()))}")
print(f"P=4, K=4 over {np.unique(banks.rows.ids).size} banked identities -> {len(epoch)} batches")
modalities = ["sketch" if s else "photo" for s in banks.rows.is_sketch[epoch[0][:4]]]
print(f"one identity's K samples tile its stored pair: {modalities}")

again = replay_epoch_batches(banks, p=4, k=4, rng=np.random.default_rng(0), task_id=0)
print("same seed -> same epoch:", all(np.array_equal(a, b) for a, b in zip(epoch, again)))
