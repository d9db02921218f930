#!/usr/bin/env python3
"""Filling the replay banks from a trained task and drawing one replay epoch."""

import numpy as np

from xmcl import (
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
scored = score_task(state, task)
uncs = np.array([u for _, u in scored])
print(f"{len(scored)} training samples scored; unc range [{uncs.min():.2f}, {uncs.max():.2f}]")

banks = ingest_task(ReplayBanks(), state, task)
print(f"sketch bank: {len(banks.sketch)} identities, photo bank: {len(banks.photo)}")
one = next(iter(banks.sketch))
print(f"identity {one}: stored sketch unc = {banks.sketch[one].uncertainty:.3f} "
      "(the minimum over everything offered for that slot)")

print()
print("=== one replay epoch ===")
epoch = replay_epoch_batches(banks, p=4, k=4, rng=0)
for batch in epoch:
    print(f"{len(batch)} samples, identities {sorted(set(batch.ids.tolist()))}")
print(f"P=4, K=4 over {len(banks.identities())} banked identities -> {len(epoch)} batches")
modalities = ["sketch" if s else "photo" for s in epoch[0].is_sketch[:4]]
print(f"one identity's K samples tile its stored pair: {modalities}")

again = replay_epoch_batches(banks, p=4, k=4, rng=0)
print("same seed -> same epoch:",
      all(np.array_equal(a.features, b.features) for a, b in zip(epoch, again)))
