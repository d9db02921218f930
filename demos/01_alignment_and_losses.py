#!/usr/bin/env python3
"""What the training objective sees: kernels, alignment, and the loss mix.

Walks through the pieces of the combined objective on tiny hand-sized
arrays, then shows the multi-layer alignment distance shrinking as two
feature clouds are pulled together.
"""

import numpy as np

from xmcl import JmmdSpec, LossBreakdown
from xmcl.losses import cross_entropies_grad, jmmd_with_grad, softmax, triplet_loss_grad

rng = np.random.default_rng(0)


def distance(sketch_layers, photo_layers, spec):
    """The alignment distance: jmmd_with_grad's value on rows stacked sketches first."""
    n_s = len(sketch_layers[0])
    layers = [np.concatenate([s, p]) for s, p in zip(sketch_layers, photo_layers)]
    # each layer's squared-distance matrix over the pooled rows, stacked (L, n, n)
    sq_dists = np.stack([((z[:, None] - z[None]) ** 2).sum(axis=2) for z in layers])
    return jmmd_with_grad(layers, np.arange(len(layers[0])) < n_s, spec, sq_dists)[0]


print("=== Gaussian kernel, seen through the alignment distance ===")
# one sketch x against one photo y: distance = k(x,x) + k(y,y) - 2 k(x,y) = 2 - 2 k(x,y)
x, y = rng.normal(size=(2, 4))
unit = JmmdSpec(bandwidths=[1.0])
print(f"distance(x, x) = {distance([x[None]], [x[None]], unit):.6f}   (identical sets)")
print(f"distance(x, y) = {distance([x[None]], [y[None]], unit):.6f}   -> k(x, y) = "
      f"{1 - distance([x[None]], [y[None]], unit) / 2:.6f}")
print(f"distance(y, x) = {distance([y[None]], [x[None]], unit):.6f}   (symmetric)")

sketches, photos = rng.normal(size=(6, 4)), rng.normal(loc=0.5, size=(6, 4))
print("distance between two 6-vector clouds,")
print(f"  bandwidth from the median heuristic (default): {distance([sketches], [photos], JmmdSpec()):.5f}")
print(f"  fixed bandwidth 1.0:                            {distance([sketches], [photos], unit):.5f}")

print()
print("=== Multi-layer alignment distance ===")
# two clouds per 'layer'; photos fixed, sketches start displaced then approach
photos = [rng.normal(size=(16, 6)), rng.normal(size=(16, 3))]
offset = np.array([3.0, 0, 0, 0, 0, 0])
for t in np.linspace(1.0, 0.0, 5):
    sketches = [photos[0] + t * offset, photos[1] * 1.0]
    value = distance(sketches, photos, JmmdSpec(bandwidths=[1.5, 1.5]))
    print(f"displacement {t:.2f} -> alignment distance {value:.5f}")
print("identical clouds give exactly zero (up to rounding).")

print()
print("=== Loss composition ===")
emb = np.array([[0.0, 0.0], [0.1, 0.0], [2.0, 2.0], [2.1, 2.0]])
labels = np.array([0, 0, 1, 1])
l_tri, _ = triplet_loss_grad(emb, labels, margin=0.3, sq_dists=None)
probs = softmax(np.array([[4.0, 0.0], [3.0, 0.5], [0.0, 4.0], [0.2, 3.0]]))
l_id, _, _ = cross_entropies_grad(probs, labels, smoothing=0.1)
breakdown = LossBreakdown(l_id=l_id, l_tri=l_tri, l_i2tce=0.12, l_jmmd=0.05, alpha=5.0)
print(f"l_id={breakdown.l_id:.4f}  l_tri={breakdown.l_tri:.4f}  l_i2tce={breakdown.l_i2tce:.4f}")
print(f"l_reid = sum of the three = {breakdown.l_reid:.4f}")
print(f"l_sim  = l_reid + alpha * l_jmmd = {breakdown.l_sim:.4f}  (alpha={breakdown.alpha})")
