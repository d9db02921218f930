#!/usr/bin/env python3
"""Conformal prediction sets and the uncertainty score, step by step.

Shows how the rank-penalized score is assembled for a small probability
vector, how raising the threshold grows the prediction set, and why the set
size saturates for diffuse distributions (the probability spread then does
the discriminating).
"""

import numpy as np

from xmcl import CpConfig, prediction_set

pi = np.array([0.6, 0.3, 0.1])
print("pi =", pi)
print("score of the identity at rank j: mass ranked at or above it + lam * max(0, j - k_reg)")
print("here 0.6, 0.9 and 1.0 (no penalty below rank k_reg = 10); raising tau admits each in turn:")
for tau in (0.5, 0.6, 0.9, 1.0):
    ps = prediction_set(pi, CpConfig(tau=tau))
    print(f"  tau={tau:.1f} -> members={ps.members.tolist()}  unc={ps.unc:.2f}")
print()

ps = prediction_set(pi, CpConfig())
print(f"members={ps.members.tolist()}  size={ps.size}  conf={ps.conf:.2f}  unc={ps.unc:.2f}")
print()

print("A sharp distribution admits only the top identity at a tight threshold:")
sharp = np.array([0.9, 0.05, 0.05])
ps = prediction_set(sharp, CpConfig(tau=0.92))
print(f"pi={sharp}, tau=0.92 -> size={ps.size}, unc={ps.unc:.2f}")
print()

print("Uniform over 100 identities: the rank penalty caps the set at 25")
uniform = np.full(100, 0.01)
ps = prediction_set(uniform, CpConfig())
print(f"size={ps.size}, conf={ps.conf:.2f}, unc={ps.unc:.2f}")
print()

print("With many identities the set-size term dominates: sharper is lower-unc")
c = 30
sharp = np.zeros(c)
sharp[0] = 0.97
sharp[1:] = 0.03 / (c - 1)
for name, v in [("near-one-hot", sharp), ("uniform     ", np.full(c, 1 / c))]:
    ps = prediction_set(v, CpConfig())
    print(f"  {name} C={c} -> size={ps.size:>2}  conf={ps.conf:.3f}  unc={ps.unc:.3f}")
print()

print("With few identities the threshold never excludes anyone, so the")
print("probability spread is the only discriminator and flatter wins:")
for name, v in [
    ("near-one-hot", np.array([0.96, 0.02, 0.01, 0.01])),
    ("uniform     ", np.full(4, 0.25)),
]:
    print(f"  {name} C=4  -> unc={prediction_set(v, CpConfig()).unc:.3f}")
print()
print("Lower uncertainty wins a replay-bank slot; exact ties keep the incumbent.")
