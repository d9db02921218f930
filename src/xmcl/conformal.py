"""Rank-penalized conformal prediction sets over identity probability vectors.

Given a class probability vector pi, each identity gets a score built from
the cumulative probability of higher-ranked identities, its own probability,
and a penalty that grows linearly once its rank exceeds ``k_reg`` (RAPS,
Angelopoulos et al., ICLR 2021).  The prediction set collects every identity
whose score is at most ``tau``; its size plus the probability spread inside
it is the uncertainty value used to admit samples into the replay banks.

Along the descending ranking the score is the inclusive cumulative sum plus
the penalty, so it never decreases and every prediction set is a prefix of
the ranking.  ``uncertainties`` uses that to score a whole probability
matrix in one sorted pass, with the same bits as ``prediction_set`` per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-6
# rows per sorted block in uncertainties; small blocks keep the sorted and
# summed temporaries well below the forward pass's activations
_ROW_BLOCK = 64


class SimplexError(ValueError):
    """Input vector is not a probability distribution."""


@dataclass(frozen=True)
class CpConfig:
    """Constants of the scoring rule.

    lam penalizes identities ranked below k_reg; tau is the inclusion
    threshold on the resulting score.
    """

    lam: float = 0.3
    k_reg: int = 10
    tau: float = 5.0

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")
        if self.k_reg < 1:
            raise ValueError(f"k_reg must be a positive integer, got {self.k_reg}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")


@dataclass(eq=False)
class PredictionSet:
    """Prediction set for one sample.

    members holds identity indices (0-based), sorted ascending.  conf is the
    spread between the largest and smallest member probability, unc = size +
    conf.  An empty set (possible only when tau is below the top-1 score)
    has conf = unc = 0.
    """

    members: np.ndarray
    size: int
    conf: float
    unc: float


def _validate_simplex(pi: np.ndarray, ndim: int = 1) -> np.ndarray:
    """pi as float64 after checking that each last-axis vector is a distribution."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != ndim or pi.shape[-1] == 0:
        raise SimplexError(f"expected non-empty {ndim}-d probability vectors, got shape {pi.shape}")
    if pi.size and pi.min() < 0:
        raise SimplexError("probability vector has negative entries")
    total = np.atleast_1d(pi.sum(axis=-1))
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= SIMPLEX_ATOL))
    if bad.size:
        raise SimplexError(
            f"probabilities sum to {float(total[bad[0]])}, expected 1 within {SIMPLEX_ATOL}"
        )
    return pi


def _ranked_scores(pi: np.ndarray, config: CpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Identities by descending probability (ties by index) and their scores.

    Along the last axis, the score at 1-based rank j is the mass ranked at or
    above it plus lam * max(0, j - k_reg).  cumsum adds sequentially, so that
    has the bits of (mass strictly above) + pi_y + penalty.
    """
    order = np.argsort(-pi, axis=-1, kind="stable")
    penalty = config.lam * np.maximum(0, np.arange(1, pi.shape[-1] + 1) - config.k_reg)
    return order, np.cumsum(np.take_along_axis(pi, order, axis=-1), axis=-1) + penalty


def prediction_set(pi: np.ndarray, config: CpConfig = CpConfig()) -> PredictionSet:
    """All identities whose score is at most tau, with conf and unc attached."""
    pi = _validate_simplex(pi)
    order, scores = _ranked_scores(pi, config)
    members = np.sort(order[scores <= config.tau])
    size = int(members.size)
    conf = float(pi[members].max() - pi[members].min()) if size else 0.0
    return PredictionSet(members=members, size=size, conf=conf, unc=size + conf)


def uncertainties(probs: np.ndarray, config: CpConfig = CpConfig()) -> np.ndarray:
    """prediction_set(row, config).unc for every row of an (N, C) matrix.

    Each row is sorted descending; the score of its j-th identity is then
    cumsum_j + lam * max(0, j - k_reg), the same sum prediction_set takes
    along its ranking.  The set is the prefix of scores <= tau, so its conf
    is the first minus the last sorted probability in it, and an empty set
    gives 0.  Rows go through in blocks of _ROW_BLOCK.
    """
    probs = _validate_simplex(probs, ndim=2)
    n, c = probs.shape
    penalty = config.lam * np.maximum(0, np.arange(1, c + 1) - config.k_reg)
    unc = np.zeros(n)
    for start in range(0, n, _ROW_BLOCK):
        ranked = np.sort(probs[start : start + _ROW_BLOCK], axis=1)[:, ::-1]
        scores = np.cumsum(ranked, axis=1)
        scores += penalty
        size = np.count_nonzero(scores <= config.tau, axis=1)
        rows = np.flatnonzero(size)
        conf = ranked[rows, 0] - ranked[rows, size[rows] - 1]
        unc[start + rows] = size[rows] + conf
    return unc


def calibrate_tau(
    cal_probs: np.ndarray,
    cal_labels: np.ndarray,
    coverage: float = 0.9,
    config: CpConfig = CpConfig(),
) -> CpConfig:
    """Opt-in alternative to the fixed threshold: a split-calibration quantile.

    Sets tau to the ceil((n+1)*coverage)/n empirical quantile of the true
    labels' scores on a calibration set, so prediction sets cover unseen
    true labels at roughly the requested rate.  The default pipeline keeps
    the fixed tau and never calls this.
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    cal_probs = _validate_simplex(np.atleast_2d(cal_probs), ndim=2)
    cal_labels = np.asarray(cal_labels)
    n, c = cal_probs.shape
    if cal_labels.shape != (n,) or n == 0:
        raise ValueError("need one label per calibration row")
    if not np.issubdtype(cal_labels.dtype, np.integer):  # bool is no integer dtype
        raise ValueError(f"labels must be integers, got {cal_labels.dtype} labels")
    if cal_labels.min() < 0 or cal_labels.max() >= c:
        raise ValueError(f"labels must be in [0, {c}), got {cal_labels.min()}..{cal_labels.max()}")
    order, scores = _ranked_scores(cal_probs, config)
    scores = scores[order == cal_labels[:, None]]
    rank = min(n, int(np.ceil((n + 1) * coverage)))
    tau = float(np.sort(scores)[rank - 1])
    return CpConfig(lam=config.lam, k_reg=config.k_reg, tau=max(tau, np.finfo(float).tiny))
