"""Rank-penalized conformal prediction sets over identity probability vectors.

Given a class probability vector pi, each identity gets a score built from
the cumulative probability of higher-ranked identities, its own probability,
and a penalty that grows linearly once its rank exceeds ``k_reg`` (RAPS,
Angelopoulos et al., ICLR 2021).  The prediction set collects every identity
whose score is at most ``tau``; its size plus the probability spread inside
it is the uncertainty value used to admit samples into the replay banks.

Along the descending ranking the score is the inclusive cumulative sum plus
the penalty, so it never decreases and every prediction set is a prefix of
the ranking.  ``_set_sizes`` counts that prefix; ``prediction_set`` ranks one
vector with it, and ``uncertainties`` scores a whole probability matrix in
one sorted pass, with the same bits as ``prediction_set`` per row.  Row
blocking belongs to the caller (``banks.score_task``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-6


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
        k_reg = self.k_reg  # bool is an Integral, but True is no rank count
        if isinstance(k_reg, bool) or not isinstance(k_reg, numbers.Integral) or k_reg < 1:
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


def _set_sizes(ranked: np.ndarray, config: CpConfig) -> np.ndarray:
    """Prediction-set size of probability vectors sorted descending along the last axis.

    The score at 1-based rank j is the cumulative sum up to j plus
    lam * max(0, j - k_reg).  cumsum adds sequentially, so that has the bits
    of (mass ranked above j) + p_j + penalty, and the score never decreases
    along the ranking: the set is the prefix of scores <= tau.
    """
    scores = np.cumsum(ranked, axis=-1)
    scores += config.lam * np.maximum(0, np.arange(1, ranked.shape[-1] + 1) - config.k_reg)
    return np.count_nonzero(scores <= config.tau, axis=-1)


def prediction_set(pi: np.ndarray, config: CpConfig) -> PredictionSet:
    """All identities whose score is at most tau, with conf and unc attached.

    Identities are ranked by descending probability, ties by index.
    """
    pi = _validate_simplex(pi)
    order = np.argsort(-pi, kind="stable")
    ranked = pi[order]
    size = int(_set_sizes(ranked, config))
    conf = float(ranked[0] - ranked[size - 1]) if size else 0.0
    return PredictionSet(members=np.sort(order[:size]), size=size, conf=conf, unc=size + conf)


def uncertainties(probs: np.ndarray, config: CpConfig) -> np.ndarray:
    """prediction_set(row, config).unc for every row of an (N, C) matrix.

    The whole matrix is sorted once, descending along each row.  A set's
    conf is the first minus the last sorted probability in its prefix, and
    an empty set gives 0.  Callers that must bound the temporaries pass
    blocks of rows.
    """
    probs = _validate_simplex(probs, ndim=2)
    ranked = np.sort(probs, axis=1)[:, ::-1]
    size = _set_sizes(ranked, config)
    last = ranked[np.arange(len(ranked)), size - 1]
    return np.where(size > 0, size + (ranked[:, 0] - last), 0.0)
