"""Rank-penalized conformal prediction sets over identity probability vectors.

Given a class probability vector pi, each identity gets a score built from
the cumulative probability of higher-ranked identities, its own probability,
and a penalty that grows linearly once its rank exceeds ``k_reg`` (RAPS,
Angelopoulos et al., ICLR 2021).  The prediction set collects every identity
whose score stays below ``tau``; its size plus the probability spread inside
it is the uncertainty value used to admit samples into the replay banks.

Along the descending ranking the score is the inclusive cumulative sum plus
the penalty, so it never decreases and every prediction set is a prefix of
the ranking.  ``uncertainties`` uses that to score a whole probability
matrix in one sorted pass, with the same bits as ``prediction_set`` per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.lam < 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if self.k_reg < 1:
            raise ValueError(f"k_reg must be a positive integer, got {self.k_reg}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass
class PredictionSet:
    """Prediction set for one sample.

    members holds identity indices (0-based), sorted ascending; scores holds
    the per-member score in the same order.  conf is the spread between the
    largest and smallest member probability, unc = size + conf.  An empty set
    (possible only when tau is below the top-1 score) has conf = unc = 0.
    """

    members: np.ndarray
    scores: np.ndarray
    size: int
    conf: float
    unc: float
    member_probs: np.ndarray = field(repr=False, kw_only=True)


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


def rank_and_cumulate(pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending-probability ranks and exclusive cumulative probabilities.

    Returns (o, rho) where o[y] is the 1-based rank of identity y (ties broken
    by ascending identity index) and rho[y] is the summed probability of all
    strictly higher-ranked identities.
    """
    pi = _validate_simplex(pi)
    c = pi.size
    # lexsort's last key is primary: sort by -pi, ties fall back to index order
    order = np.lexsort((np.arange(c), -pi))
    ranks = np.empty(c, dtype=np.int64)
    ranks[order] = np.arange(1, c + 1)
    cum = np.concatenate(([0.0], np.cumsum(pi[order])[:-1]))
    rho = np.empty(c, dtype=np.float64)
    rho[order] = cum
    return ranks, rho


def cp_scores(pi: np.ndarray, config: CpConfig = CpConfig()) -> np.ndarray:
    """Score of every identity: rho_y + pi_y + lam * max(0, o_y - k_reg)."""
    pi = _validate_simplex(pi)
    ranks, rho = rank_and_cumulate(pi)
    penalty = config.lam * np.maximum(0, ranks - config.k_reg)
    return rho + pi + penalty


def cp_score(pi: np.ndarray, y: int, config: CpConfig = CpConfig()) -> float:
    """Score of a single identity y (0-based index into pi)."""
    scores = cp_scores(pi, config)
    if not 0 <= y < scores.size:
        raise IndexError(f"identity {y} out of range for {scores.size} classes")
    return float(scores[y])


def prediction_set(pi: np.ndarray, config: CpConfig = CpConfig()) -> PredictionSet:
    """All identities whose score is at most tau, with conf and unc attached."""
    pi = _validate_simplex(pi)
    scores = cp_scores(pi, config)
    members = np.flatnonzero(scores <= config.tau)
    if members.size == 0:
        return PredictionSet(
            members=members,
            scores=np.empty(0, dtype=np.float64),
            size=0,
            conf=0.0,
            unc=0.0,
            member_probs=np.empty(0, dtype=np.float64),
        )
    member_probs = pi[members]
    conf = float(member_probs.max() - member_probs.min())
    size = int(members.size)
    return PredictionSet(
        members=members,
        scores=scores[members],
        size=size,
        conf=conf,
        unc=size + conf,
        member_probs=member_probs,
    )


def uncertainties(probs: np.ndarray, config: CpConfig = CpConfig()) -> np.ndarray:
    """prediction_set(row, config).unc for every row of an (N, C) matrix.

    Each row is sorted descending; the score of its j-th identity is then
    cumsum_j + lam * max(0, j - k_reg), which is what cp_scores computes as
    rho + pi.  The set is the prefix of scores <= tau, so its conf is the
    first minus the last sorted probability in it, and an empty set gives 0.
    Rows go through in blocks of _ROW_BLOCK.
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


def uncertainty(pi: np.ndarray, config: CpConfig = CpConfig()) -> float:
    """Set size plus probability spread; lower marks a more trustworthy sample."""
    return float(uncertainties(_validate_simplex(pi)[None], config)[0])


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
    cal_probs = np.atleast_2d(np.asarray(cal_probs, dtype=np.float64))
    cal_labels = np.asarray(cal_labels, dtype=np.int64)
    n = cal_probs.shape[0]
    if cal_labels.shape != (n,) or n == 0:
        raise ValueError("need one label per calibration row")
    scores = np.array(
        [cp_scores(cal_probs[i], config)[cal_labels[i]] for i in range(n)]
    )
    rank = min(n, int(np.ceil((n + 1) * coverage)))
    tau = float(np.sort(scores)[rank - 1])
    return CpConfig(lam=config.lam, k_reg=config.k_reg, tau=max(tau, np.finfo(float).tiny))
