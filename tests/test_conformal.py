import numpy as np
import pytest

from xmcl.conformal import CpConfig, SimplexError, _set_sizes, prediction_set, uncertainties


def oracle_ranks(pi):
    """1-based rank of every identity: descending probability, ties by index."""
    order = sorted(range(len(pi)), key=lambda y: (-pi[y], y))
    return {y: r + 1 for r, y in enumerate(order)}


def oracle_prediction_set(pi, config):
    """Recompute everything from scratch with plain python loops."""
    c = len(pi)
    ranks = oracle_ranks(pi)
    ranked = sorted(range(c), key=ranks.get)
    members, scores = [], {}
    for y in range(c):
        # the mass above y, added from the top rank down as the score is defined
        rho = sum(pi[z] for z in ranked[: ranks[y] - 1])
        s = rho + pi[y] + config.lam * max(0, ranks[y] - config.k_reg)
        scores[y] = s
        if s <= config.tau:
            members.append(y)
    if not members:
        return members, scores, 0, 0.0, 0.0
    probs = [pi[y] for y in members]
    conf = max(probs) - min(probs)
    return members, scores, len(members), conf, len(members) + conf


def random_simplex(rng, c):
    x = rng.exponential(size=c)
    return x / x.sum()


def ranks_and_rho(pi):
    """1-based rank and exclusive cumulative mass of every identity, from the oracle."""
    pi = np.asarray(pi, dtype=np.float64).tolist()
    ranks = oracle_ranks(pi)
    scores = oracle_prediction_set(pi, CpConfig(lam=0.0))[1]
    return (np.array([ranks[y] for y in range(len(pi))]),
            np.array([scores[y] - pi[y] for y in range(len(pi))]))


def score_of(pi, y, config=CpConfig()):
    """The oracle's score of identity y."""
    return oracle_prediction_set(np.asarray(pi).tolist(), config)[1][y]


def uncertainty(pi, config=CpConfig()):
    return prediction_set(pi, config).unc


class TestRankAndCumulate:
    """The descending ranking and cumulative mass that every score is built on."""

    def test_top_rank_has_zero_prefix(self):
        o, rho = ranks_and_rho(np.array([0.2, 0.7, 0.1]))
        assert o[1] == 1
        assert rho[1] == 0.0

    def test_hand_case(self):
        o, rho = ranks_and_rho(np.array([0.6, 0.3, 0.1]))
        np.testing.assert_array_equal(o, [1, 2, 3])
        np.testing.assert_allclose(rho, [0.0, 0.6, 0.9])

    def test_tie_broken_by_index(self):
        o, rho = ranks_and_rho(np.array([0.5, 0.5]))
        np.testing.assert_array_equal(o, [1, 2])
        np.testing.assert_allclose(rho, [0.0, 0.5])
        # at tau = 0.5 only the first of the tied pair fits
        ps = prediction_set(np.array([0.5, 0.5]), CpConfig(tau=0.5))
        np.testing.assert_array_equal(ps.members, [0])

    def test_rejects_negative(self):
        with pytest.raises(SimplexError):
            prediction_set(np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(SimplexError):
            prediction_set(np.array([0.5, 0.4]))


class TestCpScore:
    def test_penalty_disabled(self):
        rng = np.random.default_rng(0)
        pi = random_simplex(rng, 20)
        cfg = CpConfig(lam=0.0)
        o, rho = ranks_and_rho(pi)
        np.testing.assert_allclose([score_of(pi, y, cfg) for y in range(20)], rho + pi)

    def test_hand_case_with_penalty(self):
        # pi_y=0.01 at rank 15 with 0.95 mass above it
        pi = np.zeros(20)
        pi[:14] = 0.95 / 14
        pi[14] = 0.01
        pi[15:] = 0.04 / 5
        # ranks: 0..13 hold the large mass, identity 14 has 0.01 > 0.008
        o, rho = ranks_and_rho(pi)
        assert o[14] == 15
        assert np.isclose(rho[14], 0.95)
        assert np.isclose(score_of(pi, 14), 0.95 + 0.01 + 0.3 * 5)
        assert np.isclose(score_of(pi, 14), 2.46)
        # the implementation draws the set boundary at the same score
        assert 14 in prediction_set(pi, CpConfig(tau=2.461)).members
        assert 14 not in prediction_set(pi, CpConfig(tau=2.459)).members

    def test_top_identity(self):
        assert np.isclose(score_of(np.array([0.6, 0.3, 0.1]), 0), 0.6)


class TestPredictionSet:
    def test_uniform_closed_form(self):
        # include rank o iff 0.01*o + 0.3*max(0, o-10) <= 5 -> o <= 25
        pi = np.full(100, 0.01)
        ps = prediction_set(pi)
        assert ps.size == 25
        # all tied: the ranking is index order, so the top 25 ranks are identities 0..24
        np.testing.assert_array_equal(ps.members, np.arange(25))
        assert ps.conf == 0.0
        assert ps.unc == 25.0

    def test_tight_tau_singleton(self):
        ps = prediction_set(np.array([0.9, 0.05, 0.05]), CpConfig(lam=0.3, k_reg=10, tau=0.92))
        np.testing.assert_array_equal(ps.members, [0])
        assert ps.conf == 0.0
        assert ps.unc == 1.0

    def test_hand_case_full_set(self):
        ps = prediction_set(np.array([0.6, 0.3, 0.1]), CpConfig(tau=5.0))
        assert ps.size == 3
        assert np.isclose(ps.conf, 0.5)
        assert np.isclose(ps.unc, 3.5)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(2, 60))
            pi = random_simplex(rng, c)
            t1, t2 = sorted(rng.uniform(0.1, 8.0, size=2))
            m1 = set(prediction_set(pi, CpConfig(tau=t1)).members.tolist())
            m2 = set(prediction_set(pi, CpConfig(tau=t2)).members.tolist())
            assert m1 <= m2

    def test_partition_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = int(rng.integers(2, 51))
            pi = random_simplex(rng, c)
            cfg = CpConfig(tau=float(rng.uniform(0.2, 6.0)))
            ps = prediction_set(pi, cfg)
            members, _, size, conf, unc = oracle_prediction_set(pi.tolist(), cfg)
            # exact partition: the members are the identities whose oracle score is <= tau
            assert ps.members.tolist() == members
            assert (ps.size, ps.conf, ps.unc) == (size, conf, unc)

    def test_empty_set_is_degenerate_not_error(self):
        ps = prediction_set(np.array([0.9, 0.1]), CpConfig(tau=0.5))
        assert ps.size == 0
        assert ps.conf == 0.0
        assert ps.unc == 0.0

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = int(rng.integers(3, 30))
            # distinct probabilities so the index tie-break never kicks in
            raw = np.sort(rng.uniform(0.05, 1.0, size=c))[::-1] + np.arange(c)[::-1] * 1e-3
            pi = raw / raw.sum()
            perm = rng.permutation(c)
            o, rho = ranks_and_rho(pi)
            op, rhop = ranks_and_rho(pi[perm])
            np.testing.assert_array_equal(op, o[perm])
            np.testing.assert_allclose(rhop, rho[perm])
            ps = prediction_set(pi)
            psp = prediction_set(pi[perm])
            # membership permutes consistently
            inv = np.empty(c, dtype=int)
            inv[perm] = np.arange(c)
            assert set(psp.members.tolist()) == set(inv[m] for m in ps.members.tolist())
            assert np.isclose(psp.unc, ps.unc)

    def test_rank_penalty_monotone_in_rank(self):
        pi = np.full(40, 1.0 / 40)
        scores = np.array([score_of(pi, y) for y in range(40)])
        o, _ = ranks_and_rho(pi)
        by_rank = scores[np.argsort(o)]
        assert np.all(np.diff(by_rank) >= 0)


class TestSetSizes:
    """_set_sizes on hand-ranked vectors: the prefix of cumsum + penalty <= tau."""

    @pytest.mark.parametrize(
        "ranked, config, size",
        [
            ([0.6, 0.3, 0.1], CpConfig(tau=0.95), 2),
            ([0.6, 0.3, 0.1], CpConfig(tau=5.0), 3),
            ([0.6, 0.3, 0.1], CpConfig(tau=0.5), 0),
            # scores 0.25, 0.5, 1.75, 3: the penalty starts after rank k_reg
            ([0.25] * 4, CpConfig(lam=1.0, k_reg=2, tau=1.75), 3),
            ([0.25] * 4, CpConfig(lam=1.0, k_reg=2, tau=1.7), 2),
            # a score equal to tau is in the set; zero mass still counts a rank
            ([0.5, 0.25, 0.25], CpConfig(tau=0.75), 2),
            ([1.0, 0.0, 0.0], CpConfig(tau=1.0), 3),
            ([1.0, 0.0, 0.0], CpConfig(lam=0.5, k_reg=1, tau=1.2), 1),
            ([1.0], CpConfig(tau=0.99), 0),
        ],
    )
    def test_hand_cases(self, ranked, config, size):
        assert _set_sizes(np.array(ranked), config) == size

    def test_rows_are_independent(self):
        ranked = np.array([[0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [0.75, 0.125, 0.125]])
        np.testing.assert_array_equal(_set_sizes(ranked, CpConfig(tau=0.8)), [2, 0, 1])


class TestUncertainty:
    def test_singleton(self):
        assert uncertainty(np.array([0.9, 0.05, 0.05]), CpConfig(tau=0.92)) == 1.0

    def test_uniform_hundred(self):
        assert uncertainty(np.full(100, 0.01)) == 25.0

    def test_hand_case(self):
        assert np.isclose(uncertainty(np.array([0.6, 0.3, 0.1])), 3.5)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            c = int(rng.integers(2, 40))
            pi = random_simplex(rng, c)
            cfg = CpConfig(tau=float(rng.uniform(0.5, 6.0)))
            *_, unc = oracle_prediction_set(pi.tolist(), cfg)
            assert np.isclose(uncertainty(pi, cfg), unc)


class TestDefaultSetSize:
    """The regime the default CpConfig puts a 50-identity task in.

    With lam 0.3, k_reg 10 and tau 5, rank j enters the set iff its
    cumulative mass is at most 5 - 0.3 * (j - 10): always for j <= 23, for
    j = 24 iff the top-24 mass is at most 0.8, for j = 25 only when the top 25
    hold exactly half the mass, and never for j >= 26.
    So the integer part of the uncertainty is pinned near 23, and a change to
    the defaults has to move this test on purpose.
    """

    def test_floor_of_uncertainty_is_23_unless_top_24_mass_is_low(self):
        rng = np.random.default_rng(40)
        probs = np.concatenate(
            [rng.dirichlet(np.full(50, a), size=64) for a in (0.2, 1.0, 2.0, 20.0)]
        )
        size = np.floor(uncertainties(probs, CpConfig())).astype(int)
        top24 = np.sort(probs, axis=1)[:, ::-1][:, :24].sum(axis=1)
        assert ((23 <= size) & (size <= 26)).all()
        peaked, flat = top24 > 0.81, top24 < 0.79
        assert peaked.sum() >= 20 and flat.sum() >= 20
        assert (size[peaked] == 23).all()
        assert (size[flat] > 23).all()


class TestUncertainties:
    """The batched pass against per-row prediction_set and the loop oracle."""

    def check(self, probs, config):
        got = uncertainties(probs, config)
        assert np.array_equal(got, [prediction_set(row, config).unc for row in probs])
        assert np.array_equal(got, [oracle_prediction_set(row.tolist(), config)[4] for row in probs])

    def test_random_rows_and_configs(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            c = int(rng.integers(2, 60))
            probs = np.array([random_simplex(rng, c) for _ in range(int(rng.integers(1, 30)))])
            config = CpConfig(lam=float(rng.uniform(0, 1)), k_reg=int(rng.integers(1, 20)),
                              tau=float(rng.uniform(0.2, 6.0)))
            self.check(probs, config)

    def test_tied_probabilities(self):
        rng = np.random.default_rng(42)
        raw = rng.integers(1, 4, size=(50, 12)).astype(float)
        self.check(raw / raw.sum(axis=1, keepdims=True), CpConfig(lam=0.3, k_reg=3, tau=1.5))
        self.check(np.full((3, 100), 0.01), CpConfig())
        # a score equal to tau is in the set
        self.check(np.array([[0.5, 0.25, 0.25]]), CpConfig(tau=0.75))
        assert uncertainties(np.array([[0.5, 0.25, 0.25]]), CpConfig(tau=0.75))[0] == 2.25

    def test_empty_sets(self):
        rng = np.random.default_rng(43)
        probs = np.array([random_simplex(rng, 8) for _ in range(20)])
        config = CpConfig(tau=float(probs.max(axis=1).min()) / 2)
        assert not uncertainties(probs, config).any()
        self.check(probs, config)

    @pytest.mark.parametrize(
        "config", [CpConfig(lam=0.0), CpConfig(k_reg=7), CpConfig(k_reg=50, tau=0.9)],
        ids=["lam_0", "k_reg_eq_C", "k_reg_gt_C"],
    )
    def test_penalty_edges(self, config):
        rng = np.random.default_rng(44)
        self.check(np.array([random_simplex(rng, 7) for _ in range(30)]), config)

    def test_one_class(self):
        self.check(np.ones((4, 1)), CpConfig())
        assert np.array_equal(uncertainties(np.ones((4, 1))), np.ones(4))

    def test_rows_across_blocks(self):
        rng = np.random.default_rng(45)
        n = 131  # more rows than one scoring block of banks.score_task
        self.check(np.array([random_simplex(rng, 25) for _ in range(n)]), CpConfig(tau=2.0))

    def test_no_rows(self):
        assert uncertainties(np.empty((0, 5))).shape == (0,)

    @pytest.mark.parametrize(
        "probs",
        [np.full(3, 1 / 3), np.empty((2, 0)), np.array([[0.5, 0.5], [1.2, -0.2]]),
         np.array([[0.5, 0.5], [0.5, 0.4]]), np.array([[0.5, 0.5], [np.nan, 1.0]])],
        ids=["one_d", "no_classes", "negative", "bad_sum", "nan"],
    )
    def test_rejects_non_distributions(self, probs):
        with pytest.raises(SimplexError):
            uncertainties(probs)


class TestCpConfig:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            CpConfig(lam=-0.1)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            CpConfig(tau=0.0)

    @pytest.mark.parametrize("k_reg", [2.5, True, 0, -1], ids=["fractional", "bool", "zero", "negative"])
    def test_rejects_non_positive_integer_k_reg(self, k_reg):
        # 2.5 used to give a rank penalty matching neither k_reg 2 nor 3
        with pytest.raises(ValueError, match="k_reg must be a positive integer"):
            CpConfig(k_reg=k_reg)

    def test_accepts_numpy_integer_k_reg(self):
        pi = np.full(10, 0.1)
        got = prediction_set(pi, CpConfig(k_reg=np.int64(3), tau=0.6))
        assert got.members.tolist() == prediction_set(pi, CpConfig(k_reg=3, tau=0.6)).members.tolist()
        assert got.size == 3

    def test_default_pipeline_keeps_fixed_tau(self):
        assert CpConfig().tau == 5.0
