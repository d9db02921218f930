"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The directional experiments reuse module-scoped run caches so the whole
gate stays well inside its time budget.
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from xmcl.banks import ReplayBanks, admit
from xmcl.cli import main as cli_main
from xmcl.conformal import CpConfig, prediction_set
from xmcl.data import Split
from xmcl.encoder import EncoderConfig, forward, init_encoder, register_task_head
from xmcl.losses import (
    JmmdSpec,
    _pool,
    cosine_logits,
    cosine_logits_backward,
    cross_entropies_grad,
    i2tce_loss,
    id_loss,
    jmmd,
    jmmd_with_grad,
    softmax,
    triplet_loss,
    triplet_loss_grad,
)
from xmcl.metrics import _ap_from_positions, ranking_metrics
from xmcl.schemes import high_gap_single_task_config, standard_two_task_config
from xmcl.trainer import ExperimentConfig, batch_gradients, run_sequence

from test_conformal import oracle_prediction_set
from test_losses import jmmd_oracle
from test_metrics import brute_force_metrics


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rel_close(analytic: float, fd: float, rtol: float = 1e-4, atol: float = 1e-8) -> bool:
    return abs(analytic - fd) <= rtol * max(abs(analytic), abs(fd)) + atol


# ---------------------------------------------------------------------------
# cached experiment runs for the directional criteria


@pytest.fixture(scope="module")
def standard_runs():
    """(reverse, mpm, seed) -> report for the standard two-task scheme."""
    t0 = time.time()
    runs = {}
    for reverse in (False, True):
        for mpm in (True, False):
            cfg = standard_two_task_config(mpm=mpm, reverse_order=reverse)
            for seed in range(5):
                runs[(reverse, mpm, seed)], _ = run_sequence(cfg, seed)
    runs["elapsed"] = time.time() - t0
    return runs


@pytest.fixture(scope="module")
def alpha_runs():
    """(alpha, seed) -> report for the high-gap single-task scheme."""
    t0 = time.time()
    runs = {}
    for alpha in (5.0, 0.0):
        cfg = high_gap_single_task_config(alpha=alpha)
        for seed in range(5):
            runs[(alpha, seed)], _ = run_sequence(cfg, seed)
    runs["elapsed"] = time.time() - t0
    return runs


def task_map_at(report: dict, step: int, task_id: int) -> float:
    entry = next(s for s in report["steps"] if s["step"] == step)
    return next(r["mAP"] for r in entry["records"] if r["task_id"] == task_id)


# ---------------------------------------------------------------------------


def test_criterion_01_jmmd_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        n_s = int(rng.integers(1, 11))
        n_p = int(rng.integers(1, 11))
        dims = [int(rng.integers(2, 6)) for _ in range(3)]
        s = [rng.normal(size=(n_s, d)) for d in dims]
        p = [rng.normal(size=(n_p, d)) for d in dims]
        bws = [float(rng.uniform(0.4, 2.5)) for _ in range(3)]
        got = jmmd(s, p, JmmdSpec(bandwidths=bws))
        want = jmmd_oracle(s, p, bws)
        worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    announce(
        1,
        worst < 1e-10 and elapsed < 1.0,
        f"50 instances, max |delta|={worst:.2e} (tol 1e-10), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_gradient_suite():
    t0 = time.time()
    h = 1e-5
    failures = []

    def fd_check(name, analytic, f, x):
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            xp = x.copy()
            xp[idx] += h
            xm = x.copy()
            xm[idx] -= h
            fd = (f(xp) - f(xm)) / (2 * h)
            if not rel_close(analytic[idx], fd):
                failures.append(f"{name}@{idx}")
                return

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)

        # alignment gradient
        s = [rng.normal(size=(4, 3)), rng.normal(size=(4, 2))]
        p = [rng.normal(size=(5, 3)), rng.normal(size=(5, 2))]
        spec = JmmdSpec(bandwidths=[1.1, 0.8])
        layers, is_sketch = _pool(s, p)
        _, d_z = jmmd_with_grad(layers, is_sketch, spec)
        fd_check(
            f"jmmd[{seed}]",
            d_z[0][is_sketch],
            lambda x: jmmd([x, s[1]], p, spec),
            s[0],
        )

        # triplet gradient
        emb = rng.normal(size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        while np.unique(labels).size < 2:
            labels = rng.integers(0, 3, size=8)
        _, d_emb = triplet_loss_grad(emb, labels, 0.3)
        fd_check(f"triplet[{seed}]", d_emb, lambda x: triplet_loss(x, labels, 0.3), emb)

        # identity-CE gradient, at the logits
        logits = rng.normal(size=(6, 5))
        y = rng.integers(0, 5, size=6)
        _, d_logits, _, _ = cross_entropies_grad(softmax(logits), y, 0.1)
        fd_check(f"id[{seed}]", d_logits, lambda x: id_loss(softmax(x), y, 0.1), logits)

        # prototype-CE gradient
        pe = rng.normal(size=(5, 4))
        protos = rng.normal(size=(6, 4))
        py = rng.integers(0, 6, size=5)
        d_logits = cross_entropies_grad(softmax(cosine_logits(pe, protos, 0.3)), py)[3]
        d_e, d_pr = cosine_logits_backward(pe, protos, d_logits, 0.3)
        fd_check(f"i2tce_e[{seed}]", d_e, lambda x: i2tce_loss(x, protos, py, 0.3), pe)
        fd_check(f"i2tce_p[{seed}]", d_pr, lambda x: i2tce_loss(pe, x, py, 0.3), protos)

        # full backward through the encoder under the composite objective
        state = init_encoder(
            EncoderConfig(input_dim=6, hidden_dims=(7, 6), embedding_dim=5, seed=seed)
        )
        register_task_head(state, 0, 3, seed=seed + 1)
        batch = Split(
            np.array([rng.normal(size=6) for _ in range(8)]),
            np.arange(8) % 3,
            np.arange(8) % 2 == 0,
        )
        head_ids = np.arange(3)
        jspec = JmmdSpec(bandwidths=[1.0, 1.2, 0.9], alpha=2.0)
        _, grads = batch_gradients(state, batch, 0, head_ids, jspec)

        def loss_at(mutated_state):
            breakdown, _ = batch_gradients(mutated_state, batch, 0, head_ids, jspec)
            return breakdown.l_sim

        def check_param(name, analytic, kind, index):
            it = np.nditer(analytic, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                fds = []
                for eps in (h, -h):
                    s2 = copy.deepcopy(state)
                    if kind == "w":
                        s2.weights[index][idx] += eps
                    elif kind == "b":
                        s2.biases[index][idx] += eps
                    else:
                        s2.heads[0][idx] += eps
                    fds.append(loss_at(s2))
                fd = (fds[0] - fds[1]) / (2 * h)
                if not rel_close(analytic[idx], fd):
                    failures.append(f"{name}@{idx}")
                    return

        for l in range(len(state.weights)):
            check_param(f"enc_w{l}[{seed}]", grads.d_weights[l], "w", l)
            check_param(f"enc_b{l}[{seed}]", grads.d_biases[l], "b", l)
        check_param(f"enc_protos[{seed}]", grads.d_prototypes, "p", 0)

    elapsed = time.time() - t0
    announce(
        2,
        not failures and elapsed < 30.0,
        f"20 seeds, rel tol 1e-4, failures={failures[:3]}, {elapsed:.1f}s (<30s)",
    )


def test_criterion_03_conformal_exactness():
    problems = []

    ps = prediction_set(np.full(100, 0.01))
    if ps.size != 25:
        problems.append(f"uniform C=100 gave size {ps.size}")

    hand = prediction_set(np.array([0.6, 0.3, 0.1]))
    if not (hand.size == 3 and np.isclose(hand.conf, 0.5) and np.isclose(hand.unc, 3.5)):
        problems.append(f"hand case gave size={hand.size} conf={hand.conf} unc={hand.unc}")

    rng = np.random.default_rng(103)
    for _ in range(200):
        c = int(rng.integers(2, 51))
        x = rng.exponential(size=c)
        pi = x / x.sum()
        cfg = CpConfig(tau=float(rng.uniform(0.3, 6.0)))
        _, scores, *_ = oracle_prediction_set(pi.tolist(), cfg)
        members = set(prediction_set(pi, cfg).members.tolist())
        for y in range(c):
            if (y in members) != (scores[y] <= cfg.tau):
                problems.append(f"partition broken at C={c}, y={y}")
                break
        t1, t2 = sorted(rng.uniform(0.2, 7.0, size=2))
        m1 = set(prediction_set(pi, CpConfig(tau=t1)).members.tolist())
        m2 = set(prediction_set(pi, CpConfig(tau=t2)).members.tolist())
        if not m1 <= m2:
            problems.append(f"tau monotonicity broken at C={c}")
            break

    announce(3, not problems, f"closed form + 200 draws C<=50; problems={problems[:3]}")


def test_criterion_04_bank_min_retention():
    rng = np.random.default_rng(104)
    banks = ReplayBanks()
    shadow: dict[tuple[str, int], list[float]] = {}
    capacity_ok = True
    for _ in range(1000):
        identity = int(rng.integers(0, 50))
        modality = "sketch" if rng.random() < 0.5 else "photo"
        unc = float(rng.uniform(1.0, 27.0))
        candidate = Split(np.zeros((1, 1)), np.array([identity]), np.array([modality == "sketch"]))
        admit(banks, candidate, np.array([unc]), 0)
        shadow.setdefault((modality, identity), []).append(unc)
        sketches = int(np.count_nonzero(banks.rows.is_sketch))
        capacity_ok &= sketches <= 50 and len(banks.rows) - sketches <= 50
    slots = {
        ("sketch" if sketch else "photo", identity): unc
        for identity, sketch, unc in zip(
            banks.rows.ids.tolist(), banks.rows.is_sketch.tolist(), banks.uncs.tolist()
        )
    }
    # one stored row per (modality, identity) slot
    capacity_ok &= len(slots) == len(banks.rows)
    mismatches = [key for key, uncs in shadow.items() if slots.get(key) != min(uncs)]
    announce(
        4,
        not mismatches and capacity_ok,
        f"1000 offers / 50 identities; slot!=stream-min: {mismatches[:3]}; capacity ok: {capacity_ok}",
    )


def test_criterion_05_retrieval_metric_oracle():
    # relevance [0, 1] puts the one hit at position 2; [1, 0, 1] puts them at 1 and 3
    hand_ok = _ap_from_positions([2]) == 0.5 and _ap_from_positions([1, 3]) == 5 / 6
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        n_q = int(rng.integers(2, 31))
        n_g = int(rng.integers(10, 101))
        dim = int(rng.integers(2, 7))
        g_ids = rng.integers(0, max(2, n_g // 4), size=n_g)
        q_ids = g_ids[rng.integers(0, n_g, size=n_q)]
        q_emb = rng.normal(size=(n_q, dim))
        g_emb = rng.normal(size=(n_g, dim))
        m, cmc, _ = ranking_metrics(q_emb, q_ids, g_emb, g_ids)
        bm, bcmc = brute_force_metrics(q_emb, q_ids, g_emb, g_ids)
        worst = max(worst, abs(m - bm), *(abs(cmc[k] - bcmc[k]) for k in (1, 5, 10)))
    announce(
        5,
        hand_ok and worst < 1e-12,
        f"hand APs exact: {hand_ok}; 100 instances max |delta|={worst:.2e} (tol 1e-12)",
    )


def test_criterion_06_anti_forgetting_direction(standard_runs):
    first_task = 0
    with_mpm = [task_map_at(standard_runs[(False, True, s)], 5, first_task) for s in range(5)]
    without = [task_map_at(standard_runs[(False, False, s)], 5, first_task) for s in range(5)]
    gap = float(np.median(with_mpm) - np.median(without))
    elapsed = standard_runs["elapsed"]
    announce(
        6,
        gap >= 5.0 and elapsed < 600,
        f"median task-1 mAP after task 2: {np.median(with_mpm):.1f} (MPM) vs "
        f"{np.median(without):.1f} (none), gap {gap:.1f} (>=5); cache built in {elapsed:.0f}s (<600s)",
    )


def test_criterion_07_jmmd_benefit_direction(alpha_runs):
    a5 = [task_map_at(alpha_runs[(5.0, s)], 3, 0) for s in range(5)]
    a0 = [task_map_at(alpha_runs[(0.0, s)], 3, 0) for s in range(5)]
    elapsed = alpha_runs["elapsed"]
    ok = float(np.median(a5)) > float(np.median(a0)) and elapsed < 600
    announce(
        7,
        ok,
        f"high-gap cross-modal mAP medians: alpha=5 {np.median(a5):.1f} > "
        f"alpha=0 {np.median(a0):.1f}; {elapsed:.0f}s (<600s)",
    )


def test_criterion_08_order_robustness(standard_runs):
    # with MPM: averaged mAP at the final step is order-stable
    avg_fwd = [standard_runs[(False, True, s)]["steps"][-1]["average"]["mAP"] for s in range(5)]
    avg_rev = [standard_runs[(True, True, s)]["steps"][-1]["average"]["mAP"] for s in range(5)]
    diff = abs(float(np.median(avg_fwd)) - float(np.median(avg_rev)))

    # without MPM: the first-trained task collapses by more than half in both orders
    retentions = {}
    for reverse in (False, True):
        first_task = 1 if reverse else 0
        rs = []
        for s in range(5):
            report = standard_runs[(reverse, False, s)]
            rs.append(task_map_at(report, 5, first_task) / task_map_at(report, 3, first_task))
        retentions[reverse] = float(np.median(rs))
    collapse_ok = retentions[False] < 0.5 and retentions[True] < 0.5
    announce(
        8,
        diff < 10.0 and collapse_ok,
        f"MPM avg mAP order diff {diff:.1f} (<10); no-MPM first-task retention "
        f"fwd {retentions[False]:.2f}, rev {retentions[True]:.2f} (both <0.5)",
    )


def test_criterion_09_trajectory_logging(standard_runs):
    report = standard_runs[(False, True, 0)]
    csv_ok = [s["step"] for s in report["steps"]] == [1, 2, 3, 4, 5]
    from xmcl.trainer import report_to_csv

    lines = report_to_csv(report).strip().split("\n")
    schema_ok = lines[0] == "step,task_id,mAP,r1,r5,r10" and len(lines) == 1 + 5 * 2

    # pre-second-task equivalence: identical single-task run matches step 3 bitwise
    cfg = standard_two_task_config(mpm=True)
    solo = ExperimentConfig(**{**cfg.__dict__, "tasks": cfg.tasks[:1]})
    solo_report, _ = run_sequence(solo, 0)
    two_rec = next(
        r
        for r in next(s for s in report["steps"] if s["step"] == 3)["records"]
        if r["task_id"] == 0
    )
    solo_rec = next(
        r
        for r in next(s for s in solo_report["steps"] if s["step"] == 3)["records"]
        if r["task_id"] == 0
    )
    bitwise_ok = json.dumps(two_rec, sort_keys=True) == json.dumps(solo_rec, sort_keys=True)
    announce(
        9,
        csv_ok and schema_ok and bitwise_ok,
        f"5 steps per task: {csv_ok}; csv schema: {schema_ok}; "
        f"step-3 single-vs-two-task bitwise: {bitwise_ok}",
    )


def test_criterion_10_reproducibility(tmp_path):
    config = {
        "tasks": [
            {
                "task_id": t,
                "latent_dim": 6,
                "feature_dim": 16,
                "num_train_ids": 12,
                "num_test_ids": 6,
                "sketches_per_id": 3,
                "photos_per_id": 3,
                "modality_gap": 1.4,
                "task_shift": 1.5 * t,
                "noise_sigma": 0.2,
                "seed": 0,
            }
            for t in range(2)
        ],
        "schedule": {
            "epochs_first_task": 10,
            "epochs_later_tasks": 6,
            "warmup_epochs": 2,
            "base_lr": 1e-2,
            "warmup_start_lr": 1e-3,
            "decay_epochs": [8],
        },
        "encoder": {"hidden_dims": [16, 16], "embedding_dim": 8},
        "pk": {"p": 4, "k": 2},
        "arms": ["full", "no_mpm"],
        "seed": 3,
        "seeds": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["run", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["run", "--config", str(cfg_path), "--out", str(out2)])
    identical = True
    for arm in ("full", "no_mpm"):
        for name in ("report.json", "metrics.csv"):
            a = (out1 / arm / "seed_3" / name).read_bytes()
            b = (out2 / arm / "seed_3" / name).read_bytes()
            identical &= a == b
    announce(
        10,
        code1 == 0 and code2 == 0 and identical,
        f"two cmd_run invocations byte-identical: {identical}",
    )
