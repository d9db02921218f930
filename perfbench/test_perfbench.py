"""Checks of the benchmark itself.

    python3 -m pytest perfbench -q

Runs one traced operation per workload (about ten seconds in all).
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import PATCHES, Tracer, missing_layers  # noqa: E402

SEED = 5
CLI_ONLY = {"cli.cmd_run", "banks.save_banks"}
ALL_LAYERS = {layer for _, _, layer in PATCHES}


def test_every_patched_name_resolves():
    assert missing_layers() == []


def test_cli_config_parses_back_to_the_standard_config():
    from xmcl import standard_two_task_config
    from xmcl.cli import parse_experiment_config

    config = standard_two_task_config()
    parsed, _ = parse_experiment_config(json.loads(json.dumps(workloads.config_payload(config))))
    schedule = dataclasses.replace(parsed.schedule, decay_epochs=tuple(parsed.schedule.decay_epochs))
    assert dataclasses.replace(parsed, schedule=schedule) == config


def test_master_seeds_are_a_function_of_the_bench_seed():
    w = workloads.WORKLOADS["two_task_standard"]
    assert workloads.master_seeds(w, 3) == workloads.master_seeds(w, 3)
    assert workloads.master_seeds(w, 3) != workloads.master_seeds(w, 4)
    assert len(set(workloads.master_seeds(w, 3))) == w.seeds_per_run


def test_reference_covers_every_pool_seed():
    reference = workloads.load_reference()
    assert set(reference) == set(workloads.WORKLOADS)
    for name, arms in reference.items():
        expected_arms = set(workloads.CLI_ARMS) if name == "cli_arms" else {"full"}
        assert set(arms) == expected_arms
        for maps in arms.values():
            assert set(maps) == {str(s) for s in range(workloads.POOL_SIZE)}


@pytest.fixture(scope="module")
def traced_ops(tmp_path_factory):
    """name -> (untraced reports, traced reports, tracer) for one seed."""
    out = {}
    for name in workloads.WORKLOADS:
        runner = workloads.Runner(name, tmp_path_factory.mktemp(name))
        plain = runner.op(SEED)
        runner.cleanup()
        tracer = Tracer()
        with tracer.active():
            traced = runner.op(SEED)
        runner.cleanup()
        out[name] = (plain, traced, tracer)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrappers_are_transparent_and_restored(traced_ops, name):
    import xmcl.trainer

    plain, traced, _ = traced_ops[name]
    assert plain == traced
    assert not hasattr(xmcl.trainer.batch_gradients, "__wrapped__")
    assert not hasattr(xmcl.trainer.Adam.delta, "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_layer_records_calls_on_its_workload(traced_ops, name):
    _, _, tracer = traced_ops[name]
    expected = ALL_LAYERS if name == "cli_arms" else ALL_LAYERS - CLI_ONLY
    assert {layer for layer in expected if not tracer.calls.get(layer)} == set()
    assert tracer.queries > 0 and tracer.offered > 0 and tracer.set_sizes


def test_cli_arms_split_the_work(traced_ops):
    _, _, tracer = traced_ops["cli_arms"]
    assert tracer.arm_calls.get("arm.alpha_zero.losses.jmmd_with_grad", 0) == 0
    assert tracer.arm_calls.get("arm.no_mpm.banks.ingest_task", 0) == 0
    assert tracer.arm_calls["arm.no_mpm.losses.jmmd_with_grad"] > 0
    assert tracer.arm_calls["arm.alpha_zero.banks.ingest_task"] > 0


def test_reports_pass_their_checks(traced_ops):
    reference = workloads.load_reference()
    for name, (plain, _, _) in traced_ops.items():
        tasks = 3 if name == "wide_three_task" else 2
        for arm, raw in plain.items():
            expected = reference[name][arm][str(SEED)]
            assert workloads.check_report(json.loads(raw), tasks, expected) == []


def test_check_report_flags_bad_reports(traced_ops):
    raw = traced_ops["two_task_standard"][0]["full"]
    final = workloads.final_maps(json.loads(raw))[0]

    report = json.loads(raw)
    report["steps"][1]["records"][0]["mAP"] = math.nan
    assert workloads.check_report(report, 2, final)

    report = json.loads(raw)
    report["steps"][2]["records"][0]["r5"] = report["steps"][2]["records"][0]["r10"] + 1.0
    assert workloads.check_report(report, 2, final)

    report = json.loads(raw)
    assert workloads.check_report(report, 3, final)
    assert workloads.check_report(report, 2, final + 2 * workloads.MAP_TOLERANCE)
    assert workloads.check_report(report, 2, None)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_arms", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _fake_results(metric_values: dict[str, list[float]], failed: list[int]) -> dict:
    import suite

    runs = []
    for seed, fails in enumerate(failed):
        metrics = {name: {"value": values[seed], "unit": suite.END_TO_END[name]["unit"]}
                   for name, values in metric_values.items()}
        runs.append({"seed": seed, "result": {"attempted": 10, "failed": fails, "metrics": metrics}})
    return {"runs": {"two_task_standard": {"plain": runs, "traced": []}}}


def _baseline_values(n: int) -> dict[str, list[float]]:
    return {
        "run_s": [1.0 + 0.001 * i for i in range(n)],
        "setup_s": [0.15] * n,
        "peak_rss_mb": [43.5] * n,
        "final_avg_mAP": [85.0 + 0.1 * i for i in range(n)],
        "task0_final_mAP": [90.0 + 0.1 * i for i in range(n)],
    }


def test_compare_needs_no_more_failures_for_a_gain(capsys):
    import suite

    parent = _fake_results(_baseline_values(10), [0] * 10)
    faster = _baseline_values(10)
    faster["run_s"] = [0.5 * v for v in faster["run_s"]]
    assert suite.compare(parent, _fake_results(faster, [0] * 10)) == 0
    assert "better" in capsys.readouterr().out
    assert suite.compare(parent, _fake_results(faster, [0] * 9 + [1])) == 1
    out = capsys.readouterr().out
    assert "unresolved (more failed operations)" in out
    assert not any(line.endswith("  better") for line in out.splitlines())


def test_compare_calls_any_paired_quality_loss_worse(capsys):
    import suite

    parent = _fake_results(_baseline_values(10), [0] * 10)
    change = _baseline_values(10)
    change["task0_final_mAP"][3] -= 0.01
    assert suite.compare(parent, _fake_results(change, [0] * 10)) == 1
    assert "worse (lower on a paired seed)" in capsys.readouterr().out
