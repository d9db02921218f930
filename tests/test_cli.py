import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from xmcl import standard_two_task_config
from xmcl.cli import _FLAT_KEYS, _SECTIONS, RunSettings, main, parse_experiment_config
from xmcl.data import SynthSpec, load_task

ROOT = Path(__file__).resolve().parents[1]


def write_config(path: Path, **overrides) -> Path:
    payload = {
        "tasks": [
            {
                "task_id": 0,
                "latent_dim": 6,
                "feature_dim": 16,
                "num_train_ids": 12,
                "num_test_ids": 6,
                "sketches_per_id": 3,
                "photos_per_id": 3,
                "modality_gap": 1.4,
                "task_shift": 0.0,
                "noise_sigma": 0.2,
                "seed": 0,
            },
            {
                "task_id": 1,
                "latent_dim": 6,
                "feature_dim": 16,
                "num_train_ids": 12,
                "num_test_ids": 6,
                "sketches_per_id": 3,
                "photos_per_id": 3,
                "modality_gap": 1.4,
                "task_shift": 1.5,
                "noise_sigma": 0.2,
                "seed": 0,
            },
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
        "seed": 0,
        "seeds": 1,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


SPEC_PAYLOAD = {
    "task_id": 0,
    "latent_dim": 4,
    "feature_dim": 8,
    "num_train_ids": 6,
    "num_test_ids": 3,
    "seed": 5,
}


# config overrides that xmcl run must reject, and the key its error names
BAD_CONFIGS = [
    ({"tasks": [{"task_idd": 0}]}, "task_idd"),
    ({"schedule": {"epochs_frist_task": 3}}, "epochs_frist_task"),
    ({"cp": {"lamda": 0.3}}, "lamda"),
    ({"jmmd": {"alhpa": 1.0}}, "alhpa"),
    ({"encoder": {"hidden_dim": [4]}}, "encoder.hidden_dim"),
    ({"pk": {"p": 4, "kk": 2}}, "pk.kk"),
    ({"train": {"triplet_marign": 0.9}}, "train.triplet_marign"),
    ({"eval": {"use_cosin": True}}, "eval.use_cosin"),
    ({"colour": "red"}, "colour"),
    ({"mpm": "false"}, "mpm"),
    ({"pk": {"p": 2.9, "k": 2}}, "pk.p"),
    ({"encoder": {"hidden_dims": 5}}, "encoder.hidden_dims"),
    ({"tasks": [{"path": "task.jsonl", "modality_gap": 1.0}]}, "modality_gap"),
    ({"seeds": 0}, "seeds"),
    ({"seed": True}, "seed"),
    ({"jmmd": {"layer_set": [99]}}, "layer_set"),
    ({"jmmd": {"bandwidths": [1.0, 2.0]}}, "jmmd.bandwidths"),
]

# (section, key, value) that xmcl run must reject before any task is built, and
# a word its error names ("tasks" sets the second task's spec); JSON files may
# spell NaN and Infinity, and json.loads reads them
OUT_OF_RANGE_CONFIGS = [
    ("jmmd", "alpha", float("nan"), "alpha"),
    ("jmmd", "bandwidths", [1.0, float("inf"), 1.0], "bandwidths"),
    ("jmmd", "bandwidths", [1.0, 1.0, float("nan")], "bandwidths"),
    ("cp", "tau", float("nan"), "tau"),
    ("cp", "lam", float("inf"), "lam"),
    ("schedule", "base_lr", float("inf"), "learning rates"),
    ("schedule", "warmup_start_lr", float("nan"), "learning rates"),
    ("schedule", "beta1", 1.0, "betas"),
    ("schedule", "beta2", float("nan"), "betas"),
    ("schedule", "beta1", -0.1, "betas"),
    ("schedule", "eps", 0.0, "eps"),
    ("schedule", "eps", float("inf"), "eps"),
    ("encoder", "temperature", float("nan"), "temperature"),
    ("tasks", "modality_gap", float("nan"), "modality_gap"),
    ("tasks", "task_shift", float("inf"), "task_shift"),
    ("tasks", "noise_sigma", float("inf"), "noise_sigma"),
]


def test_run_with_non_numeric_task_file_exit_2_names_line(tmp_path, capsys):
    spec, task = tmp_path / "spec.json", tmp_path / "task.jsonl"
    spec.write_text(json.dumps(SPEC_PAYLOAD))
    assert main(["gen-data", "--spec", str(spec), "--out", str(task)]) == 0
    lines = task.read_text().splitlines()
    row = json.loads(lines[2])
    row["features"][0] = str(row["features"][0])
    lines[2] = json.dumps(row)
    task.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tasks": [{"path": str(task)}]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "not a JSON number" in err


# (subcommand, extra argv, XMCL_SEED, config/spec overrides, task overrides) each
# carrying one negative seed that must be rejected naming "seed"
NEGATIVE_SEEDS = {
    "run --seed": ("run", ["--seed", "-1"], None, {}, {}),
    "XMCL_SEED": ("run", [], "-1", {}, {}),
    "config seed": ("run", [], None, {"seed": -2}, {}),
    "gen-data --seed": ("gen-data", ["--seed", "-3"], None, {}, {}),
    "task spec seed": ("gen-data", [], None, {"seed": -4}, {}),
    "config task seed": ("run", [], None, {}, {"seed": -4}),
}


@pytest.mark.parametrize("case", NEGATIVE_SEEDS.values(), ids=list(NEGATIVE_SEEDS))
def test_negative_seed_exit_2_names_seed_before_any_task(tmp_path, capsys, monkeypatch, case):
    import xmcl.cli
    import xmcl.trainer

    command, argv, env, overrides, task_overrides = case

    def no_tasks(*args, **kwargs):
        raise AssertionError("built a task before the seed was checked")

    monkeypatch.setattr(xmcl.trainer, "generate_synthetic_task", no_tasks)
    monkeypatch.setattr(xmcl.cli, "generate_synthetic_task", no_tasks)
    if env is not None:
        monkeypatch.setenv("XMCL_SEED", env)
    out = tmp_path / "out"
    if command == "run":
        config = write_config(tmp_path / "config.json", **overrides)
        payload = json.loads(config.read_text())
        payload["tasks"][0].update(task_overrides)
        config.write_text(json.dumps(payload))
        argv = ["run", "--config", str(config), "--out", str(out), *argv]
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC_PAYLOAD, **overrides}))
        argv = ["gen-data", "--spec", str(spec), "--out", str(out / "task.jsonl"), *argv]
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


class TestGenData:
    def test_valid_spec_round_trips(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC_PAYLOAD))
        out = tmp_path / "task.jsonl"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
        ds = load_task(out)
        assert len(ds.train_identities) == 6

    def test_byte_identical_regeneration(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC_PAYLOAD))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-data", "--spec", str(spec), "--out", str(a)])
        main(["gen-data", "--spec", str(spec), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_identities_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC_PAYLOAD, "num_train_ids": 0}))
        code = main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "num_train_ids" in capsys.readouterr().err


class TestRun:
    def test_arms_write_expected_files(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "runs"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        for arm in ("full", "no_mpm"):
            run_dir = out / arm / "seed_0"
            assert (run_dir / "report.json").exists()
            assert (run_dir / "metrics.csv").exists()
            assert (run_dir / "banks.jsonl").exists()
        report = json.loads((out / "full" / "seed_0" / "report.json").read_text())
        assert [s["step"] for s in report["steps"]] == [1, 2, 3, 4, 5]
        # the anti-forgetting comparison is a diff of the two arms' files
        full_csv = (out / "full" / "seed_0" / "metrics.csv").read_text()
        ablation_csv = (out / "no_mpm" / "seed_0" / "metrics.csv").read_text()
        assert full_csv.split("\n")[0] == ablation_csv.split("\n")[0]
        # no_mpm stores nothing in the banks
        assert (out / "no_mpm" / "seed_0" / "banks.jsonl").read_text() == ""

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", "--config", str(config), "--out", str(out1), "--arm", "full"])
        main(["run", "--config", str(config), "--out", str(out2), "--arm", "full"])
        for name in ("report.json", "metrics.csv", "banks.jsonl"):
            assert (out1 / "full/seed_0" / name).read_bytes() == (
                out2 / "full/seed_0" / name
            ).read_bytes()

    def test_reverse_order_same_schema(self, tmp_path):
        config = write_config(tmp_path / "config.json", arms=["full"])
        out = tmp_path / "runs"
        assert (
            main(["run", "--config", str(config), "--out", str(out), "--reverse-order"]) == 0
        )
        report = json.loads((out / "full" / "seed_0" / "report.json").read_text())
        assert report["task_ids"] == [1, 0]
        assert [s["step"] for s in report["steps"]] == [1, 2, 3, 4, 5]

    def test_missing_key_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schedule": {}}))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "tasks" in capsys.readouterr().err

    @pytest.mark.parametrize("train", [{"triplet_margin": -5}, {"label_smoothing": 1.0}])
    def test_bad_train_section_exit_2(self, tmp_path, capsys, train):
        config = write_config(tmp_path / "config.json", train=train)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
        assert next(iter(train)) in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_unknown_arm_exit_2(self, tmp_path):
        config = write_config(tmp_path / "config.json", arms=["bogus"])
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2

    @pytest.mark.parametrize("overrides, key", BAD_CONFIGS, ids=[k for _, k in BAD_CONFIGS])
    def test_bad_config_exit_2(self, tmp_path, capsys, overrides, key):
        config = write_config(tmp_path / "config.json", **overrides)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "section, key, value, word",
        OUT_OF_RANGE_CONFIGS,
        ids=[f"{s}.{k}={v}" for s, k, v, _ in OUT_OF_RANGE_CONFIGS],
    )
    def test_out_of_range_value_exit_2_before_any_task(
        self, tmp_path, capsys, monkeypatch, section, key, value, word
    ):
        import xmcl.trainer

        def no_tasks(*args, **kwargs):
            raise AssertionError("built a task before the config was checked")

        monkeypatch.setattr(xmcl.trainer, "generate_synthetic_task", no_tasks)
        config = write_config(tmp_path / "config.json")
        payload = json.loads(config.read_text())
        target = payload["tasks"][1] if section == "tasks" else payload.setdefault(section, {})
        target[key] = value
        config.write_text(json.dumps(payload))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_pk_p_above_a_later_task_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        import xmcl.trainer

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(xmcl.trainer, "train_task", no_training)
        config = write_config(tmp_path / "config.json")
        payload = json.loads(config.read_text())
        payload["tasks"][1]["num_train_ids"] = 3
        config.write_text(json.dumps(payload))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
        assert "pk_p=4" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("seeds_flag, env", [(["--seeds", "0"], None), ([], "0")])
    def test_zero_seeds_exit_2(self, tmp_path, capsys, monkeypatch, seeds_flag, env):
        if env is not None:
            monkeypatch.setenv("XMCL_SEEDS", env)
        config = write_config(tmp_path / "config.json")
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "runs"), *seeds_flag]
        assert main(argv) == 2
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_bad_seed_env_fails_only_the_run(self, tmp_path, monkeypatch):
        out = TestReport().run_once(tmp_path, arms=("full",))
        monkeypatch.setenv("XMCL_SEEDS", "abc")
        assert main(["report", str(out)]) == 0
        config = tmp_path / "config.json"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config), "--out", str(tmp_path / "runs2")])
        assert exc.value.code == 2
        assert not (tmp_path / "runs2").exists()


def readme_config_block() -> dict:
    text = (ROOT / "README.md").read_text()
    block = text.split("### Config format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


class TestConfigDefaults:
    def test_readme_block_shows_the_code_defaults(self):
        block = readme_config_block()
        assert SynthSpec(**block["tasks"][0]) == SynthSpec()
        config, settings = parse_experiment_config(block)
        defaults, default_settings = parse_experiment_config({"tasks": [{}]})
        assert dataclasses.replace(config, tasks=defaults.tasks) == defaults
        assert settings == default_settings
        # and it lists every settable key
        assert set(block["tasks"][0]) == {f.name for f in dataclasses.fields(SynthSpec)}
        listed = set()
        for key, value in block.items():
            listed |= {f"{key}.{sub}" for sub in value} if isinstance(value, dict) else {key}
        sections = {f"{n}.{f.name}" for n, c in _SECTIONS.items() for f in dataclasses.fields(c)}
        run_keys = {f.name for f in dataclasses.fields(RunSettings)}
        assert listed == {"tasks", *sections, *_FLAT_KEYS, *run_keys}

    def test_integer_fills_float_field(self):
        config, _ = parse_experiment_config({"tasks": [{"modality_gap": 1}], "cp": {"tau": 4}})
        for value in (config.tasks[0].modality_gap, config.cp.tau):
            assert isinstance(value, float)
        assert (config.tasks[0].modality_gap, config.cp.tau) == (1.0, 4.0)

    def test_bench_payloads_parse_back(self, monkeypatch):
        # the benchmark writes its configs in the file format through config_payload
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        for config in (standard_two_task_config(), workloads.wide_three_task_config()):
            payload = json.loads(json.dumps(workloads.config_payload(config)))
            assert parse_experiment_config(payload)[0] == config


class TestScore:
    def test_hand_case(self, tmp_path, capsys):
        inp = tmp_path / "pi.jsonl"
        inp.write_text("[0.6,0.3,0.1]\n")
        assert main(["score", "--input", str(inp)]) == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert row["set_size"] == 3
        assert np.isclose(row["conf"], 0.5)
        assert np.isclose(row["unc"], 3.5)
        assert row["members"] == [0, 1, 2]

    def test_uniform_hundred(self, tmp_path, capsys):
        inp = tmp_path / "pi.jsonl"
        inp.write_text(json.dumps([0.01] * 100) + "\n")
        main(["score", "--input", str(inp)])
        row = json.loads(capsys.readouterr().out.strip())
        assert row["set_size"] == 25
        assert row["unc"] == 25.0

    def test_object_rows_and_file_output(self, tmp_path):
        inp = tmp_path / "pi.jsonl"
        inp.write_text('{"pi":[0.9,0.05,0.05]}\n')
        out = tmp_path / "scored.jsonl"
        assert main(["score", "--input", str(inp), "--out", str(out), "--tau", "0.92"]) == 0
        row = json.loads(out.read_text().strip())
        assert row["set_size"] == 1
        assert row["unc"] == 1.0

    def test_invalid_simplex_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "pi.jsonl"
        inp.write_text("[0.9,0.9]\n")
        assert main(["score", "--input", str(inp)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [('{"p": [0.5, 0.5]}', 'no "pi" field'), ('["a", "b"]', "could not convert"),
         ('{"pi": {"a": 1}}', "float")],
        ids=["missing_pi", "non_numeric", "object_pi"],
    )
    def test_malformed_row_exit_2_names_line(self, tmp_path, capsys, row, message):
        inp = tmp_path / "pi.jsonl"
        inp.write_text("[0.5, 0.5]\n" + row + "\n")
        assert main(["score", "--input", str(inp)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and message in err


    @pytest.mark.parametrize(
        "row", ["[true, false]", '["0.5", "0.5"]', '{"pi": [0.5, true, false]}'],
        ids=["booleans", "numeric_strings", "object_booleans"],
    )
    def test_non_numeric_pi_exit_2_names_line(self, tmp_path, capsys, row):
        # these used to be scored as the probability vectors [1, 0] and [0.5, 0.5]
        inp = tmp_path / "pi.jsonl"
        inp.write_text("[0.5, 0.5]\n" + row + "\n")
        assert main(["score", "--input", str(inp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err and "not a JSON number" in captured.err


class TestReport:
    def run_once(self, tmp_path, arms=("full", "no_mpm")):
        config = write_config(tmp_path / "config.json", arms=list(arms))
        out = tmp_path / "runs"
        main(["run", "--config", str(config), "--out", str(out)])
        return out

    def test_summary_table(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "full" in text and "no_mpm" in text
        assert "avg" in text
        assert (out / "summary.csv").exists()
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "arm,step,task_id,mAP,r1"
        # 2 arms x 5 steps x (2 tasks + avg)
        assert len(lines) == 1 + 2 * 5 * 3

    def test_partial_run_warns(self, tmp_path, capsys):
        out = self.run_once(tmp_path, arms=("full",))
        # simulate an interrupted second arm: directory with no metrics
        (out / "no_mpm" / "seed_0").mkdir(parents=True)
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "full" in text

    def test_diff_table(self, tmp_path, capsys):
        out = self.run_once(tmp_path, arms=("full",))
        out2 = tmp_path / "runs2"
        config = write_config(tmp_path / "config2.json", arms=["full"], seed=1)
        main(["run", "--config", str(config), "--out", str(out2)])
        assert main(["report", str(out), "--diff", str(out2)]) == 0
        text = capsys.readouterr().out
        assert "diff vs" in text
        assert "dmAP" in text

    def test_self_diff_is_all_zero(self, tmp_path, capsys):
        out = self.run_once(tmp_path, arms=("full",))
        main(["report", str(out), "--diff", str(out)])
        text = capsys.readouterr().out
        diff_section = text.split("diff vs")[1]
        deltas = [
            float(v)
            for line in diff_section.strip().split("\n")[2:]
            if not line.startswith(("warning", "wrote"))
            for v in line.split()[-2:]
        ]
        assert deltas and all(d == 0.0 for d in deltas)

    def test_empty_dir_exit_2(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2

    GOOD_ROW = "1,0,50.0,40.0,60.0,70.0"

    @pytest.mark.parametrize(
        "row, report, where, message",
        [
            ("1,0,50.0,40.0", None, "metrics.csv line 3", "expected 6 fields, got 4"),
            ("1,0,abc,40,50,60", None, "metrics.csv line 3", "could not convert string to float: 'abc'"),
            ("1,0,nan,40,50,60", None, "metrics.csv line 3", "non-finite metric in '1,0,nan,40,50,60'"),
            (GOOD_ROW, '{"warnings": [\n  oops', "report.json line 2", "invalid JSON"),
        ],
        ids=["field_count", "non_numeric", "nan_map", "bad_report_json"],
    )
    def test_broken_run_file_names_path_and_line(self, tmp_path, capsys, row, report, where, message):
        run_dir = tmp_path / "runs" / "full" / "seed_0"
        run_dir.mkdir(parents=True)
        (run_dir / "metrics.csv").write_text(f"step,task_id,mAP,r1,r5,r10\n{self.GOOD_ROW}\n{row}\n")
        if report is not None:
            (run_dir / "report.json").write_text(report)
        assert main(["report", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert f"error: {run_dir / where}: {message}" in err
