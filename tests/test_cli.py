import dataclasses
import importlib
import json
import os
import pickle
import shutil
import statistics
import time
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
    ({"jmmd": {"alpha": 10**400}}, "alpha"),
    # keys that no longer exist: Adam's constants, auxiliary identities and the
    # task order, which only the --reverse-order flag sets
    ({"schedule": {"beta1": 0.9}}, "beta1"),
    ({"schedule": {"beta2": 0.999}}, "beta2"),
    ({"schedule": {"eps": 1e-8}}, "eps"),
    ({"tasks": [{"num_aux_ids": 4}]}, "num_aux_ids"),
    ({"reverse_order": False}, "reverse_order"),
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
    # Adam's constants are no longer keys: any value is rejected as unknown
    ("schedule", "beta1", 1.0, "unknown key 'beta1'"),
    ("schedule", "beta2", float("nan"), "unknown key 'beta2'"),
    ("schedule", "beta1", -0.1, "unknown key 'beta1'"),
    ("schedule", "eps", 0.0, "unknown key 'eps'"),
    ("schedule", "eps", float("inf"), "unknown key 'eps'"),
    ("encoder", "temperature", float("nan"), "temperature"),
    ("tasks", "modality_gap", float("nan"), "modality_gap"),
    ("tasks", "task_shift", float("inf"), "task_shift"),
    ("tasks", "noise_sigma", float("inf"), "noise_sigma"),
    # identity labels task_id * ID_STRIDE + k are int64
    ("tasks", "task_id", 10**30, "past int64"),
    # Euclidean sketch-to-photo ranking and replay that steps the shared
    # weights are the only behaviours: these keys accept only false
    ("eval", "use_cosine", True, "use_cosine_eval must be false"),
    ("eval", "swap_direction", True, "swap_eval_direction must be false"),
    ("train", "freeze_shared_on_replay", True, "freeze_shared_on_replay must be false"),
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


def test_run_with_task_file_id_past_int64_exit_2_names_line(tmp_path, capsys):
    spec, task = tmp_path / "spec.json", tmp_path / "task.jsonl"
    spec.write_text(json.dumps(SPEC_PAYLOAD))
    assert main(["gen-data", "--spec", str(spec), "--out", str(task)]) == 0
    lines = task.read_text().splitlines()
    row = json.loads(lines[1])
    row["id"] = 10**23
    lines[1] = json.dumps(row)
    task.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tasks": [{"path": str(task)}]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "does not fit a 64-bit integer" in err
    assert not (tmp_path / "runs").exists()


def test_run_with_negative_task_file_task_id_exit_2_names_line(tmp_path, capsys):
    spec, task = tmp_path / "spec.json", tmp_path / "task.jsonl"
    spec.write_text(json.dumps(SPEC_PAYLOAD))
    assert main(["gen-data", "--spec", str(spec), "--out", str(task)]) == 0
    rows = [json.loads(line) for line in task.read_text().splitlines()]
    task.write_text("".join(json.dumps({**row, "task": -3}) + "\n" for row in rows))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tasks": [{"path": str(task)}]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    assert "error: line 1: task must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("split", ["train", "query", "gallery"])
def test_run_with_non_finite_task_file_feature_exit_2_names_line(
    tmp_path, capsys, monkeypatch, split, value
):
    # json reads NaN and Infinity; a run must not train on them
    import xmcl.trainer

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the task file was checked")

    monkeypatch.setattr(xmcl.trainer, "train_task", no_training)
    spec, task = tmp_path / "spec.json", tmp_path / "task.jsonl"
    spec.write_text(json.dumps(SPEC_PAYLOAD))
    assert main(["gen-data", "--spec", str(spec), "--out", str(task)]) == 0
    lines = task.read_text().splitlines()
    # the second row of the split
    at = [json.loads(line)["split"] for line in lines].index(split) + 1
    row = json.loads(lines[at])
    row["features"][2] = float(value)
    lines[at] = json.dumps(row)
    assert value in lines[at]
    task.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tasks": [{"path": str(task)}]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert f"line {at + 1}: features must be finite, not NaN or Infinity" in err
    assert not (tmp_path / "runs").exists()


# (subcommand, extra argv, config/spec overrides, task overrides) each carrying
# one negative seed that must be rejected naming "seed"
NEGATIVE_SEEDS = {
    "run --seed": ("run", ["--seed", "-1"], {}, {}),
    "config seed": ("run", [], {"seed": -2}, {}),
    "task spec seed": ("gen-data", [], {"seed": -4}, {}),
    "config task seed": ("run", [], {}, {"seed": -4}),
}

# the same four fields, each case carrying one count for which an array the run
# builds would pass numpy's limit of np.iinfo(np.intp).max bytes, and the key
# its error must name
OVERSIZED_COUNTS = {
    "pk.k": ("run", [], {"pk": {"p": 4, "k": 2**62}}, {}, "pk.k"),
    "pk.p": ("run", [], {"pk": {"p": 2**62, "k": 2}}, {}, "pk.p"),
    "pk.k distance stack": ("run", [], {"pk": {"p": 4, "k": 2**30}}, {}, "pk.k"),
    "encoder.hidden_dims": (
        "run", [], {"encoder": {"hidden_dims": [2**62]}}, {}, "hidden_dims"
    ),
    "encoder.embedding_dim": (
        "run", [], {"encoder": {"embedding_dim": 2**62}}, {}, "embedding_dim"
    ),
    "latent_dim": ("run", [], {}, {"latent_dim": 2**62}, "latent_dim"),
    "feature_dim": ("run", [], {}, {"feature_dim": 2**62}, "feature_dim"),
    "sketches_per_id": ("run", [], {}, {"sketches_per_id": 2**62}, "sketches_per_id"),
    "photos_per_id": ("run", [], {}, {"photos_per_id": 2**62}, "photos_per_id"),
    "num_train_ids": ("run", [], {}, {"num_train_ids": 2**62}, "num_train_ids"),
    "num_test_ids": ("run", [], {}, {"num_test_ids": 2**62}, "num_test_ids"),
    "task spec latent_dim": ("gen-data", [], {"latent_dim": 2**62}, {}, "latent_dim"),
    "task spec feature_dim": ("gen-data", [], {"feature_dim": 2**62}, {}, "feature_dim"),
    "task spec num_train_ids": (
        "gen-data", [], {"num_train_ids": 2**62}, {}, "num_train_ids"
    ),
    "task spec num_test_ids": ("gen-data", [], {"num_test_ids": 2**62}, {}, "num_test_ids"),
}


def exit_code_before_any_task(tmp_path, monkeypatch, command, argv, overrides, task_overrides):
    """main's exit code on one edited config or spec; building a task fails the test."""
    import xmcl.cli
    import xmcl.trainer

    def no_tasks(*args, **kwargs):
        raise AssertionError("built a task before the config was checked")

    monkeypatch.setattr(xmcl.trainer, "generate_synthetic_task", no_tasks)
    monkeypatch.setattr(xmcl.cli, "generate_synthetic_task", no_tasks)
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
    code = main(argv)
    assert not out.exists()
    return code


@pytest.mark.parametrize("case", NEGATIVE_SEEDS.values(), ids=list(NEGATIVE_SEEDS))
def test_negative_seed_exit_2_names_seed_before_any_task(tmp_path, capsys, monkeypatch, case):
    assert exit_code_before_any_task(tmp_path, monkeypatch, *case) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("case", OVERSIZED_COUNTS.values(), ids=list(OVERSIZED_COUNTS))
def test_oversized_count_exit_2_names_key_before_any_task(tmp_path, capsys, monkeypatch, case):
    *edit, key = case
    assert exit_code_before_any_task(tmp_path, monkeypatch, *edit) == 2
    assert key in capsys.readouterr().err


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

    def test_removed_aux_key_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC_PAYLOAD, "num_aux_ids": 2}))
        code = main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "unknown key 'num_aux_ids'" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

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

    def test_unknown_arm_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        for arm in ("bogus", "no_aux"):
            config = write_config(tmp_path / "config.json", arms=[arm])
            assert main(["run", "--config", str(config), "--out", out]) == 2
            assert f"unknown arm {arm!r}" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", str(config), "--out", out, "--arm", arm])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "invalid choice" in err and arm in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "arms, flags",
        [([], []), (["no_mpm", "no_mpm"], []), (["full"], ["--arm", "no_mpm", "--arm", "no_mpm"])],
        ids=["empty", "repeated", "repeated_flag"],
    )
    def test_empty_or_repeated_arms_exit_2_before_training(
        self, tmp_path, capsys, monkeypatch, arms, flags
    ):
        import xmcl.cli

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the arms were checked")

        monkeypatch.setattr(xmcl.cli, "run_sequence", no_training)
        config = write_config(tmp_path / "config.json", arms=arms)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs"), *flags]) == 2
        assert "arms" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

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

    def test_zero_seeds_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "runs"), "--seeds", "0"]
        assert main(argv) == 2
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


ERRORS = {
    "cli.ConfigError": ("bad key",),
    "conformal.SimplexError": ("not a distribution",),
    "data.SynthSpecError": ("bad spec",),
    "data.TaskFileError": (3, "missing or malformed field ('task')"),
    "data.DatasetValidationError": ("ids overlap",),
    "encoder.ConfigurationError": ("bad encoder",),
    "encoder.ShapeError": ("bad batch",),
    "encoder.UsageError": ("no head",),
    "losses.LossInputError": ("empty set",),
}


def test_errors_list_every_exception_class_of_the_library():
    found = set()
    for path in (ROOT / "src" / "xmcl").glob("[!_]*.py"):
        module = importlib.import_module(f"xmcl.{path.stem}")
        found |= {
            f"{path.stem}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
    assert found == set(ERRORS)


@pytest.mark.parametrize("name", ERRORS)
def test_error_survives_a_pickle_round_trip(name):
    # a job's error reaches the parent of an xmcl run process pool by pickle
    module, cls = name.split(".")
    error = getattr(importlib.import_module(f"xmcl.{module}"), cls)(*ERRORS[name])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert vars(copy) == vars(error)  # TaskFileError's .line among them


def set_cpus(monkeypatch, count: int) -> None:
    """Make xmcl run see count usable CPUs: 1 trains in-process, 2 in a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def tree_bytes(root: Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


class TestRunFanOut:
    def test_pool_and_in_process_write_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path / "config.json", arms=["full", "no_mpm"], seeds=2)
        trees, stdouts = [], []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            out = tmp_path / f"runs_{cpus}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            trees.append(tree_bytes(out))
            stdouts.append(capsys.readouterr().out)
        assert len(trees[0]) == 2 * 2 * 3 and trees[0] == trees[1]
        assert stdouts[0].splitlines()[0].startswith("[full seed 0] steps=5")
        assert len(stdouts[0].splitlines()) == 4 and stdouts[0] == stdouts[1]

    def test_malformed_task_file_exit_2_with_the_one_job_message(
        self, tmp_path, capsys, monkeypatch
    ):
        task = tmp_path / "task.jsonl"
        task.write_text('{"x": 1}\n')
        set_cpus(monkeypatch, 2)
        errors = []
        for seeds in (1, 2):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"tasks": [{"path": str(task)}], "seeds": seeds}))
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "error: line 1: missing or malformed field ('task')\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "pool"])
    def test_failing_job_exit_1_and_later_jobs_never_start(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        import xmcl.cli

        real = xmcl.cli.run_sequence

        def fail_seed_0(config, seed):
            if seed == 0:
                raise FloatingPointError("overflow in seed 0")
            time.sleep(0.05)  # jobs outlast the parent's cancel
            return real(config, seed)

        # patched before the pool forks, so every child has it
        monkeypatch.setattr(xmcl.cli, "run_sequence", fail_seed_0)
        set_cpus(monkeypatch, cpus)
        config = write_config(tmp_path / "config.json", arms=["full"], seeds=12)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "runtime failure: overflow in seed 0\n"
        assert captured.out == ""  # the first job failed, so no line is printed
        # the jobs that ran form a prefix of the job order and wrote all their
        # files; the pool starts or queues about two a worker, and cancels the rest
        jobs = [f"full/seed_{seed}" for seed in range(12)]
        written = [job for job in jobs if (out / job).exists()]
        assert written == jobs[1 : 1 + len(written)]
        assert len(written) < len(jobs) - 1
        assert all(len(list((out / job).iterdir())) == 3 for job in written)
        if cpus == 1:
            assert written == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "pool"])
    def test_closed_stdout_exit_1_and_later_jobs_never_start(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        # as in `xmcl run ... | head -0`: the parent's first print fails while
        # the pool still holds queued jobs, which must not all train
        import xmcl.cli

        real = xmcl.cli.run_sequence

        def slow(config, seed):
            time.sleep(0.05)
            return real(config, seed)

        def closed_stdout(*args, file=None, **kwargs):
            if file is None:
                raise BrokenPipeError(32, "Broken pipe")
            print(*args, file=file, **kwargs)

        monkeypatch.setattr(xmcl.cli, "run_sequence", slow)
        monkeypatch.setattr(xmcl.cli, "print", closed_stdout, raising=False)
        set_cpus(monkeypatch, cpus)
        config = write_config(tmp_path / "config.json", arms=["full"], seeds=12)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "runtime failure: [Errno 32] Broken pipe\n"
        jobs = [f"full/seed_{seed}" for seed in range(12)]
        written = [job for job in jobs if (out / job).exists()]
        assert written == jobs[: len(written)] and 1 <= len(written) < len(jobs)
        if cpus == 1:
            assert written == jobs[:1]


def readme_config_block() -> dict:
    text = (ROOT / "README.md").read_text()
    block = text.split("### Config format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


def test_readme_library_tour_runs_as_written(capsys):
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3", "4", "5"]


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
         ('{"pi": {"a": 1}}', "float"), (f"[{10**400}, 0]", "too large")],
        ids=["missing_pi", "non_numeric", "object_pi", "int_beyond_float"],
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

    @staticmethod
    def metrics_csv_cells(paths) -> dict:
        """(arm, step, task_id) -> [(mAP, r1) per seed], parsed from metrics.csv files."""
        cells = {}
        for path in paths:
            for line in path.read_text().splitlines()[1:]:
                step, task, m, r1 = line.split(",")[:4]
                cells.setdefault((path.parent.parent.name, step, task), []).append((float(m), float(r1)))
        return cells

    @staticmethod
    def summary_csv(path) -> dict:
        lines = path.read_text().splitlines()
        assert lines[0] == "arm,step,task_id,mAP,r1"
        return {tuple(f[:3]): (float(f[3]), float(f[4])) for f in (ln.split(",") for ln in lines[1:])}

    def test_summary_table(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", arms=["full", "no_mpm"], seeds=3)
        out = tmp_path / "runs"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "full" in text and "no_mpm" in text and "avg" in text
        # each value is the median over seeds of the run's own metrics.csv records
        cells = self.metrics_csv_cells(out.glob("*/seed_*/metrics.csv"))
        assert len(cells) == 2 * 5 * 2 and all(len(seeds) == 3 for seeds in cells.values())
        expected = {
            key: tuple(statistics.median(column) for column in zip(*seeds))
            for key, seeds in cells.items()
        }
        for arm, step in {key[:2] for key in cells}:
            per_task = [v for key, v in expected.items() if key[:2] == (arm, step)]
            expected[arm, step, "avg"] = tuple(sum(col) / len(col) for col in zip(*per_task))
        assert self.summary_csv(out / "summary.csv") == expected

    def test_a_directory_with_its_own_report(self, tmp_path):
        out = self.run_once(tmp_path, arms=("full",))
        seed_dir, plain = out / "full" / "seed_0", tmp_path / "plain"
        plain.mkdir()
        shutil.copy(seed_dir / "report.json", plain / "report.json")
        # a seed_<n> directory keeps its arm's name; any other directory is "run"
        for run_dir, arm in ((seed_dir, "full"), (plain, "run")):
            assert main(["report", str(run_dir)]) == 0
            summary = self.summary_csv(run_dir / "summary.csv")
            for (_, step, task), values in self.metrics_csv_cells([seed_dir / "metrics.csv"]).items():
                assert summary[arm, step, task] == values[0]
            assert {key[0] for key in summary} == {arm}

    def test_partial_run_warns(self, tmp_path, capsys):
        out = self.run_once(tmp_path, arms=("full",))
        # simulate an interrupted second arm: directory with no report
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

    def test_diff_names_arms_with_rows_on_one_side_only(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", arms=["full", "no_mpm", "alpha_zero"])
        three = tmp_path / "three"
        assert main(["run", "--config", str(config), "--out", str(three)]) == 0
        full_only = tmp_path / "full_only"
        assert main(["run", "--config", str(config), "--out", str(full_only), "--arm", "full"]) == 0
        assert main(["report", str(three)]) == 0
        capsys.readouterr()
        rows = [key[0] for key in self.summary_csv(three / "summary.csv")]
        for this, other in ((three, full_only), (full_only, three)):
            assert main(["report", str(this), "--diff", str(other)]) == 0
            lines = capsys.readouterr().out.split("diff vs", 1)[1].splitlines()
            diffed = {line.split()[0] for line in lines[2:] if line[:1].isalpha()}
            assert "full" in diffed and not {"no_mpm", "alpha_zero"} & diffed
            notes = [line for line in lines if line.startswith("not diffed")]
            assert notes == [
                f"not diffed: arm {arm} has {rows.count(arm)} rows only in {three}"
                for arm in ("alpha_zero", "no_mpm")
            ]

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

    GOOD_REPORT = {"steps": [{"step": 1, "records": [{"task_id": 0, "mAP": 50.0, "r1": 40.0}]}]}

    @pytest.mark.parametrize(
        "report, message",
        [
            ('{"steps": [\n  oops', "report.json line 2: invalid JSON (Expecting value)"),
            ("[1, 2]", "report.json: malformed report (list indices must be integers"),
            ('{"warnings": []}', "report.json: malformed report (no key 'steps')"),
            ('{"steps": [{"step": 1}]}', "report.json: malformed report (no key 'records')"),
            (
                '{"steps": [{"step": 1, "records": [{"task_id": 0, "r1": 40.0}]}]}',
                "report.json: malformed report (no key 'mAP')",
            ),
            (
                '{"steps": [{"step": 1, "records": [{"task_id": 0, "mAP": "abc", "r1": 40.0}]}]}',
                "report.json: malformed report (mAP must be float, got 'abc')",
            ),
            (
                '{"steps": [{"step": 1, "records": [{"task_id": 0, "mAP": NaN, "r1": 40.0}]}]}',
                "report.json: malformed report (non-finite metric [nan, 40.0] at step 1)",
            ),
            (
                '{"steps": [], "warnings": "oops"}',
                "report.json: malformed report (warnings must be tuple, got 'oops')",
            ),
            (
                '{"steps": [], "warnings": ["ok", 3]}',
                "report.json: malformed report (warnings must be str, got 3)",
            ),
            (
                '{"steps": [], "warnings": null}',
                "report.json: malformed report (warnings must be tuple, got None)",
            ),
            (
                '{"steps": [], "warnings": {"oops": 1}}',
                "report.json: malformed report (warnings must be tuple, got {'oops': 1})",
            ),
        ],
        ids=[
            "bad_report_json", "non_object", "no_steps", "no_records", "no_map", "non_numeric",
            "nan_map", "string_warnings", "numeric_warning", "null_warnings", "object_warnings",
        ],
    )
    def test_broken_run_file_names_path_and_line(self, tmp_path, capsys, report, message):
        runs = tmp_path / "runs"
        (runs / "full" / "seed_0").mkdir(parents=True)
        (runs / "full" / "seed_0" / "report.json").write_text(json.dumps(self.GOOD_REPORT))
        run_dir = runs / "full" / "seed_1"
        run_dir.mkdir()
        (run_dir / "report.json").write_text(report)
        assert main(["report", str(runs)]) == 2
        err = capsys.readouterr().err
        assert f"error: {run_dir / message}" in err
        assert not (runs / "summary.csv").exists()
