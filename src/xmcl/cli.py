"""Batch front-end: data generation, experiment runs, scoring, reporting.

Subcommands:
    gen-data  render a seeded synthetic task spec (JSON) to a task file (JSONL)
    run       execute every configured arm x seed and write reports
    score     conformal-score a JSONL file of probability vectors
    report    summarize one run directory, or diff two

run writes report.json, metrics.csv and banks.jsonl per <arm>/seed_<n>/.
Each (arm, seed) job trains in its own forked process, up to one per CPU the
process may use (os.sched_getaffinity; taskset limits it), and in-process
when that is one CPU or one job.  Pin BLAS to one thread
(OPENBLAS_NUM_THREADS=1) so the processes do not oversubscribe the cores;
memory is per process.  The first failing job in job order sets the exit
code; jobs the pool has already started or queued (about two per worker)
finish and write their files, and the rest never start.  Files and stdout
do not depend on the number of processes.
report reads only the report.json files; metrics.csv holds the same records
as CSV for users and is not read back.  A malformed report exits 2 naming it;
--diff names each arm whose rows one side lacks.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import itertools
import json
import math
import operator
import os
import sys
import types
import typing
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .banks import save_banks
from .conformal import CpConfig, prediction_set
from .data import SynthSpec, TaskFileError, generate_synthetic_task, json_numbers, save_task
from .losses import JmmdSpec
from .trainer import ExperimentConfig, Schedule, report_to_csv, run_sequence

ARMS = ("full", "no_mpm", "alpha_zero")

# config-file sections that are one dataclass each
_SECTIONS = {"schedule": Schedule, "cp": CpConfig, "jmmd": JmmdSpec}
# every other ExperimentConfig field, keyed by its config-file key
_FLAT_KEYS = {
    "encoder.hidden_dims": "hidden_dims",
    "encoder.embedding_dim": "embedding_dim",
    "encoder.temperature": "temperature",
    "pk.p": "pk_p",
    "pk.k": "pk_k",
    "mpm": "mpm",
    "train.triplet_margin": "triplet_margin",
    "train.label_smoothing": "label_smoothing",
    "train.freeze_shared_on_replay": "freeze_shared_on_replay",
    "eval.use_cosine": "use_cosine_eval",
    "eval.swap_direction": "swap_eval_direction",
}
_GROUPS = {key.split(".")[0] for key in _FLAT_KEYS if "." in key}


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunSettings:
    """Which arms and master seeds ``xmcl run`` trains; its flags override these."""

    arms: tuple[str, ...] = ("full",)
    seed: int = 0
    seeds: int = 1

    def __post_init__(self) -> None:
        for arm in self.arms:
            if arm not in ARMS:
                raise ConfigError(f"unknown arm {arm!r}; choose from {ARMS}")
        if not self.arms:
            raise ConfigError("arms must name at least one arm")
        if len(set(self.arms)) < len(self.arms):
            raise ConfigError(f"arms must not repeat an arm, got {list(self.arms)}")
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.seeds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _typed(value, hint, what: str):
    """value if its JSON type matches the annotation hint (lists become tuples)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        for option in args:
            try:
                return _typed(value, option, what)
            except ConfigError:
                pass
    elif origin in (tuple, Sequence):
        if isinstance(value, list):
            return tuple(_typed(v, args[0], what) for v in value)
    elif isinstance(value, (int, float) if hint is float else hint) and (
        hint is bool or not isinstance(value, bool)
    ):
        try:
            return float(value) if hint is float else value
        except OverflowError:
            raise ConfigError(f"{what} is an integer too large for a float") from None
    raise ConfigError(f"{what} must be {getattr(hint, '__name__', hint)}, got {value!r}")


def _build(cls, payload, where: str, rename: dict[str, str] | None = None, **given):
    """cls from one config-file object, with defaults from cls's own fields.

    An omitted key keeps the field's default; an unknown key or a value of
    the wrong JSON type is a ConfigError naming the key.  rename maps file
    keys to field names; given supplies fields that are already built.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be an object, got {payload!r}")
    hints = typing.get_type_hints(cls)
    rename = rename or {f.name: f.name for f in dataclasses.fields(cls)}
    kwargs = dict(given)
    for key, value in payload.items():
        if key not in rename:
            raise ConfigError(f"unknown key {key!r} in {where}")
        kwargs[rename[key]] = _typed(value, hints[rename[key]], f"key {key!r} in {where}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"bad {where}: {e}") from e


def _task(entry, where: str) -> SynthSpec | str:
    if isinstance(entry, dict) and "path" in entry:
        if extra := sorted(set(entry) - {"path"}):
            raise ConfigError(f"unknown key(s) {extra} in {where}: a path entry takes only 'path'")
        return _typed(entry["path"], str, f"key 'path' in {where}")
    return _build(SynthSpec, entry, where)


def parse_experiment_config(payload: dict) -> tuple[ExperimentConfig, RunSettings]:
    """Translate a config-file dict into an ExperimentConfig plus run settings."""
    if not isinstance(payload, dict):
        raise ConfigError("a config file must hold a JSON object")
    entries = payload.get("tasks")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config key 'tasks' must list at least one task")
    tasks = [_task(entry, f"tasks[{i}]") for i, entry in enumerate(entries)]
    sections = {
        name: _build(cls, payload.get(name, {}), name) for name, cls in _SECTIONS.items()
    }
    flat, run = {}, {}
    for key, value in payload.items():
        if key in _GROUPS:
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object, got {value!r}")
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        elif key in _FLAT_KEYS:
            flat[key] = value
        elif key not in ("tasks", *_SECTIONS):
            run[key] = value
    config = _build(ExperimentConfig, flat, "config file", _FLAT_KEYS, tasks=tasks, **sections)
    return config, _build(RunSettings, run, "config file")


def arm_config(base: ExperimentConfig, arm: str) -> ExperimentConfig:
    if arm == "full":
        return base
    if arm == "no_mpm":
        return dataclasses.replace(base, mpm=False)
    if arm == "alpha_zero":
        return dataclasses.replace(base, jmmd=dataclasses.replace(base.jmmd, alpha=0.0))
    raise ConfigError(f"unknown arm {arm!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    payload = json.loads(Path(args.spec).read_text())
    spec = _build(SynthSpec, payload, "task spec")
    dataset = generate_synthetic_task(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_task(dataset, out)
    print(
        f"wrote {out} ({len(dataset.train)} train / {len(dataset.query)} query / "
        f"{len(dataset.gallery)} gallery samples)"
    )
    return 0


def _run_job(job: tuple[ExperimentConfig, str, int, Path]) -> str:
    """Train one (arm, master seed), write its run files, return its stdout line."""
    config, arm, master, out_root = job
    report, exp = run_sequence(config, master)
    report["arm"] = arm
    run_dir = out_root / arm / f"seed_{master}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    (run_dir / "metrics.csv").write_text(report_to_csv(report))
    save_banks(exp.banks, run_dir / "banks.jsonl")
    final = report["steps"][-1]["average"]
    return (
        f"[{arm} seed {master}] steps={len(report['steps'])} "
        f"final avg mAP={final['mAP']:.2f} r1={final['r1']:.2f}"
    )


def cmd_run(args) -> int:
    config, settings = parse_experiment_config(json.loads(Path(args.config).read_text()))
    flags = dict(arms=args.arm, seed=args.seed, seeds=args.seeds)
    settings = dataclasses.replace(settings, **{k: v for k, v in flags.items() if v is not None})
    if args.reverse_order:
        config = dataclasses.replace(config, tasks=list(reversed(config.tasks)))
    jobs = [
        (arm_config(config, arm), arm, settings.seed + i, Path(args.out))
        for arm in settings.arms
        for i in range(settings.seeds)
    ]
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(jobs), len(affinity(0))) if affinity else 1
    pool = None
    if workers > 1:
        # imported here: the import costs every other command a few ms
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        # results come back in job order; the first failing job raises here
        for line in (pool.map if pool else map)(_run_job, jobs):
            print(line)
    finally:
        if pool:
            # started jobs finish and write their files; pending ones never start
            # (map's iterator cancels them too, but only once it is finalized)
            pool.shutdown(cancel_futures=True)
    return 0


def cmd_score(args) -> int:
    config = CpConfig(lam=args.lam, k_reg=args.k_reg, tau=args.tau)
    out_lines = []
    for lineno, raw in enumerate(Path(args.input).read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as e:
            raise TaskFileError(lineno, f"invalid JSON ({e.msg})") from e
        try:
            ps = prediction_set(json_numbers(row["pi"] if isinstance(row, dict) else row), config)
        except KeyError as e:
            raise TaskFileError(lineno, 'object row has no "pi" field') from e
        except (TypeError, ValueError) as e:
            raise TaskFileError(lineno, str(e)) from e
        out_lines.append(
            json.dumps(
                {
                    "set_size": ps.size,
                    "conf": ps.conf,
                    "unc": ps.unc,
                    "members": ps.members.tolist(),
                },
                sort_keys=True,
            )
        )
    text = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(out_lines)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def _summarize(run_dir: Path) -> tuple[list[dict], list[str]]:
    """Median-over-seeds mAP/r1 per (arm, step, task), plus per-step averages.

    Reads every <run_dir>/<arm>/seed_*/report.json and <run_dir>/report.json;
    a report's arm is the directory above its seed_* directory, else "run".
    Returns the summary rows and each report's warnings.  A report that is not
    JSON, lacks a key or holds a non-finite metric is a ConfigError naming it.
    """
    paths = sorted(run_dir.glob("*/seed_*/report.json"))
    if (run_dir / "report.json").exists():
        paths.append(run_dir / "report.json")
    if not paths:
        raise ConfigError(f"no report.json found under {run_dir}")
    cells, warnings = {}, []
    for path in paths:
        arm = path.parent.parent.name if path.parent.name.startswith("seed_") else "run"
        try:
            report = json.loads(path.read_text())
            for entry in report["steps"]:
                step = _typed(entry["step"], int, "step")
                for row in entry["records"]:
                    key = arm, step, _typed(row["task_id"], int, "task_id")
                    metrics = [_typed(row[k], float, k) for k in ("mAP", "r1")]
                    if not all(map(math.isfinite, metrics)):
                        raise ValueError(f"non-finite metric {metrics} at step {step}")
                    cells.setdefault(key, []).append(metrics)
            listed = _typed(report.get("warnings", []), tuple[str, ...], "warnings")
            warnings += [f"{path.parent}: {w}" for w in listed]
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path} line {e.lineno}: invalid JSON ({e.msg})") from e
        except (KeyError, TypeError, ValueError) as e:
            problem = f"no key {e}" if isinstance(e, KeyError) else e
            raise ConfigError(f"{path}: malformed report ({problem})") from e
    summary = []
    for (arm, step), keys in itertools.groupby(sorted(cells), key=lambda key: key[:2]):
        rows = []
        for key in keys:
            m, r1 = np.median(cells[key], axis=0).tolist()
            rows.append({"arm": arm, "step": step, "task_id": str(key[2]), "mAP": m, "r1": r1})
        avg = {k: float(np.mean([row[k] for row in rows])) for k in ("mAP", "r1")}
        summary += [*rows, {"arm": arm, "step": step, "task_id": "avg", **avg}]
    return summary, warnings


def _print_table(title: str, columns: tuple[str, str], rows: list[dict]) -> None:
    print(title)
    print(f'{"arm":<12}{"step":>5}{"task":>8}{columns[0]:>10}{columns[1]:>10}')
    for row in rows:
        print(
            f'{row["arm"]:<12}{row["step"]:>5}{row["task_id"]:>8}'
            f'{row["mAP"]:>10.2f}{row["r1"]:>10.2f}'
        )


def cmd_report(args) -> int:
    summary, warnings = _summarize(Path(args.run_dir))
    _print_table(f"run summary: {args.run_dir} (medians over seeds)", ("mAP", "r1"), summary)
    for w in warnings:
        print(f"warning: {w}")

    if args.diff:
        other_summary, other_warnings = _summarize(Path(args.diff))
        key = operator.itemgetter("arm", "step", "task_id")
        other = {key(r): r for r in other_summary}
        deltas = [
            {**row, "mAP": row["mAP"] - theirs["mAP"], "r1": row["r1"] - theirs["r1"]}
            for row in summary
            if (theirs := other.get(key(row)))
        ]
        print()
        _print_table(f"diff vs {args.diff} (this minus other)", ("dmAP", "dr1"), deltas)
        ours = {key(r) for r in summary}
        sides = ((args.run_dir, summary, other), (args.diff, other_summary, ours))
        for run_dir, rows, keys in sides:
            alone = collections.Counter(r["arm"] for r in rows if key(r) not in keys)
            for arm, count in sorted(alone.items()):
                print(f"not diffed: arm {arm} has {count} rows only in {run_dir}")
        for w in other_warnings:
            print(f"warning: {w}")

    csv_lines = ["arm,step,task_id,mAP,r1"]
    csv_lines += [
        f'{r["arm"]},{r["step"]},{r["task_id"]},{r["mAP"]!r},{r["r1"]!r}' for r in summary
    ]
    out = Path(args.out) if args.out else Path(args.run_dir) / "summary.csv"
    out.write_text("\n".join(csv_lines) + "\n")
    print(f"\nwrote {out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmcl",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="render a synthetic task spec to a task file")
    g.add_argument("--spec", required=True, help="JSON file with SynthSpec fields")
    g.add_argument("--out", required=True, help="output task file (JSONL)")
    g.set_defaults(func=cmd_gen_data)

    r = sub.add_parser("run", help="run every configured arm x seed")
    r.add_argument("--config", required=True, help="experiment config (JSON)")
    r.add_argument("--out", default="runs", help="output directory (default: runs)")
    r.add_argument("--seed", type=int, help="master seed (overrides the config's seed)")
    r.add_argument("--seeds", type=int, help="seed count (overrides the config's seeds)")
    r.add_argument("--reverse-order", action="store_true", help="train tasks in reverse")
    r.add_argument("--arm", action="append", choices=ARMS, help="restrict arms (repeatable)")
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("score", help="conformal-score probability vectors")
    s.add_argument("--input", required=True, help="JSONL: one probability vector per line")
    s.add_argument("--out", help="output JSONL (default: stdout)")
    s.add_argument("--lam", type=float, default=CpConfig.lam)
    s.add_argument("--k-reg", type=int, default=CpConfig.k_reg)
    s.add_argument("--tau", type=float, default=CpConfig.tau)
    s.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("run_dir")
    p.add_argument("--diff", help="second run directory to diff against")
    p.add_argument("--out", help="summary CSV path (default: <run_dir>/summary.csv)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as e:
        # covers ConfigError, bad task specs/files, and invalid experiment setups
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
