"""Run every workload several times, or compare two sets of results.

    python3 perfbench/suite.py run [--runs 10] [--first-seed 0]
        [--workload NAME ...] [--out results.json]
    python3 perfbench/suite.py pair --parent DIR --change DIR [--runs 10] [--out-dir D]
    python3 perfbench/suite.py compare parent.json change.json

Every run goes through this checkout's ``run.py``.  ``run`` measures this
checkout's sources; ``pair``'s ``--parent`` and ``--change`` only choose the
library sources it measures (``DIR/src``), so both sides of a comparison use
the same benchmark code.

``run`` runs each workload once per seed untraced, then twice traced on the
first seed (two is what the check that counts repeat needs), and writes
every result line and detail block to one JSON file.  It
prints, per workload, each end-to-end metric with its unit, median,
quartiles and spread (IQR / median) against its bound, the error rate, the
per-layer medians, and the workload-design checks of the traced runs.

``pair`` runs two checkouts seed by seed, alternating which goes first, and
writes ``parent.json`` and ``change.json`` before comparing them.

``compare`` pairs runs by seed and prints, per workload, both sides' failed
and attempted operations, and per end-to-end metric both sides' median and
quartiles, the share of pairs the change wins (ties count for neither) and a
verdict: ``better`` when the change wins at least 9 in 10 pairs and the
medians differ by more than the parent's IQR (and, where the parent's spread
exceeds the bound, every change run beats every parent run); ``worse`` by
the mirrored rule or when the median worsens by more than the bound; else
``unresolved``.  The win-share rules need at least ten pairs.  Two rules override these: a change with more failed
operations than the parent is ``worse`` on that workload and gets no
``better`` verdict there, and a quality metric (paired runs share their
master seeds, so a change that keeps results has identical values) is
``worse`` as soon as one pair loses.  Exits 1 when any verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
COUNT_UNITS = ("count", "ratio")
QUALITY = ("final_avg_mAP", "task0_final_mAP")
TRACED_RUNS = 2
MIN_PAIRS = 10  # the pairing rule's win share needs at least ten pairs

# traced-run shares that confirm what each workload exercises (at the
# commit that defined the benchmark); (metric, min, max)
DESIGN_CHECKS = {
    "two_task_standard": [
        ("losses.share_pct", 50.0, None),
        ("metrics.evaluate.share_pct", None, 10.0),
    ],
    "wide_three_task": [
        ("metrics.evaluate.share_pct", 40.0, None),
        ("losses.share_pct", None, 25.0),
    ],
    "cli_arms": [
        ("arm.alpha_zero.losses.jmmd_with_grad.calls", None, 0.0),
        ("arm.no_mpm.banks.ingest_task.calls", None, 0.0),
    ],
}


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of this checkout's ``run.py`` on ``checkout/src``."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
        "--src", str(checkout / "src"),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    detail = next(json.loads(ln[len("detail: "):]) for ln in lines if ln.startswith("detail: "))
    return {"seed": seed, "wall_s": time.monotonic() - t0, "result": json.loads(lines[-1]), "detail": detail}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in runs]


def summarize(results: dict) -> bool:
    """Print the tables for one results file; True when every check passed."""
    ok = True
    env = next(iter(results["runs"].values()))["plain"][0]["detail"]["env"]
    print(f"env {json.dumps(env, sort_keys=True)}")
    for workload, runs in results["runs"].items():
        plain, traced = runs["plain"], runs["traced"]
        print(f"\n== {workload}: {len(plain)} untraced runs, {len(traced)} traced runs, "
              f"{SPEC['run_seconds']} s each")
        print(f"  {'metric':<20}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name, m in END_TO_END.items():
            vals = metric_values(plain, name)
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else (" > bound/3" if spread <= m["bound"] else " > bound")
            ok &= spread <= m["bound"]
            print(f"  {name:<20}{m['unit']:>6}{med:>14.6f}{q1:>14.6f}{q3:>14.6f}{spread:>9.4f}{m['bound']:>7}{flag}")
        every = plain + traced
        attempted = sum(r["result"]["attempted"] for r in every)
        failed = sum(r["result"]["failed"] for r in every)
        ok &= failed == 0
        print(f"  {'error_rate':<20}{'':>6}{failed / attempted:>14.6f}  ({failed} of {attempted} operations failed)")
        ops = [r["detail"]["ops"] for r in plain]
        print(f"  run_s is the median of {min(ops)}-{max(ops)} operations per run")
        if not traced:
            continue
        print("  per-layer (median over traced runs):")
        for m in SPEC["per_layer"]:
            vals = metric_values(traced, m["name"])
            note = ""
            if m["unit"] in COUNT_UNITS and len(set(vals)) > 1:
                note, ok = "  NOT REPEATABLE", False
            print(f"    {m['name']:<46}{statistics.median(vals):>14.4f} {m['unit']}{note}")
        for name, lo, hi in DESIGN_CHECKS.get(workload, []):
            value = statistics.median(metric_values(traced, name))
            passed = (lo is None or value >= lo) and (hi is None or value <= hi)
            ok &= passed
            bounds = f">= {lo}" if lo is not None else f"<= {hi}"
            print(f"  design check {name} = {value:.2f} ({bounds}): {'ok' if passed else 'FAILED'}")
        missing = {layer for r in traced for layer in r["detail"]["missing_layers"]}
        for layer in sorted(missing):
            print(f"  layer missing: {layer}")
    return ok


def cmd_run(args) -> int:
    checkout = HERE.parent
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    results = {"benchmark": SPEC, "runs": {}}
    for workload in workloads:
        plain = [run_once(checkout, workload, args.first_seed + i, 0) for i in range(args.runs)]
        traced = [run_once(checkout, workload, args.first_seed, 1) for _ in range(TRACED_RUNS)]
        results["runs"][workload] = {"plain": plain, "traced": traced}
    Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    ok = summarize(results)
    print(f"\nwrote {args.out}")
    return 0 if ok else 1


def cmd_pair(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = {side: {"benchmark": SPEC, "runs": {}} for side in sides}
    for w in SPEC["workloads"]:
        for side in sides:
            results[side]["runs"][w["name"]] = {"plain": [], "traced": []}
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                run = run_once(sides[side], w["name"], args.first_seed + i, 0)
                results[side]["runs"][w["name"]]["plain"].append(run)
    for side, res in results.items():
        (out / f"{side}.json").write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    return compare(results["parent"], results["change"])


def failures(runs: list[dict]) -> tuple[int, int]:
    """(failed, attempted) operations over ``runs``."""
    return (sum(r["result"]["failed"] for r in runs), sum(r["result"]["attempted"] for r in runs))


def compare(parent: dict, change: dict) -> int:
    any_worse = False
    for workload, runs in parent["runs"].items():
        if workload not in change["runs"]:
            continue
        by_seed = {r["seed"]: r for r in change["runs"][workload]["plain"]}
        pairs = [(r, by_seed[r["seed"]]) for r in runs["plain"] if r["seed"] in by_seed]
        p_failed, p_attempted = failures([a for a, _ in pairs])
        c_failed, c_attempted = failures([b for _, b in pairs])
        more_failures = c_failed > p_failed
        any_worse |= more_failures
        print(f"\n== {workload}: {len(pairs)} pairs")
        print(f"  failed operations: parent {p_failed} of {p_attempted}, change {c_failed} of {c_attempted}"
              + ("  worse: more failed operations, no metric counts as better" if more_failures else ""))
        print(f"  {'metric':<18}{'parent med':>12}{'[q1, q3]':>24}{'change med':>12}"
              f"{'[q1, q3]':>24}{'won':>7}  verdict")
        for name, m in END_TO_END.items():
            p = [a["result"]["metrics"][name]["value"] for a, _ in pairs]
            c = [b["result"]["metrics"][name]["value"] for _, b in pairs]
            # goodness: larger is better for every metric
            good = (lambda v: -v) if m["better"] == "lower" else (lambda v: v)
            gains = [good(y) - good(x) for x, y in zip(p, c)]
            won = sum(g > 0 for g in gains) / len(gains)
            lost = sum(g < 0 for g in gains) / len(gains)
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            gain = good(cmed) - good(pmed)
            iqr = pq3 - pq1
            wide = iqr > m["bound"] * abs(pmed)
            # with a spread wider than the bound, only a clean separation counts
            separated_up = not wide or min(map(good, c)) > max(map(good, p))
            separated_down = not wide or max(map(good, c)) < min(map(good, p))
            enough = len(pairs) >= MIN_PAIRS
            if name in QUALITY and lost > 0:
                verdict = "worse (lower on a paired seed)"
            elif (enough and lost >= 0.9 and -gain > iqr and separated_down) or -gain > m["bound"] * abs(pmed):
                verdict = "worse"
            elif enough and won >= 0.9 and gain > iqr and separated_up:
                verdict = "unresolved (more failed operations)" if more_failures else "better"
            else:
                verdict = "unresolved" + ("" if wide else " (within bound)") + ("" if enough else " (too few pairs)")
            any_worse |= verdict.startswith("worse")
            print(f"  {name:<18}{pmed:>12.4f}{f'[{pq1:.4f}, {pq3:.4f}]':>24}{cmed:>12.4f}"
                  f"{f'[{cq1:.4f}, {cq3:.4f}]':>24}{won:>7.2f}  {verdict}")
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run every workload and summarize")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=0)
    r.add_argument("--workload", action="append")
    r.add_argument("--out", default="perfbench-results.json")
    r.set_defaults(func=cmd_run)
    p = sub.add_parser("pair", help="alternate runs of two checkouts and compare")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--out-dir", default="perfbench-pair")
    p.set_defaults(func=cmd_pair)
    c = sub.add_parser("compare", help="compare two results files")
    c.add_argument("parent")
    c.add_argument("change")
    c.set_defaults(func=lambda a: compare(*(json.loads(Path(f).read_text()) for f in (a.parent, a.change))))
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
