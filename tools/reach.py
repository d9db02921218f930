#!/usr/bin/env python3
"""Print the statements of src/xmcl that no run path reaches.

    python3 tools/reach.py

Run from anywhere; it imports xmcl from this checkout's src/.  One
``sys.settrace`` line probe watches, in one process:

- one ``Runner.op`` of each benchmark workload (perfbench/workloads.py);
- ``xmcl gen-data``, ``score`` and ``report --diff``;
- the five demos, as ``__main__``.

Forked workers of ``xmcl run``'s process pool inherit the probe and leave
the lines they reached in a spool directory when they exit.  Then, per
module, every statement that none of these executed is printed, except on
error paths: ``raise`` statements, statement blocks that end in one, and
``except`` handlers.  Their tests are their callers.  Function and class
headers, docstrings and ``pass`` are not counted.  A statement is reached
when a line event fires on any of its own lines (for a compound statement,
the lines of its header).  Exits non-zero only when a step fails.  Uses the
standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import multiprocessing.util
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "xmcl"


class Probe:
    """The (file, line) pairs reached in PACKAGE, by this process and its forked workers."""

    def __init__(self, spool: Path):
        self.prefix = str(PACKAGE) + os.sep
        self.spool = spool
        self.lines: set[tuple[str, int]] = set()
        multiprocessing.util.register_after_fork(self, Probe._after_fork)

    def _trace_line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._trace_line

    def _trace_call(self, frame, event, arg):
        return self._trace_line if frame.f_code.co_filename.startswith(self.prefix) else None

    def start(self) -> None:
        sys.settrace(self._trace_call)

    def stop(self) -> None:
        sys.settrace(None)

    def _after_fork(self) -> None:
        # in a multiprocessing child: keep only its own lines, and write them
        # when it exits (multiprocessing runs its finalizers before os._exit)
        self.lines = set()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=0)
        self.start()

    def _dump(self) -> None:
        fd, path = tempfile.mkstemp(suffix=".json", dir=self.spool)
        with os.fdopen(fd, "w") as f:
            json.dump(sorted(self.lines), f)

    def collect(self) -> None:
        for path in self.spool.glob("*.json"):
            self.lines.update((file, line) for file, line in json.loads(path.read_text()))


def run_paths(work: Path) -> None:
    """Every run path the probe watches; a failing step raises."""
    import workloads
    import xmcl.cli

    for name in workloads.WORKLOADS:
        workloads.Runner(name, work / name).op(0)

    def cli(*argv: str) -> None:
        code = xmcl.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"xmcl {' '.join(argv)} exited with {code}")

    spec = work / "spec.json"
    spec.write_text(json.dumps({"latent_dim": 4, "feature_dim": 8, "num_train_ids": 6, "num_test_ids": 3}))
    cli("gen-data", "--spec", str(spec), "--out", str(work / "task.jsonl"))
    (work / "pi.jsonl").write_text('[0.6, 0.3, 0.1]\n{"pi": [0.9, 0.05, 0.05]}\n')
    cli("score", "--input", str(work / "pi.jsonl"), "--out", str(work / "scores.jsonl"))
    runs = work / "cli_arms" / "op_1"
    cli("report", str(runs), "--diff", str(runs), "--out", str(work / "summary.csv"))

    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def _docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def statements(tree: ast.Module) -> dict[int, range]:
    """{first line: own lines} of every counted statement of a module."""
    found = {}

    def visit(body: list[ast.stmt]) -> None:
        if body and isinstance(body[-1], ast.Raise):
            return
        for stmt in body:
            blocks = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
            for block in blocks:
                visit(block)
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.Pass, ast.Raise),
            ) or _docstring(stmt):
                continue
            inner = [s.lineno for block in blocks for s in block]
            found[stmt.lineno] = range(stmt.lineno, min(inner, default=stmt.end_lineno + 1))

    visit(tree.body)
    return found


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="xmcl-reach-") as tmp:
        work, spool = Path(tmp) / "work", Path(tmp) / "spool"
        work.mkdir()
        spool.mkdir()
        probe = Probe(spool)
        probe.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run_paths(work)
        finally:
            probe.stop()
        probe.collect()
    import xmcl

    if Path(xmcl.__file__).resolve().parent != PACKAGE:
        raise RuntimeError(f"xmcl was imported from {xmcl.__file__}, not from {PACKAGE}")
    counted = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        found = statements(ast.parse(source))
        reached = {line for file, line in probe.lines if file == str(path)}
        missing = [first for first, lines in sorted(found.items()) if reached.isdisjoint(lines)]
        counted += len(found)
        unreached += len(missing)
        print(f"{path.relative_to(ROOT)}: {len(missing)} of {len(found)} statements unreached")
        text = source.splitlines()
        for line in missing:
            print(f"  {line:>4}  {text[line - 1].strip()}")
    print(
        f"{counted - unreached} of {counted} statements reached "
        f"({time.monotonic() - started:.1f} s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
