"""Per-layer spans around the library's public functions.

Each entry of ``PATCHES`` names a function by the module attribute its
caller looks it up through (``from .x import f`` binds ``f`` into the
importing module, so the callers' bindings are the ones patched) and the
layer name it is reported under.  ``Tracer.active()`` swaps every binding
for a timing wrapper and restores the originals on exit; the wrappers only
call through, so a traced run produces the same report bytes as an
untraced one.

Spans are aggregated as they close: per layer the call count, total time
and self time (total minus the time covered by child spans).  Counts that
are not spans are kept alongside:

- skipped batch terms (warnings logged by ``xmcl.trainer``);
- bank offers and admissions seen by ``update_bank``;
- conformal set sizes (the integer part of ``uncertainty``);
- evaluated queries (third value returned by ``ranking_metrics``);
- per-arm call counts inside ``xmcl.cli`` runs.
"""

from __future__ import annotations

import functools
import importlib
import logging
import math
import time
from contextlib import contextmanager

# (module, attribute, layer); "Class.method" patches a method on the class
PATCHES = [
    ("xmcl.trainer", "run_sequence", "trainer.run_sequence"),
    ("xmcl.trainer", "train_task", "trainer.train_task"),
    ("xmcl.trainer", "batch_gradients", "trainer.batch_gradients"),
    ("xmcl.trainer", "Adam.delta", "trainer.adam_delta"),
    ("xmcl.trainer", "forward", "encoder.forward"),
    ("xmcl.trainer", "backward", "encoder.backward"),
    ("xmcl.trainer", "triplet_loss_grad", "losses.triplet_loss_grad"),
    ("xmcl.trainer", "jmmd_with_grad", "losses.jmmd_with_grad"),
    ("xmcl.trainer", "id_loss_grad", "losses.id_loss_grad"),
    ("xmcl.trainer", "i2tce_loss_grad", "losses.i2tce_loss_grad"),
    ("xmcl.trainer", "features_of", "data.features_of"),
    ("xmcl.trainer", "pk_epoch_batches", "data.pk_epoch_batches"),
    ("xmcl.trainer", "replay_epoch_batches", "banks.replay_epoch_batches"),
    ("xmcl.trainer", "ingest_task", "banks.ingest_task"),
    ("xmcl.trainer", "evaluate", "metrics.evaluate"),
    ("xmcl.trainer", "generate_synthetic_task", "data.generate_synthetic_task"),
    ("xmcl.losses", "resolve_bandwidths", "losses.resolve_bandwidths"),
    ("xmcl.banks", "score_task", "banks.score_task"),
    ("xmcl.banks", "forward", "encoder.forward"),
    ("xmcl.banks", "uncertainty", "conformal.uncertainty"),
    ("xmcl.banks", "update_bank", "banks.update_bank"),
    ("xmcl.banks", "features_of", "data.features_of"),
    ("xmcl.metrics", "embed", "encoder.embed"),
    ("xmcl.metrics", "ranking_metrics", "metrics.ranking_metrics"),
    ("xmcl.metrics", "average_precision", "metrics.average_precision"),
    ("xmcl.metrics", "features_of", "data.features_of"),
    ("xmcl.cli", "cmd_run", "cli.cmd_run"),
    ("xmcl.cli", "run_sequence", "trainer.run_sequence"),
    ("xmcl.cli", "save_banks", "banks.save_banks"),
]


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def missing_layers() -> list[str]:
    """Patch targets that no longer resolve, as 'module.attr'."""
    return [f"{m}.{a}" for m, a, _ in PATCHES if _resolve(m, a) is None]


def _arm_of(config) -> str:
    if not config.mpm:
        return "no_mpm"
    return "alpha_zero" if config.jmmd.alpha == 0 else "full"


class _Span:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name, self.start, self.child = name, start, 0.0


class Tracer:
    """Aggregated spans and counters of one traced operation."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.arm_calls: dict[str, int] = {}
        self.skipped_terms = 0
        self.offered = 0
        self.admitted = 0
        self.set_sizes: list[int] = []
        self.queries = 0
        self._stack: list[_Span] = []
        self._arm: str | None = None

    # -- spans -------------------------------------------------------------

    def _close(self, span: _Span, end: float) -> None:
        dur = end - span.start
        name = span.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - span.child
        if self._stack:
            self._stack[-1].child += dur
        if self._arm is not None:
            key = f"arm.{self._arm}.{name}"
            self.arm_calls[key] = self.arm_calls.get(key, 0) + 1

    def _wrap(self, layer: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(layer, time.perf_counter())
            tracer._stack.append(span)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)
            finally:
                tracer._stack.pop()
                tracer._close(span, time.perf_counter())

        return wrapper

    # -- counters read at the call boundary ----------------------------------

    def _observe_update_bank(self, fn, args, kwargs):
        banks, sample = args[0], args[1]
        bank = banks.sketch if sample.modality == "sketch" else banks.photo
        before = bank.get(sample.identity)
        result = fn(*args, **kwargs)
        self.offered += 1
        self.admitted += bank.get(sample.identity) is not before
        return result

    def _observe_uncertainty(self, fn, args, kwargs):
        unc = fn(*args, **kwargs)
        self.set_sizes.append(math.floor(unc))
        return unc

    def _observe_ranking(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.queries += result[2]
        return result

    def _observe_cli_run(self, fn, args, kwargs):
        previous, self._arm = self._arm, _arm_of(args[0])
        try:
            return fn(*args, **kwargs)
        finally:
            self._arm = previous

    def filter(self, record: logging.LogRecord) -> bool:
        if record.levelno >= logging.WARNING and "skipping" in record.getMessage():
            self.skipped_terms += 1
        return True

    @contextmanager
    def active(self):
        """Install every wrapper; restore the original bindings on exit."""
        observers = {
            "xmcl.banks.update_bank": self._observe_update_bank,
            "xmcl.banks.uncertainty": self._observe_uncertainty,
            "xmcl.metrics.ranking_metrics": self._observe_ranking,
            "xmcl.cli.run_sequence": self._observe_cli_run,
        }
        installed = []
        try:
            for module_name, attr, layer in PATCHES:
                target = _resolve(module_name, attr)
                if target is None:
                    continue
                owner, name, fn = target
                observe = observers.get(f"{module_name}.{attr}")
                setattr(owner, name, self._wrap(layer, fn, observe))
                installed.append((owner, name, fn))
            trainer_log = logging.getLogger("xmcl.trainer")
            trainer_log.addFilter(self)
            try:
                yield self
            finally:
                trainer_log.removeFilter(self)
        finally:
            for owner, name, fn in reversed(installed):
                setattr(owner, name, fn)
