"""Layer probes: span timers patched around the program's layer boundaries.

The program has no tracing of its own yet, so a traced run wraps the calls
*into* each layer from here.  Every wrapped call is a span; spans nest on an
in-memory stack, a layer's reported time is its spans' *self* time (duration
minus the part covered by child spans), and the root span's self time is what
no probe covers — so the layers plus ``bench.unattributed_frac`` add up to the
traced wall clock by construction.

A patch point that a later refactor removes is not an error: its target is
listed in ``missing`` and a metric whose every target is missing reads
``None``.  End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

CALL = "call"
#: Generator function: each ``next()`` of the generator is one span; the first
#: one (which does the seek to the start index) is booked under ``first``.
GENERATOR = "generator"

#: Raw spans kept for the trace file (aggregates cover every span).
SPAN_LIMIT = 20_000


@dataclass(frozen=True)
class PatchPoint:
    """``module.attribute`` to wrap, and the per-layer metric its self time feeds."""

    metric: str
    module: str
    attribute: str
    kind: str = CALL
    first: "str | None" = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attribute}"


_ENGINE = "repro.executor.engine"
_PREFIX = "repro.executor.prefix_agg"

PATCH_POINTS = (
    PatchPoint(
        "events.log.decode_s",
        "repro.events.log",
        "EventLogReader.events_from",
        GENERATOR,
        first="events.log.seek_s",
    ),
    # The engine batches by timestamp through the name bound in its module.
    PatchPoint("events.stream.batch_s", _ENGINE, "timestamp_batches", GENERATOR),
    PatchPoint("events.disorder.reorder_s", "repro.events.disorder", "ReorderFeed.__next__"),
    PatchPoint("events.columnar.build_s", "repro.events.columnar", "ColumnarBatch.from_events"),
    PatchPoint("executor.engine.route_s", _ENGINE, "CompiledWorkload.route_columnar"),
    PatchPoint("executor.engine.step_s", _ENGINE, "EngineSession.step"),
    PatchPoint("executor.engine.step_s", _ENGINE, "PaneEngineSession.step"),
    PatchPoint("executor.engine.finalize_s", _ENGINE, "WindowGroupScope.finalize"),
    PatchPoint("executor.prefix_agg.process_s", _ENGINE, "WindowGroupScope.process_batch"),
    PatchPoint("executor.prefix_agg.shared_s", _PREFIX, "SharedSegmentState.stage_batch"),
    PatchPoint("executor.prefix_agg.shared_s", _PREFIX, "SharedSegmentState.commit"),
    PatchPoint("executor.prefix_agg.private_s", _PREFIX, "PrivateSegmentState.stage_batch"),
    PatchPoint("executor.prefix_agg.private_s", _PREFIX, "PrivateSegmentState.commit"),
    PatchPoint("executor.panes.process_s", "repro.executor.panes", "PaneScope.process_batch"),
    PatchPoint("executor.churn.apply_s", _ENGINE, "EngineSession.apply_churn_op"),
    PatchPoint("executor.churn.apply_s", _ENGINE, "PaneEngineSession.apply_churn_op"),
    PatchPoint("executor.engine.export_s", _ENGINE, "EngineSession.export_state"),
    PatchPoint("executor.engine.export_s", _ENGINE, "PaneEngineSession.export_state"),
    PatchPoint("executor.engine.restore_s", _ENGINE, "EngineSession.restore_state"),
    PatchPoint("executor.engine.restore_s", _ENGINE, "PaneEngineSession.restore_state"),
    # The replay loop calls the names bound in its own module.
    PatchPoint("replay.checkpoint.save_s", "repro.replay.runner", "save_checkpoint"),
    PatchPoint("replay.checkpoint.load_s", "repro.replay.runner", "load_checkpoint"),
)


class Recorder:
    """Span stack plus per-metric aggregates of one traced run."""

    def __init__(self) -> None:
        self.metrics: list = []
        self._slots: dict = {}
        self.own: list = []
        self.calls: list = []
        #: Open spans, innermost last: ``[child seconds, metric slot]``.
        self._stack: list = []
        #: ``(metric slot, start, end, parent slot or -1)`` of the first spans.
        self.spans: list = []
        self.root_name: "str | None" = None
        self.root_total = 0.0
        self.missing: list = []
        self._patched: list = []

    def slot(self, metric: str) -> int:
        index = self._slots.get(metric)
        if index is None:
            index = self._slots[metric] = len(self.metrics)
            self.metrics.append(metric)
            self.own.append(0.0)
            self.calls.append(0)
        return index

    def _enter(self, slot: int) -> float:
        self._stack.append([0.0, slot])
        return time.perf_counter()

    def _exit(self, slot: int, started: float) -> float:
        ended = time.perf_counter()
        elapsed = ended - started
        stack = self._stack
        children = stack.pop()[0]
        self.own[slot] += elapsed - children
        self.calls[slot] += 1
        parent = -1
        if stack:
            top = stack[-1]
            top[0] += elapsed
            parent = top[1]
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((slot, started, ended, parent))
        return elapsed

    def wrap_call(self, function, metric: str):
        slot = self.slot(metric)
        enter, leave = self._enter, self._exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            started = enter(slot)
            try:
                return function(*args, **kwargs)
            finally:
                leave(slot, started)

        return traced

    def wrap_generator(self, function, metric: str, first: "str | None"):
        slot = self.slot(metric)
        first_slot = slot if first is None else self.slot(first)
        enter, leave = self._enter, self._exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            current = first_slot
            while True:
                started = enter(current)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave(current, started)
                current = slot
                yield item

        return traced

    @contextmanager
    def root(self, name: str):
        """The span everything else nests under; its self time is unattributed."""
        self.root_name = name
        slot = self.slot(name)
        started = self._enter(slot)
        try:
            yield
        finally:
            self.root_total = self._exit(slot, started)

    def install(self, points) -> None:
        for point in points:
            try:
                owner = importlib.import_module(point.module)
                *parents, leaf = point.attribute.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(point.target)
                # The metric still exists; with no target it reads None.
                continue
            function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if point.kind == GENERATOR:
                wrapped = self.wrap_generator(function, point.metric, point.first)
            else:
                wrapped = self.wrap_call(function, point.metric)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, leaf, wrapped)
            self._patched.append((owner, leaf, raw))

    def restore(self) -> None:
        """Undo every patch (a worker process just exits; tests need this)."""
        while self._patched:
            owner, leaf, raw = self._patched.pop()
            setattr(owner, leaf, raw)

    def layer_seconds(self, points) -> dict:
        """Self seconds per metric; ``None`` when every target of it is missing."""
        seconds: dict = {}
        for point in points:
            for metric in filter(None, (point.metric, point.first)):
                slot = self._slots.get(metric)
                if slot is not None:
                    seconds[metric] = self.own[slot]
                else:
                    seconds.setdefault(metric, None)
        return seconds

    def report(self, points=PATCH_POINTS) -> dict:
        root_slot = self._slots.get(self.root_name)
        return {
            "layers": self.layer_seconds(points),
            "missing_probes": list(self.missing),
            "root_s": self.root_total,
            "unattributed_s": self.own[root_slot] if root_slot is not None else None,
            "spans": sum(self.calls),
        }

    def write_spans(self, path) -> None:
        """Write the retained raw spans: name, start, end, parent (one per line)."""
        names = self.metrics
        with open(path, "w", encoding="utf-8") as handle:
            for slot, started, ended, parent in self.spans:
                record = {
                    "name": names[slot],
                    "start": started,
                    "end": ended,
                    "parent": names[parent] if parent >= 0 else None,
                }
                handle.write(json.dumps(record) + "\n")


def install(points=PATCH_POINTS) -> Recorder:
    """Patch every resolvable point in ``points``; returns the live recorder."""
    recorder = Recorder()
    recorder.install(points)
    return recorder
