"""``repro serve`` with span-recording wrappers around each serving layer.

Usage: ``python3 perfbench/traced_serve.py SPANS_DIR serve --library ...``
(everything after ``SPANS_DIR`` is passed to ``repro.cli.main``
unchanged, so the server runs with the CLI's own defaults).

Before the CLI starts, the public entry points of each layer are replaced
by wrappers that time the call and record a span: name, start, end, the
span that was open on the same thread when it started, and the id of the
root span it belongs to.  A request handled on a server thread opens a
``service.request`` root, so every layer it crosses lands in one trace.
Spans stay in memory; each process writes its own to
``SPANS_DIR/spans-<pid>.jsonl`` when its service drains and again when
the CLI returns (a forked pool worker only ever drains).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable


class SpanRecorder:
    """Thread-aware span collection for wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        # A forked worker starts with an empty buffer: the parent writes
        # the spans it recorded before the fork itself.
        os.register_at_fork(after_in_child=self.spans.clear)

    def wrap(self, owner: type, attr: str, name: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        binder: Callable[[Any], Any] | None = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            binder, func = type(raw), raw.__func__
        recorder = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span = next(recorder._ids)
            parent, trace = stack[-1] if stack else (0, span)
            stack.append((span, trace))
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append((
                    span, parent, trace, name, start, end,
                    threading.get_ident(),
                ))

        setattr(owner, attr, binder(traced) if binder else traced)

    def write(self, directory: Path) -> None:
        pid = os.getpid()
        path = directory / f"spans-{pid}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span, parent, trace, name, start, end, thread in list(
                self.spans
            ):
                handle.write(json.dumps({
                    "pid": pid, "span": span, "parent": parent,
                    "trace": trace, "name": name, "start_ns": start,
                    "end_ns": end, "thread": thread,
                }) + "\n")


def install(recorder: SpanRecorder, spans_dir: Path) -> None:
    """Wrap every layer the benchmark reports on."""
    from http.server import ThreadingHTTPServer

    from repro.core import AssociationGoalModel, GoalRecommender
    from repro.core.caching import CachingRecommender
    from repro.core.incremental import IncrementalGoalModel
    from repro.core.vectorized import BatchRecommender
    from repro.obs.quality import BaselineProfile, DriftDetector, QualityMonitor
    from repro.resilience import AdmissionController
    from repro.service import ModelManager, RecommenderService
    from repro.serving.shared import SharedModelArena
    from repro.storage import JsonLibraryStore

    layers = [
        # The request root: runs on the handler thread, from reading the
        # request line to the flush of the response.
        (ThreadingHTTPServer, "finish_request", "service.request"),
        (AdmissionController, "try_acquire", "admission.try_acquire"),
        (ModelManager, "recommend", "manager.recommend"),
        (ModelManager, "add_implementations", "manager.add_implementations"),
        (ModelManager, "remove_implementation",
         "manager.remove_implementation"),
        (CachingRecommender, "recommend", "caching.recommend"),
        (GoalRecommender, "recommend", "recommender.recommend"),
        # The serving path scores through ``rank``; ``recommend`` is the
        # engine's label-level entry point.
        (BatchRecommender, "rank", "vectorized.rank"),
        (BatchRecommender, "recommend", "vectorized.recommend"),
        (BatchRecommender, "__init__", "vectorized.init"),
        (BatchRecommender, "from_arrays", "vectorized.from_arrays"),
        (QualityMonitor, "observe_traffic", "quality.observe_traffic"),
        (DriftDetector, "observe", "quality.drift_observe"),
        (BaselineProfile, "from_model", "quality.rebaseline"),
        (IncrementalGoalModel, "freeze", "incremental.freeze"),
        (JsonLibraryStore, "load", "storage.load"),
        (AssociationGoalModel, "from_library", "model.from_library"),
        (SharedModelArena, "__init__", "arena.pack"),
        (SharedModelArena, "views", "arena.views"),
    ]
    for owner, attr, name in layers:
        recorder.wrap(owner, attr, name)

    drain = RecommenderService.drain

    @functools.wraps(drain)
    def drain_and_write(self: RecommenderService, *args: Any,
                        **kwargs: Any) -> bool:
        try:
            return drain(self, *args, **kwargs)
        finally:
            recorder.write(spans_dir)

    RecommenderService.drain = drain_and_write  # type: ignore[method-assign]


def main(argv: list[str]) -> int:
    spans_dir = Path(argv[0])
    recorder = SpanRecorder()
    install(recorder, spans_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        recorder.write(spans_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
