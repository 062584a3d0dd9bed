"""Per-layer figures from the span files ``traced_serve.py`` writes.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Request-path figures come from the
``service.request`` roots that contain a ``manager.recommend`` child and
started inside the measurement window, so warm-up, health polls and
mutations do not dilute them.  Set-up and mutation figures use every
span of their name.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path


def tail_quantile(count: int) -> float:
    """p99, or the highest quantile with ten samples beyond it."""
    return min(0.99, 1.0 - 10.0 / count) if count > 10 else 0.5


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def load_spans(directory: Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle)
    return spans


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of ``intervals``."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanIndex:
    """Spans keyed by name, with child lookups for self times."""

    def __init__(self, spans: list[dict], window_ns: tuple[int, int]) -> None:
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self._children: dict[tuple[int, int], list[dict]] = defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)
            if span["parent"]:
                self._children[(span["pid"], span["parent"])].append(span)
        #: Recommend requests that started inside the measurement window.
        self.request_roots = [
            root for root in self.by_name.get("service.request", [])
            if window_ns[0] <= root["start_ns"] <= window_ns[1]
            and any(c["name"] == "manager.recommend"
                    for c in self.children(root))
        ]
        self._request_traces = {
            (root["pid"], root["trace"]) for root in self.request_roots
        }

    def children(self, span: dict) -> list[dict]:
        return self._children.get((span["pid"], span["span"]), [])

    def self_us(self, span: dict) -> float:
        covered = _covered_ns(
            [(c["start_ns"], c["end_ns"]) for c in self.children(span)]
        )
        return (span["end_ns"] - span["start_ns"] - covered) / 1e3

    def in_requests(self, name: str) -> list[dict]:
        """Spans of ``name`` inside the measured recommend requests."""
        return [
            s for s in self.by_name.get(name, [])
            if (s["pid"], s["trace"]) in self._request_traces
        ]


def _us(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e3


def _ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def layer_metrics(index: SpanIndex) -> dict[str, float]:
    """Every span-derived per-layer figure (see README.md)."""
    roots = index.request_roots
    manager = index.in_requests("manager.recommend")
    observe = [_us(s) for s in index.in_requests("quality.observe_traffic")]
    drift = [_us(s) for s in index.in_requests("quality.drift_observe")]
    admission = [_us(s) for s in index.in_requests("admission.try_acquire")]
    mutations = (
        index.by_name.get("manager.add_implementations", [])
        + index.by_name.get("manager.remove_implementation", [])
    )
    # Attaching is one views() plus one from_arrays() per worker process.
    attach: dict[int, float] = defaultdict(float)
    for span in (index.by_name.get("arena.views", [])
                 + index.by_name.get("vectorized.from_arrays", [])):
        attach[span["pid"]] += _ms(span)
    manager_us = [_us(s) for s in manager]

    def named_ms(name: str) -> float:
        return median([_ms(s) for s in index.by_name.get(name, [])])

    return {
        "service.self_p50_us": median([index.self_us(r) for r in roots]),
        "admission.acquire_p50_us": median(admission),
        "manager.recommend_p50_us": median(manager_us),
        "manager.recommend_p99_us": quantile(
            manager_us, tail_quantile(len(manager_us))
        ),
        "manager.self_p50_us": median([index.self_us(s) for s in manager]),
        "caching.self_p50_us": median(
            [index.self_us(s) for s in index.in_requests("caching.recommend")]
        ),
        "recommender.self_p50_us": median([
            index.self_us(s)
            for s in index.in_requests("recommender.recommend")
        ]),
        "quality.observe_traffic_p50_us": median(observe),
        "quality.observe_traffic_p99_us": quantile(
            observe, tail_quantile(len(observe))
        ),
        "quality.observe_traffic_over_5ms": float(
            sum(1 for value in observe if value > 5000.0)
        ),
        "quality.drift_observe_p99_us": quantile(
            drift, tail_quantile(len(drift))
        ),
        "manager.mutate_p50_ms": median([_ms(s) for s in mutations]),
        "incremental.freeze_ms": named_ms("incremental.freeze"),
        "vectorized.build_ms": named_ms("vectorized.init"),
        "quality.rebaseline_ms": named_ms("quality.rebaseline"),
        "storage.load_ms": named_ms("storage.load"),
        "model.from_library_ms": named_ms("model.from_library"),
        "serving.arena_pack_ms": named_ms("arena.pack"),
        "serving.arena_attach_ms": median(list(attach.values())),
    }
