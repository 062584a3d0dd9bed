"""Served-request benchmark for ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pool_unique --seed 1 --seconds 20 --trace 0

``--trace 0`` starts ``repro serve`` with its shipped defaults, drives it
from this process and prints the end-to-end metrics.  ``--trace 1``
measures one untraced server for half of ``--seconds``, then the same
workload against ``perfbench/traced_serve.py`` (the same CLI with
span-recording wrappers) for the other half, and prints the per-layer
metrics.  Every end-to-end time is net of hypervisor steal (see
``hostcpu.py``).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a JSON report with the per-phase request accounting, the raw (steal
included) figures and the run's environment.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from client import (
    MUTATION_TIMEOUT_S, Phase, call, closed_loop, encode_request, timed_call,
)
from hostcpu import cpu_times, steal_share, unstolen_share
from layers import (
    SpanIndex, layer_metrics, load_spans, median, quantile, tail_quantile,
)
from server import ServerProcess, free_port
from workloads import (
    GATE_SAMPLES, K, MUTATION_PAIRS, STRATEGIES, WARMUP_REQUESTS, WORKLOADS,
    Inputs, ranking_crc, recommend_request,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A request slower than this (net of steal) misses the goodput limit.
GOODPUT_LIMIT_S = 0.025
#: Steal is read once per slice of a load phase; throughput and goodput
#: are fitted to the slices' rates (``rate_without_steal``).
SLICE_S = 1.0
#: How long the gate retries a probe answered by a pool worker that has
#: not yet replayed the last mutation.
GATE_SETTLE_S = 5.0
#: Server starts per untraced run; setup_s is their median.  Only the
#: last one is measured.
SETUPS = 3


@dataclass
class RoundResult:
    """One server lifetime.  Times are net of steal unless named raw."""

    setup_s: float = 0.0
    raw_setup_s: float = 0.0
    teardown_s: float = 0.0
    forced_kill: bool = False
    rss_mb: float = 0.0
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    #: Successful, and successful within the goodput limit, requests per
    #: second in each slice of the measurement.
    rate_per_slice: list[float] = field(default_factory=list)
    good_per_slice: list[float] = field(default_factory=list)
    #: Every slice's raw rate and unstolen share of busy CPU time.
    raw_rate_per_slice: list[float] = field(default_factory=list)
    unstolen: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    mutations_s: list[tuple[float, float]] = field(default_factory=list)
    #: Model generation the last successful mutation reported.
    generation: int = 0
    repeats: int = 0
    measured: int = 0
    body_bytes: list[int] = field(default_factory=list)
    cache_delta: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: ``perf_counter_ns`` bounds of the measurement; CLOCK_MONOTONIC on
    #: Linux, so comparable with the server's span times.
    window_ns: tuple[int, int] = (0, 0)
    gate_checked: int = 0
    gate_mismatches: list[str] = field(default_factory=list)


class Run:
    """One benchmark invocation: inputs, phase accounting, rounds."""

    def __init__(self, workload_name: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.out_dir = HERE / "out" / f"{workload_name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.phases = {
            name: Phase(name)
            for name in ("stats", "warmup", "measure", "mutation", "gate",
                         "reference")
        }
        # Generous: hot_closed, the fastest loop, runs about 500-700 req/s
        # on a 2-vCPU VM with its one client.
        needed = int(2000 * seconds) + 2 * WARMUP_REQUESTS + 1000
        self.inputs = Inputs(self.workload, seed, self.out_dir.parent, needed)
        # The model and request lists are millions of long-lived objects;
        # without this, each full collection in this process stalls the
        # load generator for a visible fraction of a second.
        gc.collect()
        gc.freeze()
        self.cursor = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    # ------------------------------------------------------------------
    # One server lifetime: start, warm, measure, mutate, gate, stop
    # ------------------------------------------------------------------

    def serve_argv(self, port: int, traced_dir: Path | None) -> list[str]:
        serve = ["serve", "--library", str(self.inputs.library_path),
                 "--port", str(port)]
        if self.workload.workers > 1:
            serve += ["--workers", str(self.workload.workers)]
        if traced_dir is None:
            return [sys.executable, "-m", "repro.cli", *serve]
        return [sys.executable, str(HERE / "traced_serve.py"),
                str(traced_dir), *serve]

    def start_server(self, result: RoundResult,
                     traced_dir: Path | None = None,
                     port: int | None = None) -> ServerProcess:
        """Spawn a server (on a free port unless ``port`` is given) and
        record its set-up time in ``result``."""
        if port is None:
            port = free_port()
        cpu_before = cpu_times()
        server = ServerProcess(
            self.serve_argv(port, traced_dir), self.env, port,
            self.out_dir / "server.log",
        )
        try:
            result.raw_setup_s = server.wait_ready()
        except BaseException:
            server.kill()
            raise
        result.setup_s = result.raw_setup_s * unstolen_share(
            cpu_before, cpu_times()
        )
        return server

    def setup_only(self) -> RoundResult:
        """Start and stop a server, timing both."""
        result = RoundResult()
        server = self.start_server(result)
        result.teardown_s, result.forced_kill = server.stop()
        return result

    def drain_probe(self) -> RoundResult:
        """Stop a pool that serves from one parent-bound listener.

        With ``--port 0`` the pool's workers share the parent's listening
        socket instead of binding their own; one connection (the
        readiness poll) is all it gets before SIGTERM.  A pool that does
        not drain on this path shows up as a forced kill.
        """
        result = RoundResult()
        server = self.start_server(result, port=0)
        result.teardown_s, result.forced_kill = server.stop()
        return result

    def round(self, window_s: float, traced_dir: Path | None = None,
              mutation_pairs: int = MUTATION_PAIRS) -> RoundResult:
        """One measured server lifetime: warm, measure, mutate, gate."""
        result = RoundResult()
        server = self.start_server(result, traced_dir)
        port = server.port
        try:
            seen = self._warmup(port)
            before = self._cache_stats(port)
            self._measure(port, window_s, result, seen)
            after = self._cache_stats(port)
            result.cache_delta = {
                name: (after[name][0] - before[name][0],
                       after[name][1] - before[name][1])
                for name in after
            }
            # The peak of serving reads: the mutations below briefly hold
            # two model generations, and how much of the old one is
            # still uncollected varies by run.
            result.rss_mb = server.peak_rss_mb()
            for _pair in range(mutation_pairs):
                self._mutation_pair(port, result)
            self._gate(port, result)
        except BaseException:
            server.kill()
            raise
        result.teardown_s, result.forced_kill = server.stop()
        return result

    def _warmup(self, port: int) -> set[tuple[str, ...]]:
        """Send ``WARMUP_REQUESTS`` to a fresh server; returns the
        activities it was sent."""
        inputs = self.inputs
        sent = list(inputs.warmup)
        start = self.cursor
        self.cursor += WARMUP_REQUESTS - len(sent)
        sent += inputs.stream[start:self.cursor]
        requests = [recommend_request(a, s) for a, s in sent]
        closed_loop(port, requests, 120.0, self.phases["warmup"])
        return {activity for activity, _strategy in sent}

    def _cache_stats(self, port: int) -> dict[str, tuple[int, int]]:
        """Cache ``(hits, misses)`` summed over the server's processes.

        Read from ``/metrics``, which names the answering worker
        (``repro_worker_index``) in a pool: the scrape repeats until every
        worker has answered once, since each reports only its own caches.
        """
        request = encode_request("GET", "/metrics")
        per_worker: dict[str, dict[str, tuple[int, int]]] = {}
        for _attempt in range(64):
            klass, _status, body = call(port, request)
            self.phases["stats"].record(klass)
            if klass != "ok":
                raise RuntimeError(f"GET /metrics failed: {klass}")
            worker, counts = _parse_cache_counters(body.decode())
            per_worker[worker] = counts
            if len(per_worker) >= self.workload.workers:
                break
        else:
            raise RuntimeError("not every pool worker answered /metrics")
        totals: dict[str, tuple[int, int]] = {}
        for counts in per_worker.values():
            for cache, (hits, misses) in counts.items():
                old_hits, old_misses = totals.get(cache, (0, 0))
                totals[cache] = (old_hits + hits, old_misses + misses)
        return totals

    def _measure(self, port: int, window_s: float, result: RoundResult,
                 seen: set[tuple[str, ...]]) -> None:
        inputs = self.inputs
        phase = self.phases["measure"]
        window_start = time.perf_counter_ns()
        load, self.cursor = closed_loop(
            port, inputs.stream_requests, window_s, phase,
            start_index=self.cursor, slice_s=SLICE_S,
        )
        if self.cursor >= len(inputs.stream_requests):
            raise RuntimeError("request stream exhausted")
        result.window_ns = (window_start, time.perf_counter_ns())
        completed = [0] * len(load.slices)
        good = [0] * len(load.slices)
        for sample in load.samples:
            activity = inputs.stream[sample.index][0]
            result.measured += 1
            result.repeats += activity in seen
            seen.add(activity)
            result.late.append(sample.late_s)
            if sample.klass != "ok":
                continue
            latency = sample.latency_s * load.slices[sample.slice].unstolen
            result.latencies.append(latency)
            result.raw_latencies.append(sample.latency_s)
            result.body_bytes.append(len(sample.body))
            completed[sample.slice] += 1
            good[sample.slice] += latency <= GOODPUT_LIMIT_S
        for part, done, within in zip(load.slices, completed, good):
            result.raw_rate_per_slice.append(done / part.seconds)
            result.unstolen.append(part.unstolen)
            # A rate is divided by the unstolen share, as a time is
            # multiplied by it.
            result.rate_per_slice.append(done / part.seconds / part.unstolen)
            result.good_per_slice.append(within / part.seconds / part.unstolen)
        self._check_samples(load.samples, result)

    def _mutation_pair(self, port: int, result: RoundResult) -> None:
        """Add the benchmark's implementation, then delete it; a pair
        that completes is recorded as ``(add seconds, delete seconds)``."""
        phase = self.phases["mutation"]
        request = encode_request("PUT", "/model/implementations",
                                 self.inputs.mutation_body)
        klass, put_s, body = timed_call(port, request, phase,
                                        MUTATION_TIMEOUT_S)
        if klass != "ok":
            return
        payload = json.loads(body)
        result.generation = int(payload["generation"])
        added = int(payload["added"][0])
        request = encode_request("DELETE", f"/model/implementations/{added}")
        klass, delete_s, body = timed_call(port, request, phase,
                                           MUTATION_TIMEOUT_S)
        if klass == "ok":
            result.generation = int(json.loads(body)["generation"])
            result.mutations_s.append((put_s, delete_s))

    # ------------------------------------------------------------------
    # Correctness gate
    # ------------------------------------------------------------------

    def _verify(self, activity: tuple[str, ...], strategy: str, body: bytes,
                result: RoundResult) -> None:
        payload = json.loads(body)
        served = ranking_crc([
            (item["action"], item["score"])
            for item in payload["recommendations"]
        ])
        result.gate_checked += 1
        if served != self.inputs.oracle_crc(activity, strategy):
            result.gate_mismatches.append(
                f"{strategy} {list(activity)} generation "
                f"{payload['generation']}"
            )

    def _check_samples(self, samples, result: RoundResult) -> None:
        """Check the first few measured rankings of each strategy."""
        taken: dict[str, int] = {}
        for sample in samples:
            if sample.klass != "ok":
                continue
            activity, strategy = self.inputs.stream[sample.index]
            if taken.get(strategy, 0) >= GATE_SAMPLES:
                continue
            taken[strategy] = taken.get(strategy, 0) + 1
            self._verify(activity, strategy, sample.body, result)

    def _gate(self, port: int, result: RoundResult) -> None:
        """Probe each strategy after the mutations.

        Every add was undone by its delete, so the final generation
        serves the library the oracle was built from.  In a pool, the
        mutation's reply waits only for the worker that received it; a
        probe answered by a worker still replaying the broadcast reports
        an older generation and is sent again.
        """
        for activity, strategy in self.inputs.gate_requests:
            request = recommend_request(activity, strategy)
            settle_by = time.perf_counter() + GATE_SETTLE_S
            while True:
                klass, _status, body = call(port, request)
                self.phases["gate"].record(klass)
                if klass != "ok":
                    break
                generation = json.loads(body)["generation"]
                if (generation == result.generation
                        or time.perf_counter() > settle_by):
                    break
                time.sleep(0.02)
            if klass != "ok":
                result.gate_mismatches.append(f"gate probe failed: {klass}")
                continue
            self._verify(activity, strategy, body, result)

    # ------------------------------------------------------------------
    # References for the traced run
    # ------------------------------------------------------------------

    def http_floor_us(self, body_bytes: int) -> float:
        port = free_port()
        server = ServerProcess(
            [sys.executable, str(HERE / "floor_server.py"), str(port),
             str(body_bytes)],
            self.env, port, self.out_dir / "floor.log",
        )
        try:
            server.wait_ready()
            requests = self.inputs.stream_requests[:400]
            load, _cursor = closed_loop(port, requests, 30.0,
                                        self.phases["reference"])
        finally:
            server.stop()
        latencies = [s.latency_s for s in load.samples[50:] if s.klass == "ok"]
        return statistics.median(latencies) * 1e6

    def engine_reference(self) -> dict[str, float]:
        """Bare ``BatchRecommender.rank`` on encoded ids, per strategy."""
        from repro.core.vectorized import BatchRecommender

        model = self.inputs.model
        engine = BatchRecommender(model)
        activities = [
            model.encode_activity(list(a)) for a, _s in self.inputs.stream[:300]
        ]
        metrics: dict[str, float] = {}
        for strategy in STRATEGIES:
            for encoded in activities[:30]:
                engine.rank(encoded, K, strategy)
            times = []
            for encoded in activities:
                start = time.perf_counter_ns()
                engine.rank(encoded, K, strategy)
                times.append(time.perf_counter_ns() - start)
            metrics[f"vectorized.{strategy}_p50_us"] = statistics.median(times) / 1e3
        return metrics


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _parse_cache_counters(
    text: str,
) -> tuple[str, dict[str, tuple[int, int]]]:
    """``(worker index, {cache: (hits, misses)})`` from a ``/metrics`` page."""
    worker = "0"
    counts: dict[str, list[int]] = {}
    for line in text.splitlines():
        if line.startswith("repro_worker_index "):
            worker = line.split()[1]
            continue
        for family, slot in (("repro_cache_hits_total{", 0),
                             ("repro_cache_misses_total{", 1)):
            if line.startswith(family):
                labels, value = line[len(family):].rsplit("} ", 1)
                cache = labels.split('cache="', 1)[1].split('"', 1)[0]
                counts.setdefault(cache, [0, 0])[slot] = int(float(value))
    return worker, {cache: (h, m) for cache, (h, m) in counts.items()}


def _latency_summary(rounds: list[RoundResult]) -> tuple[float, float, float, int]:
    """(p50 s, tail s, tail quantile, samples) pooled over rounds."""
    latencies = [value for r in rounds for value in r.latencies]
    if not latencies:
        raise RuntimeError("no successful measured requests")
    tail_q = tail_quantile(len(latencies))
    return (statistics.median(latencies), quantile(latencies, tail_q),
            tail_q, len(latencies))


def rate_without_steal(rates: list[float], unstolen: list[float]) -> float:
    """The rate a least-squares line through the slices' steal-corrected
    rates, against their unstolen shares, gives at share 1.0.

    Dividing by the share corrects a slice for the stolen time itself,
    but not for the contention the guest cannot see that comes with it,
    so corrected rates still fall as steal rises (README.md).  When every
    slice has the same share this is their mean rate.
    """
    try:
        slope, intercept = statistics.linear_regression(unstolen, rates)
    except statistics.StatisticsError:
        return statistics.fmean(rates)
    # Rates that rise with steal are noise around a flat line.
    return intercept + slope if slope > 0 else statistics.fmean(rates)


def end_to_end(rounds: list[RoundResult]) -> dict[str, dict[str, object]]:
    """Set-up time over every start; the rest from the measured last one."""
    measured = rounds[-1]
    p50, tail, _q, _n = _latency_summary([measured])
    if not measured.mutations_s:
        raise RuntimeError("no mutation completed")
    values = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "p50_ms": (p50 * 1e3, "ms"),
        "p99_ms": (tail * 1e3, "ms"),
        "throughput_rps": (rate_without_steal(
            measured.rate_per_slice, measured.unstolen
        ), "1/s"),
        "goodput_rps": (rate_without_steal(
            measured.good_per_slice, measured.unstolen
        ), "1/s"),
        "mutation_p50_ms": (statistics.median(
            seconds for pair in measured.mutations_s for seconds in pair
        ) * 1e3, "ms"),
        "rss_mb": (measured.rss_mb, "MiB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(run: Run, untraced: RoundResult, traced: RoundResult,
              stops: list[RoundResult], spans_dir: Path
              ) -> dict[str, dict[str, object]]:
    """Per-layer figures; ``stops`` are every server the run stopped."""
    spans = load_spans(spans_dir)
    with open(run.out_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: (s["pid"], s["start_ns"])):
            handle.write(json.dumps(span) + "\n")
    values = layer_metrics(SpanIndex(spans, traced.window_ns))
    values.update(run.engine_reference())
    values["ref.http_floor_p50_us"] = run.http_floor_us(
        int(statistics.median(traced.body_bytes))
    )
    hits, misses = traced.cache_delta.get("recommendations", (0, 0))
    values["caching.hit_ratio"] = hits / max(1, hits + misses)
    hits, misses = traced.cache_delta.get("implementation_space", (0, 0))
    values["caching.space_hit_ratio"] = hits / max(1, hits + misses)
    values["admission.shed"] = float(sum(
        phase.classes["429"] for phase in run.phases.values()
    ))
    values["serving.teardown_s"] = statistics.median(
        r.teardown_s for r in stops
    )
    values["serving.forced_kills"] = float(sum(r.forced_kill for r in stops))
    late = untraced.late
    values["client.late_p99_ms"] = quantile(late, tail_quantile(len(late))) * 1e3
    values["tracing.overhead_ratio"] = (
        statistics.median(traced.latencies)
        / statistics.median(untraced.latencies)
    )
    return {
        name: {"value": value, "unit": _unit(name)}
        for name, value in sorted(values.items())
    }


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _environment(run: Run) -> dict[str, object]:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else "unknown"
        sha = ref
    return {
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a stop request unwind through the cleanup paths, so no server
    # outlives the benchmark.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cpu_before = cpu_times()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        # The untraced half serves only the tracing overhead; the
        # mutation figures come from the traced half's spans.
        untraced = run.round(args.seconds / 2, mutation_pairs=0)
        spans_dir = run.out_dir / "spans"
        spans_dir.mkdir()
        traced = run.round(args.seconds / 2, traced_dir=spans_dir)
        rounds = [untraced, traced]
        if run.workload.workers > 1:
            rounds.append(run.drain_probe())
        metrics = per_layer(run, untraced, traced, rounds, spans_dir)
    else:
        rounds = [run.setup_only() for _ in range(SETUPS - 1)]
        rounds.append(run.round(args.seconds))
        metrics = end_to_end(rounds)

    served = [r for r in rounds if r.measured]
    _p50, _tail, tail_q, samples = _latency_summary(served)
    mismatches = [m for r in served for m in r.gate_mismatches]
    measured = sum(r.measured for r in served)
    report = {
        "workload": run.workload.name,
        "environment": _environment(run),
        # CPU time the hypervisor gave to other guests over the whole
        # run; the end-to-end times are net of it.
        "host_steal_share": steal_share(cpu_before, cpu_times()),
        "phases": {name: p.summary() for name, p in run.phases.items()},
        "latency_samples": samples,
        "tail_quantile": tail_q,
        "repeat_share": sum(r.repeats for r in served) / max(1, measured),
        "rounds": [
            {"setup_s": r.setup_s, "raw_setup_s": r.raw_setup_s,
             "teardown_s": r.teardown_s,
             "p50_ms": median(r.latencies) * 1e3,
             "p99_ms": quantile(r.latencies, 0.99) * 1e3,
             "raw_p50_ms": median(r.raw_latencies) * 1e3,
             "raw_p99_ms": quantile(r.raw_latencies, 0.99) * 1e3,
             "throughput_rps": (rate_without_steal(r.rate_per_slice, r.unstolen)
                                if r.rate_per_slice else 0.0),
             "raw_throughput_rps": median(r.raw_rate_per_slice),
             "unstolen_share_per_slice": r.unstolen,
             "raw_throughput_per_slice": r.raw_rate_per_slice,
             "forced_kill": r.forced_kill, "rss_mb": r.rss_mb,
             "measured": r.measured, "mutations_ms":
                 [[m * 1e3 for m in pair] for pair in r.mutations_s]}
            for r in rounds
        ],
        "gate": {"checked": sum(r.gate_checked for r in served),
                 "mismatches": mismatches},
    }
    attempted = sum(p.sent for p in run.phases.values())
    failed = sum(p.failed for p in run.phases.values())
    correct = not mismatches and all(r.gate_checked for r in served)
    with open(run.out_dir / "result.json", "w", encoding="utf-8") as handle:
        json.dump({"report": report, "metrics": metrics}, handle, indent=2)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
