"""Workload definitions and the seeded inputs each run sends.

Every workload serves one library, paper-scale FortyThree
(``FortyThreeConfig.paper_scale()``) generated from ``LIBRARY_SEED``, with
k=10.  The run's seed draws what is sent to it: the activities, the Zipf
draw and the implementation the mutations add.  Why each workload
exists, and which layer it is meant to move, is in README.md.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from client import encode_request

K = 10
#: The library's generator seed, the one the repository's other
#: paper-scale benchmarks use.  The paper evaluates one fixed dataset;
#: a library redrawn per run would also move set-up time, memory and
#: mutation cost by its size, which varies by about 10% between seeds.
LIBRARY_SEED = 1
STRATEGIES = ("breadth", "focus_cmp", "focus_cl", "best_match")
#: Distinct activities the hot workload draws from; far below the
#: 1,024-entry result LRU, so the cache holds all of them.
HOT_SET = 256
ZIPF_EXPONENT = 1.0
#: Requests a fresh server gets before measuring.  Besides the first
#: CSR build, a new process pays one full garbage collection of its
#: multi-million-object heap (~100-150 ms) once unique traffic has filled
#: the result and space caches, about 800 requests in.
WARMUP_REQUESTS = 1200
#: Add/delete pairs each measured server makes after its reads;
#: ``mutation_p50_ms`` is the median of their 10 latencies.  Some
#: mutations take about 100 ms longer than the rest (two or three in
#: eight); with fewer samples the median moves with them.
MUTATION_PAIRS = 5
#: Fixed correctness probes per strategy, sent after each round's
#: measurement.
GATE_PROBES = 2
#: Measured responses per strategy per round that the gate also checks.
GATE_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    hot: bool = False
    workers: int = 1


WORKLOADS = {
    "hot_closed": Workload("hot_closed", hot=True),
    "pool_unique": Workload("pool_unique", workers=2),
}


def recommend_request(activity: tuple[str, ...], strategy: str) -> bytes:
    """The complete ``POST /recommend`` request for one activity."""
    body = json.dumps({"activity": list(activity), "k": K, "strategy": strategy})
    return encode_request("POST", "/recommend", body.encode())


def ranking_crc(pairs: list[tuple[str, float]]) -> int:
    """CRC32 of a ranking as ``[[action, score], ...]`` JSON."""
    return zlib.crc32(json.dumps([[a, s] for a, s in pairs]).encode())


class Inputs:
    """Everything one run sends, derived only from the seed."""

    def __init__(self, workload: Workload, seed: int, cache_dir: Path,
                 requests_needed: int) -> None:
        from repro.core import AssociationGoalModel
        from repro.storage import JsonLibraryStore

        self.library_path, pools = _library(cache_dir)
        self.model = AssociationGoalModel.from_library(
            JsonLibraryStore(self.library_path).load()
        )
        rng = np.random.default_rng([seed, 0x5EED])
        fresh = _distinct_activities(rng, pools, requests_needed + GATE_PROBES)
        # The gate probes are sent per strategy; keep them out of the
        # request stream so unique workloads never repeat an activity.
        self.gate_requests = [
            (activity, strategy)
            for strategy in STRATEGIES
            for activity in fresh[:GATE_PROBES]
        ]
        stream = fresh[GATE_PROBES:]
        if workload.hot:
            hot = stream[:HOT_SET]
            ranks = np.arange(1, HOT_SET + 1, dtype=float)
            weights = ranks ** -ZIPF_EXPONENT
            draws = rng.choice(
                HOT_SET, size=requests_needed, p=weights / weights.sum()
            )
            self.warmup = [(a, "breadth") for a in hot]
            self.stream = [(hot[int(i)], "breadth") for i in draws]
        else:
            self.warmup = []
            self.stream = [
                (activity, STRATEGIES[i % len(STRATEGIES)])
                for i, activity in enumerate(stream)
            ]
        self.stream_requests = [recommend_request(a, s) for a, s in self.stream]
        catalog = self.model.action_labels()
        picks = rng.choice(len(catalog), size=3, replace=False)
        self.mutation_body = json.dumps({"implementations": [{
            "goal": "perfbench_goal",
            "actions": [str(catalog[int(i)]) for i in picks],
        }]}).encode()
        self._rng = rng

    def oracle_crc(self, activity: tuple[str, ...], strategy: str) -> int:
        """The scalar reference ranking's CRC32 for one request."""
        from repro.core import GoalRecommender

        oracle = getattr(self, "_oracle", None)
        if oracle is None:
            oracle = self._oracle = GoalRecommender(self.model, use_csr=False)
        result = oracle.recommend(list(activity), k=K, strategy=strategy)
        return ranking_crc([(str(i.action), i.score) for i in result.items])


def _library(cache_dir: Path) -> tuple[Path, list[list[str]]]:
    """The served library file and the users' activities (those with at
    least 2 actions), generated on the first run in a checkout and read
    back by later ones: generation takes seconds and its output never
    changes."""
    from repro.data import FortyThreeConfig, generate_fortythree
    from repro.storage import JsonLibraryStore

    library_path = cache_dir / f"library-seed{LIBRARY_SEED}.json"
    pools_path = cache_dir / f"activities-seed{LIBRARY_SEED}.json"
    if not (library_path.is_file() and pools_path.is_file()):
        dataset = generate_fortythree(
            FortyThreeConfig.paper_scale(), seed=LIBRARY_SEED
        )
        pools = [
            sorted(user.full_activity) for user in dataset.users
            if len(user.full_activity) >= 2
        ]
        partial = pools_path.with_suffix(".tmp")
        partial.write_text(json.dumps(pools), encoding="utf-8")
        partial.replace(pools_path)
        JsonLibraryStore(library_path).save(dataset.library)
    return library_path, json.loads(pools_path.read_text(encoding="utf-8"))


def _distinct_activities(
    rng: np.random.Generator, pools: list[list[str]], count: int
) -> list[tuple[str, ...]]:
    """``count`` distinct 2-3 action activities, each from one user."""
    seen: set[tuple[str, ...]] = set()
    result: list[tuple[str, ...]] = []
    while len(result) < count:
        pool = pools[int(rng.integers(len(pools)))]
        size = min(len(pool), int(rng.integers(2, 4)))
        picks = rng.choice(len(pool), size=size, replace=False)
        activity = tuple(sorted(pool[int(i)] for i in picks))
        if activity not in seen:
            seen.add(activity)
            result.append(activity)
    return result
