"""Multi-worker serving (``repro serve --workers N``), subprocess-driven.

Five contracts, each against real forked pools started through the CLI
or a ``-c`` script (fork inside a threaded test process is not safe, so
every pool here is its own process tree):

- **bit-parity** — a pool's response bodies are byte-identical to the
  single-process server's, pinned with the same CRC32 technique as the
  bench suite;
- **hot reload under load** — mutations land on every worker in the
  same order while request traffic keeps flowing, and the pool converges
  to one (generation, implementations) pair;
- **SIGTERM drains all workers** — the parent fans the drain out and the
  whole tree exits cleanly, also right after a connection that woke
  every worker's ``select()`` on the shared listener;
- **bounded shutdown** — a worker that ignores both the drain and
  SIGTERM is still killed and reaped within the drain timeout plus the
  escalation grace periods;
- **crash restarts** — a SIGKILLed worker is respawned under the restart
  budget and the pool keeps serving.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import zlib
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

START_TIMEOUT = 45.0


@pytest.fixture(scope="module")
def library_path(tmp_path_factory):
    from repro.data import FoodMartConfig, generate_foodmart
    from repro.storage import JsonLibraryStore

    dataset = generate_foodmart(FoodMartConfig.tiny(), seed=0)
    path = tmp_path_factory.mktemp("multiworker") / "lib.json"
    JsonLibraryStore(path).save(dataset.library)
    return path


@pytest.fixture(scope="module")
def action_labels(library_path):
    payload = json.loads(library_path.read_text())
    labels = sorted(
        {a for impl in payload["implementations"] for a in impl["actions"]}
    )
    assert len(labels) >= 10
    return labels


class ServerProcess:
    """One ``repro serve`` subprocess plus its parsed base URL."""

    def __init__(self, library: Path, workers: int, *extra: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--library", str(library), "--port", "0",
                "--workers", str(workers), "--history-window", "0",
                "--no-tracing", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.port = self._await_banner()
        self.url = f"http://127.0.0.1:{self.port}"

    def _await_banner(self) -> int:
        banner: list[str] = []

        def read() -> None:
            assert self.proc.stdout is not None
            banner.append(self.proc.stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT)
        if reader.is_alive() or not banner or " on http://" not in banner[0]:
            self.stop()
            raise AssertionError(
                f"server did not start: {banner!r}\n{self.stderr_tail()}"
            )
        match = re.search(r" on http://[\d.]+:(\d+)", banner[0])
        if match is None:
            self.stop()
            raise AssertionError(f"no port in banner: {banner[0]!r}")
        return int(match.group(1))

    def stderr_tail(self) -> str:
        try:
            self.proc.kill()
            _out, err = self.proc.communicate(timeout=10)
            return err or ""
        except Exception:
            return ""

    def request(
        self, path: str, payload: dict | None = None, method: str | None = None
    ) -> tuple[int, bytes]:
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.url + path, data=data, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def worker_pids(self) -> list[int]:
        """Direct worker children of the serve process, via /proc.

        Skips multiprocessing's ``resource_tracker`` helper, which is
        also forked off the parent but is not a serving worker.
        """
        children = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            except OSError:
                continue
            # field 4 (after the parenthesized comm) is ppid
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid == self.proc.pid and b"resource_tracker" not in cmdline:
                children.append(int(entry))
        return sorted(children)

    def stop(self, timeout: float = 30.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        return self.proc.returncode


def _unique_requests(labels: list[str]) -> list[dict]:
    """Distinct recommend payloads (unique activity sets → never cached)."""
    pairs = [
        sorted({labels[i % len(labels)], labels[(i + 1) % len(labels)]})
        for i in range(min(48, len(labels) - 1))
    ]
    assert len({tuple(p) for p in pairs}) == len(pairs)
    return [{"activity": pair, "k": 5} for pair in pairs]


def _crc_responses(server: ServerProcess, payloads: list[dict]) -> int:
    digest = 0
    for payload in payloads:
        status, body = server.request("/recommend", payload)
        assert status == 200, body
        assert json.loads(body)["cached"] is False
        digest = zlib.crc32(body, digest)
    return digest


class TestBitParity:
    def test_pool_responses_match_single_process_bytes(
        self, library_path, action_labels
    ):
        payloads = _unique_requests(action_labels)
        single = ServerProcess(library_path, 1)
        try:
            reference = _crc_responses(single, payloads)
        finally:
            single.stop()
        pool = ServerProcess(library_path, 2)
        try:
            # The requests spread across both workers: every response must
            # still be byte-identical to the single process, whoever answers.
            assert _crc_responses(pool, payloads) == reference
        finally:
            assert pool.stop() == 0


class TestHotReloadUnderLoad:
    def test_mutations_converge_across_workers_under_traffic(
        self, library_path, action_labels
    ):
        pool = ServerProcess(library_path, 2)
        errors: list[str] = []
        stop = threading.Event()

        def hammer(offset: int) -> None:
            i = 0
            while not stop.is_set():
                payload = {
                    "activity": [action_labels[(i + offset) % len(action_labels)]],
                    "k": 3,
                }
                status, body = pool.request("/recommend", payload)
                if status >= 500:
                    errors.append(f"{status}: {body!r}")
                i += 1

        threads = [
            threading.Thread(target=hammer, args=(i * 11,), daemon=True)
            for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            added: list[int] = []
            for i in range(5):
                status, body = pool.request(
                    "/model/implementations",
                    {
                        "implementations": [
                            {
                                "goal": f"hot_goal_{i}",
                                "actions": [action_labels[0], f"hot_act_{i}"],
                            }
                        ]
                    },
                    method="PUT",
                )
                assert status == 200, body
                added.extend(json.loads(body)["added"])
            status, body = pool.request(
                f"/model/implementations/{added[0]}", method="DELETE"
            )
            assert status == 200, body
            stop.set()
            for thread in threads:
                thread.join(10)
            assert not errors, errors[:5]

            # Every worker applies the same mutation sequence, but the ack
            # only covers the origin worker — siblings catch up over their
            # control pipes.  Poll until the whole pool reports the final
            # (generation, implementations) pair: 5 adds + 1 remove.
            expected = (6, 120 + 5 - 1)
            deadline = time.monotonic() + 15
            states: set[tuple[int, int]] = set()
            while time.monotonic() < deadline:
                states = set()
                for _ in range(8):
                    status, body = pool.request("/health")
                    assert status == 200
                    health = json.loads(body)
                    states.add(
                        (health["generation"], health["implementations"])
                    )
                if states == {expected}:
                    break
                time.sleep(0.2)
            assert states == {expected}

            # The surviving hot adds are recommendable on any worker.
            for _ in range(4):
                status, body = pool.request(
                    "/recommend", {"activity": ["hot_act_4"], "k": 5}
                )
                assert status == 200
                actions = [
                    row["action"]
                    for row in json.loads(body)["recommendations"]
                ]
                assert action_labels[0] in actions
        finally:
            stop.set()
            code = pool.stop()
        assert code == 0


class TestSigtermDrain:
    def test_sigterm_drains_every_worker(self, library_path):
        pool = ServerProcess(library_path, 2)
        workers = pool.worker_pids()
        assert len(workers) == 2
        pool.proc.send_signal(signal.SIGTERM)
        pool.proc.wait(30)
        _out, err = pool.proc.communicate(timeout=10)
        assert pool.proc.returncode == 0
        assert "draining 2 workers" in err
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [pid for pid in workers if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.1)
        assert not alive, f"workers survived the drain: {alive}"


    def test_accept_race_loser_returns_to_its_serve_loop(self):
        # One connection wakes every worker's select() on the shared
        # listener, and only one accept() gets it.  Replay a loser's turn
        # deterministically: select() said readable, nothing is pending.
        # It must return to serve_forever (where shutdown() reaches it),
        # not block in accept() until the next connection arrives.
        from http.server import BaseHTTPRequestHandler

        from repro.service import _build_server

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        server = _build_server(
            "127.0.0.1", 0, BaseHTTPRequestHandler, listen_socket=listener
        )
        returned = threading.Event()

        def lose_the_race() -> None:
            server._handle_request_noblock()
            returned.set()

        threading.Thread(target=lose_the_race, daemon=True).start()
        try:
            assert returned.wait(5.0), "the accept() loser blocked"
        finally:
            server.server_close()

    def test_one_connection_then_sigterm_exits_within_drain_timeout(
        self, library_path, action_labels
    ):
        # End to end: after one connection, whichever worker lost the
        # accept() race must still drain, so the pool exits promptly.
        drain_timeout = 3.0
        pool = ServerProcess(
            library_path, 2, "--drain-timeout", str(drain_timeout)
        )
        try:
            status, _body = pool.request(
                "/recommend", {"activity": [action_labels[0]], "k": 3}
            )
            assert status == 200
            started = time.monotonic()
            pool.proc.send_signal(signal.SIGTERM)
            pool.proc.wait(drain_timeout + 2.0)
            elapsed = time.monotonic() - started
        finally:
            code = pool.stop()
        assert code == 0
        assert elapsed <= drain_timeout + 2.0


_STUBBORN_POOL = """
import json, os, signal, sys, time
from repro.serving import workers

def stubborn(conn):
    # Ignores SIGTERM and never answers the drain command; leaves only
    # once orphaned, so a supervisor that fails the test leaks nothing.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    parent = os.getppid()
    conn.send(("ready", 0, 0))
    while os.getppid() == parent:
        time.sleep(0.2)

class StubbornSupervisor(workers.WorkerSupervisor):
    def _spawn_locked(self, index):
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=stubborn, args=(child_conn,))
        proc.start()
        child_conn.close()
        self._pipes[index] = parent_conn
        self._procs[index] = proc
        parent_conn.recv()  # the child has installed SIG_IGN

supervisor = StubbornSupervisor(
    incremental=None, frozen=None, arena=None, host="127.0.0.1", port=0,
    workers=2, restart_budget=0, drain_timeout=float(sys.argv[1]),
    listen_socket=None, service_kwargs={},
)
supervisor.start()
procs = list(supervisor._procs.values())
started = time.monotonic()
supervisor.shutdown()
print(json.dumps({
    "elapsed": time.monotonic() - started,
    "exitcodes": [proc.exitcode for proc in procs],
    "grace": workers._ESCALATION_GRACE_SECONDS,
}))
"""


class TestShutdownLadder:
    def test_worker_ignoring_sigterm_is_killed_within_the_ladder(self):
        drain_timeout = 1.0
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        completed = subprocess.run(
            [sys.executable, "-c", _STUBBORN_POOL, str(drain_timeout)],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        # Drain window + one grace, SIGTERM + one grace, SIGKILL: reaped.
        assert report["exitcodes"] == [-signal.SIGKILL, -signal.SIGKILL]
        assert report["elapsed"] <= drain_timeout + 3 * report["grace"] + 1.0
        assert "survived SIGTERM; killing" in completed.stderr


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class TestCrashRestart:
    def test_killed_worker_is_respawned_and_pool_keeps_serving(
        self, library_path
    ):
        pool = ServerProcess(library_path, 2)
        try:
            before = pool.worker_pids()
            assert len(before) == 2
            os.kill(before[0], signal.SIGKILL)
            deadline = time.monotonic() + 15
            respawned: list[int] = []
            while time.monotonic() < deadline:
                respawned = pool.worker_pids()
                if len(respawned) == 2 and respawned != before:
                    break
                time.sleep(0.2)
            assert len(respawned) == 2 and respawned != before
            # The replacement serves the same model state.
            deadline = time.monotonic() + 10
            seen_ok = 0
            while time.monotonic() < deadline and seen_ok < 6:
                status, body = pool.request("/health")
                if status == 200:
                    assert json.loads(body)["implementations"] == 120
                    seen_ok += 1
            assert seen_ok == 6
        finally:
            code = pool.stop()
        assert code == 0
