"""Start, time, measure and stop one server process group.

Each server leads a process group of its own, which a pool parent's
forked workers join: the benchmark sums their peak RSS and,
when a graceful stop overruns, kills the whole group.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

from client import call, encode_request

SETUP_TIMEOUT_S = 120.0
#: ``repro serve --drain-timeout`` as shipped.
DRAIN_TIMEOUT_S = 10.0
#: SIGTERM gets the server's own drain budget plus this margin to end
#: the group before SIGKILL, so a server still inside its budget is
#: never counted as a forced kill.
TEARDOWN_MARGIN_S = 5.0
_BANNER = re.compile(rb" on http://[^\s:]+:(\d+)")
#: Where a pool's shared model arena lives while it serves.
SHM_DIR = Path("/dev/shm")
_HEALTH = encode_request("GET", "/health")


def free_port() -> int:
    """An unused loopback port (the pool needs an explicit one)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def _shm_segments() -> set[str]:
    try:
        return {entry.name for entry in SHM_DIR.iterdir()}
    except OSError:
        return set()


def _group_members(pgid: int) -> list[int]:
    """Live pids in process group ``pgid``, read from /proc."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        # fields: state ppid pgrp ...; zombies hold no memory and are done.
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


class ServerProcess:
    """One served process group, started by ``argv``.

    ``port`` 0 means the server picks one and announces it in its ready
    banner; ``wait_ready`` then reads it from there.
    """

    def __init__(self, argv: list[str], env: dict[str, str], port: int,
                 log_path: Path) -> None:
        self.port = port
        self._shm_before = _shm_segments()
        self._log = open(log_path, "ab")
        self._started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        self._banner = threading.Event()
        self.announced_port = 0
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            match = _BANNER.search(line)
            if match and not self._banner.is_set():
                self.announced_port = int(match.group(1))
                self._banner.set()

    def wait_ready(self) -> float:
        """Seconds from spawn to the first ``200`` on ``/health``.

        Then also waits for the ready banner, which a pool prints only
        once every worker is up, so measurement never starts on a
        half-built pool.
        """
        deadline = self._started + SETUP_TIMEOUT_S
        while self.port == 0:
            if self._banner.wait(0.05):
                self.port = self.announced_port
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"server exited or never printed its ready banner "
                    f"(exit code {self.proc.poll()})"
                )
        while True:
            klass, _status, _body = call(self.port, _HEALTH, timeout=5.0)
            now = time.perf_counter()
            if klass == "ok":
                setup_s = now - self._started
                break
            if self.proc.poll() is not None or now > deadline:
                raise RuntimeError(
                    f"server exited or never became healthy "
                    f"(exit code {self.proc.poll()})"
                )
            time.sleep(0.005)
        if not self._banner.wait(max(1.0, deadline - time.perf_counter())):
            raise RuntimeError("server never printed its ready banner")
        return setup_s

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the process group, in MiB."""
        total_kb = 0
        for pid in _group_members(self.proc.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> tuple[float, bool]:
        """SIGTERM, then SIGKILL the group once the drain budget and the
        margin have passed.

        Returns ``(seconds until the group was gone, whether SIGKILL was
        needed)``.  The wait is bounded whatever the server does.
        """
        start = time.perf_counter()
        deadline = start + DRAIN_TIMEOUT_S + TEARDOWN_MARGIN_S
        pgid = self.proc.pid
        forced = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        while _group_members(pgid):
            if time.perf_counter() > deadline:
                forced = True
                try:
                    os.killpg(pgid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                break
            time.sleep(0.01)
        self.proc.wait()
        # After SIGKILL the workers are re-parented; wait for them to go.
        end = time.perf_counter() + 5.0
        while _group_members(pgid) and time.perf_counter() < end:
            time.sleep(0.01)
        elapsed = time.perf_counter() - start
        if forced:
            self._unlink_leaked_segments()
        self._reader.join(5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return elapsed, forced

    def _unlink_leaked_segments(self) -> None:
        """Remove shared-memory segments a killed pool never unlinked:
        those that appeared while this server ran."""
        for name in _shm_segments() - self._shm_before:
            if name.startswith("psm_"):
                (SHM_DIR / name).unlink(missing_ok=True)

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._unlink_leaked_segments()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
