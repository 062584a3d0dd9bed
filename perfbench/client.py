"""Raw-socket HTTP client and the closed-loop load generator.

The server speaks HTTP/1.0 and closes every connection after one
response, so each request here is one short-lived connection: connect,
send the pre-encoded request, read to EOF.  Building requests up front
and parsing only the status line keeps the client's own CPU cost small
on a box whose cores it shares with the server.
"""

from __future__ import annotations

import socket
import time
from collections import Counter
from dataclasses import dataclass, field

from hostcpu import cpu_times, unstolen_share

HOST = "127.0.0.1"
#: A read stuck this long counts as a timeout failure.
READ_TIMEOUT_S = 10.0
#: Mutations refreeze the model and can take most of a second.
MUTATION_TIMEOUT_S = 60.0


def encode_request(method: str, path: str, body: bytes | None = None) -> bytes:
    """One complete HTTP/1.0 request, ready for ``sendall``."""
    head = f"{method} {path} HTTP/1.0\r\nHost: {HOST}\r\n"
    if body is not None:
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
    return head.encode("ascii") + b"\r\n" + (body or b"")


def status_class(status: int) -> str:
    """The accounting bucket of an HTTP status (``ok`` for 2xx)."""
    if 200 <= status < 300:
        return "ok"
    if status in (429, 503):
        return str(status)
    return f"{status // 100}xx"


def _read_to_eof(sock: socket.socket, timeout: float, spin: bool) -> bytes:
    """Everything the server sends until it closes the connection.

    With ``spin`` the socket is polled without blocking, so the client's
    CPU never goes idle while a request is in flight.  On a virtual
    machine, waking an idle virtual CPU waits for the host to schedule
    it; a busy host makes that wait, which the guest reports as steal,
    longer than a cache-hit request.
    """
    chunks = []
    if spin:
        sock.setblocking(False)
    deadline = time.perf_counter() + timeout
    while True:
        try:
            chunk = sock.recv(65536)
        except BlockingIOError:
            if time.perf_counter() > deadline:
                raise socket.timeout from None
            continue
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def call(
    port: int, request: bytes, timeout: float = READ_TIMEOUT_S,
    spin: bool = False,
) -> tuple[str, int, bytes]:
    """Send one request; returns ``(class, status, body)``.

    Transport failures map to the classes ``reset``, ``refused`` and
    ``timeout`` with status 0 instead of raising, so a load generator keeps
    its accounting whatever the server does.  ``spin`` polls for the
    response instead of sleeping until it arrives (see ``_read_to_eof``).
    """
    try:
        with socket.create_connection((HOST, port), timeout=timeout) as sock:
            sock.sendall(request)
            data = _read_to_eof(sock, timeout, spin)
    except socket.timeout:
        return "timeout", 0, b""
    except ConnectionRefusedError:
        return "refused", 0, b""
    except OSError:
        return "reset", 0, b""
    head, sep, body = data.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return "reset", 0, b""
    if not sep:
        return "reset", status, b""
    return status_class(status), status, body


class Phase:
    """Sent / succeeded / failed-by-class counts of one benchmark phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.classes: Counter[str] = Counter()

    def record(self, klass: str) -> None:
        self.classes[klass] += 1

    @property
    def sent(self) -> int:
        return sum(self.classes.values())

    @property
    def failed(self) -> int:
        return self.sent - self.classes["ok"]

    def summary(self) -> dict[str, object]:
        failed = {k: v for k, v in sorted(self.classes.items()) if k != "ok"}
        return {
            "sent": self.sent,
            "succeeded": self.classes["ok"],
            "failed": self.failed,
            "failed_by_class": failed,
        }


@dataclass
class Sample:
    """One measured request."""

    index: int  # position in the workload's request list
    klass: str
    latency_s: float
    #: Send time minus the previous completion: the client's own gap
    #: between requests.
    late_s: float
    body: bytes
    #: The slice of the load phase the request was sent in.
    slice: int = 0


@dataclass
class Slice:
    """About ``SLICE_S`` of a load phase."""

    seconds: float
    #: Share of the machine's busy CPU time the hypervisor did not steal
    #: during the slice (see ``hostcpu``).
    unstolen: float


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    slices: list[Slice] = field(default_factory=list)


def timed_call(
    port: int, request: bytes, phase: Phase, timeout: float = READ_TIMEOUT_S
) -> tuple[str, float, bytes]:
    """``call`` plus phase accounting; returns ``(class, seconds, body)``.

    The seconds are net of hypervisor steal during the call.
    """
    cpu_before = cpu_times()
    start = time.perf_counter()
    klass, _status, body = call(port, request, timeout)
    elapsed = time.perf_counter() - start
    phase.record(klass)
    return klass, elapsed * unstolen_share(cpu_before, cpu_times()), body


def closed_loop(
    port: int,
    requests: list[bytes],
    seconds: float,
    phase: Phase,
    start_index: int = 0,
    slice_s: float = 1.0,
) -> tuple[LoadResult, int]:
    """One client on one connection at a time, sending its next request
    as soon as the previous one completes, and polling for each response.

    Requests are taken in order from ``requests[start_index:]`` until
    ``seconds`` elapse or the list runs out.  The phase is cut into
    slices of ``slice_s``, each with its own steal reading.  Returns the
    samples and the cursor, so the next phase continues with requests
    this one never sent.
    """
    result = LoadResult()
    index = start_index
    end = time.perf_counter() + seconds
    previous = time.perf_counter()
    while index < len(requests):
        slice_start = time.perf_counter()
        if slice_start >= end:
            break
        slice_end = min(end, slice_start + slice_s)
        cpu_before = cpu_times()
        number = len(result.slices)
        while index < len(requests):
            sent = time.perf_counter()
            if sent >= slice_end:
                break
            klass, _status, body = call(port, requests[index], spin=True)
            done = time.perf_counter()
            phase.record(klass)
            result.samples.append(
                Sample(index, klass, done - sent, sent - previous, body, number)
            )
            previous = done
            index += 1
        result.slices.append(Slice(
            time.perf_counter() - slice_start,
            unstolen_share(cpu_before, cpu_times()),
        ))
    return result, index
