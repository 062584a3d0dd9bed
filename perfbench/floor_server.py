"""The HTTP floor: a bare stdlib server answering a fixed JSON body.

Usage: ``python3 perfbench/floor_server.py PORT BODY_BYTES``.  It reads
the request body like the real service, then answers ``200`` with a JSON
body of the given size.  Timed with the benchmark's own client, it is
the least a served request can cost on this interpreter and machine.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def make_handler(body: bytes) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            pass

        def _answer(self) -> None:
            length = int(self.headers.get("Content-Length", "0"))
            if length:
                self.rfile.read(length)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = _answer
        do_POST = _answer

    return Handler


def fixed_body(size: int) -> bytes:
    """A JSON object of exactly ``size`` bytes (at least 12)."""
    skeleton = json.dumps({"pad": ""}).encode()
    return json.dumps({"pad": "x" * max(0, size - len(skeleton))}).encode()


def main(argv: list[str]) -> int:
    port, size = int(argv[0]), int(argv[1])
    server = ThreadingHTTPServer(("127.0.0.1", port), make_handler(fixed_body(size)))
    print(f"floor on http://127.0.0.1:{port}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
