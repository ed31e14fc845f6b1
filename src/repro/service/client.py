"""Blocking JSON-line client for the flow service socket.

Thin by design: one connection per request, stdlib ``socket`` only, so
the CLI verbs, tests and benchmark harnesses can talk to the daemon
without touching asyncio.  Thread-safe by construction (no shared
connection state), which is exactly what the concurrency suite needs
to hammer one daemon from many submitter threads.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Optional

from repro.errors import FlowError

#: Flow runs can be minutes cold on the big fabrics.
DEFAULT_TIMEOUT_S = 900.0


class ServiceUnavailable(FlowError):
    """No daemon is answering on the socket."""


class ServiceClient:
    """Talk to a :class:`repro.service.daemon.FlowService`."""

    def __init__(self, socket_path: str,
                 timeout: float = DEFAULT_TIMEOUT_S):
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def request(self, payload: dict) -> dict:
        """One request/response round trip; raises on transport
        failure, returns the (possibly ``ok=False``) response dict."""
        try:
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as sock:
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
                sock.sendall(json.dumps(payload).encode() + b"\n")
                line = self._read_line(sock)
        except (OSError, socket.timeout) as exc:
            raise ServiceUnavailable(
                f"no flow service on {self.socket_path}: {exc}") from exc
        if not line:
            raise ServiceUnavailable(
                f"flow service on {self.socket_path} closed the "
                f"connection without answering")
        return json.loads(line)

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        return b"".join(chunks)

    # -- ops -----------------------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def status(self) -> dict:
        return self.request({"op": "status"})

    def health(self) -> dict:
        """Cheap liveness probe (no metrics snapshot attached)."""
        return self.request({"op": "health"})

    def metrics_prometheus(self) -> str:
        """The daemon's metrics as Prometheus text exposition."""
        response = self.request({"op": "metrics"})
        if not response.get("ok"):
            raise ServiceUnavailable(
                f"metrics op failed: {response.get('error')}")
        return response["text"]

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def submit_flow(self, benchmark: str, selector: str = "gnn",
                    seed: Optional[int] = None,
                    with_scan: bool = False,
                    dft_strategy: Optional[str] = None,
                    freq_mhz: Optional[float] = None,
                    save_report: bool = False,
                    **extra: Any) -> dict:
        payload = {"op": "flow", "benchmark": benchmark,
                   "selector": selector, "seed": seed,
                   "with_scan": with_scan,
                   "dft_strategy": dft_strategy,
                   "freq_mhz": freq_mhz, "save_report": save_report}
        payload.update(extra)
        return self.request(payload)


def service_alive(socket_path: str, timeout: float = 2.0) -> bool:
    """True when a daemon answers ``ping`` on *socket_path*."""
    try:
        return bool(ServiceClient(socket_path, timeout=timeout)
                    .ping().get("ok"))
    except (ServiceUnavailable, ValueError):
        return False


def wait_for_service(socket_path: str, timeout: float = 30.0,
                     poll_s: float = 0.05) -> None:
    """Block until the daemon answers; raise on deadline."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service_alive(socket_path, timeout=poll_s * 10):
            return
        time.sleep(poll_s)
    raise ServiceUnavailable(
        f"flow service on {socket_path} did not come up "
        f"within {timeout:.0f}s")
