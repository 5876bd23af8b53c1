"""Client for the ``ggcc serve`` compile daemon.

One :class:`CompileClient` holds one connection and issues one request
frame per call; responses come back as plain dicts, shaped exactly like
:meth:`repro.server.server.CompileServer.handle` built them.  Connect
retries under a deadline with exponential backoff and full jitter,
because the natural usage is "start the server, immediately ask it to
compile" and the bind may still be in flight — and a thundering herd of
clients must not hammer a socket that is refusing them.

For pipelining, :meth:`send` and :meth:`recv` split the round trip:
stream several requests (tag each with an ``"id"``), then read the
responses — the server echoes each request's id on its response.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, List, Optional

from .protocol import recv_frame, send_frame

#: First connect-retry sleep, seconds; doubles per retry up to
#: :data:`CONNECT_RETRY_CAP`, and each actual sleep is drawn uniformly
#: from ``[0, current]`` (full jitter) so concurrent clients desynchronize.
CONNECT_RETRY_INITIAL = 0.01
CONNECT_RETRY_CAP = 0.5


class CompileClient:
    """Talk to a :class:`~repro.server.server.CompileServer`.

    ``path`` dials an ``AF_UNIX`` socket, ``host``/``port`` TCP
    loopback — matching however the server was bound.  Usable as a
    context manager; the connection closes cleanly (a frame-boundary
    EOF) on exit.  ``connect_attempts`` records how many dials the
    initial connection took (the backoff tests count them).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        connect_timeout: float = 5.0,
    ) -> None:
        if (path is None) == (host is None):
            raise ValueError("give a unix socket path or a TCP host")
        self.path = path
        self.host = host
        self.port = port
        self.connect_attempts = 0
        self._sock: Optional[socket.socket] = None
        self._connect(connect_timeout)

    def _dial(self) -> socket.socket:
        if self.path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.path)
            except OSError:
                sock.close()  # no fd leak per failed attempt
                raise
            return sock
        return socket.create_connection((self.host, self.port))

    def _connect(self, timeout: float) -> None:
        """Dial until *timeout*, backing off exponentially with full
        jitter: sleep ``uniform(0, delay)`` where delay doubles from
        :data:`CONNECT_RETRY_INITIAL` to :data:`CONNECT_RETRY_CAP`.
        A busy-wait here (the old fixed 50ms poll) multiplied by many
        concurrent clients is a connect storm; jittered backoff keeps
        the retry load constant and desynchronized."""
        deadline = time.monotonic() + timeout
        delay = CONNECT_RETRY_INITIAL
        while True:
            self.connect_attempts += 1
            try:
                self._sock = self._dial()
                return
            except OSError:
                now = time.monotonic()
                if now >= deadline:
                    raise
                pause = min(random.uniform(0, delay), deadline - now)
                if pause > 0:
                    time.sleep(pause)
                delay = min(delay * 2, CONNECT_RETRY_CAP)

    # ------------------------------------------------------------- ops
    def send(self, payload: Dict[str, Any]) -> None:
        """Stream one request frame without waiting for its response
        (pipelining).  Tag requests with an ``"id"`` to correlate."""
        if self._sock is None:
            raise RuntimeError("client is closed")
        send_frame(self._sock, payload)

    def recv(self) -> Dict[str, Any]:
        """The next response frame; raises if the server closed first."""
        if self._sock is None:
            raise RuntimeError("client is closed")
        response = recv_frame(self._sock)
        if response is None:
            raise ConnectionError("server closed before responding")
        return response

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame, wait for its response frame."""
        self.send(payload)
        return self.recv()

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def compile(self, source: str, **options: Any) -> Dict[str, Any]:
        """Compile one translation unit; ``options`` pass through to the
        request (``resilient``, ``spans``, ``deadline``, ``id``,
        ``target`` — the server refuses a ``target`` other than the one
        its tables were built for)."""
        return self.request({"op": "compile", "source": source, **options})

    def compile_batch(
        self, requests: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """One round trip for many compile requests (each a dict with
        at least ``source``); responses come back in order."""
        return self.request({"op": "compile_batch", "requests": requests})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop accepting after this response."""
        return self.request({"op": "shutdown"})

    # ------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "CompileClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
