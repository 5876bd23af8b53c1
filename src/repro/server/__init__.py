"""The compile service: warm tables behind a local socket.

The paper's static/dynamic split says table construction is the
expensive part and per-function compilation is cheap — so a driver that
pays the static phase on every invocation throws the advantage away.
``ggcc serve`` keeps one process alive with the constructed tables and
serves concurrent clients from an asyncio accept loop: bounded
admission queue with ``SERVER-OVERLOAD`` backpressure, per-request
deadlines, request pipelining with id echo, and a per-function
content-addressed result cache so repeat traffic skips the dynamic
phase too.  Each response ships per-request diagnostics, a metrics
delta, and (on request) a span trace.

Every compile request takes one path: validate and probe the result
cache in the server, compile the misses, assemble the response in the
server.  With ``--workers N`` the service is *self-healing*: the misses
compile on N supervised warm subprocesses of the worker substrate
(:mod:`repro.workers`: health probes, crash/hang detection, restart
with backoff, bounded re-dispatch), a per-failure-class circuit breaker
sheds load when the backend is failing, and SIGTERM/SIGINT drains
gracefully — every admitted request is answered, worst case with a
structured ``SERVER-SHUTDOWN`` error.

Five modules::

    protocol.py      length-prefixed JSON frames; sans-IO FrameDecoder,
                     blocking and asyncio transports
    server.py        CompileServer: async accept loop, admission queue,
                     deadlines, the one compile path, result cache,
                     graceful drain
    breaker.py       CircuitBreaker: per-failure-class load shedding
    client.py        CompileClient: jittered connect retry, pipelining
    loadgen.py       closed-loop load generator behind the chaos
                     ``kill-storm`` scenario
"""

from .breaker import BreakerPolicy, CircuitBreaker
from .client import CompileClient
from .loadgen import LoadReport, run_load
from .protocol import (
    FrameDecoder, ProtocolError, encode_frame, read_frame_async,
    recv_frame, send_frame, write_frame_async,
)
from .server import CompileServer

__all__ = [
    "CompileClient", "CompileServer", "ProtocolError", "FrameDecoder",
    "encode_frame", "recv_frame", "send_frame",
    "read_frame_async", "write_frame_async",
    "LoadReport", "run_load", "CircuitBreaker", "BreakerPolicy",
]
