"""The long-lived compile service behind ``ggcc serve``.

A :class:`CompileServer` owns one warm generator (tables constructed at
startup, never again) and a per-function content-addressed **result
cache** (:mod:`repro.result_cache`): repeat traffic whose functions,
tables and engine are unchanged skips the dynamic phase entirely.

Every compile request takes one path, whatever the backend:

1. **Probe** (executor thread): validate the request — a dict, with
   ``source`` text, for this server's ``target`` — parse it once, derive
   its result-cache keys once and split hits from misses by the cache's
   one probe rule (a disabled cache misses everything).
2. **Compile the misses** with the one job body
   (:func:`repro.compile.compile_functions`, wrapped by
   :func:`repro.server.supervisor._run_request`): on the executor
   thread (``workers=0``), or in a supervised worker subprocess
   (``workers=N``).  A unit whose every function hits skips this step,
   so full hits never cross a pipe.
3. **Assemble** (executor thread): the strictness check, the one
   response builder, and the one place fresh results are stored.

The service is an asyncio accept loop built for concurrent load:

* **Many connections, pipelined requests.**  Every connection is served
  concurrently; within one connection a client may stream request
  frames without waiting for responses.  Responses carry the request's
  ``"id"`` back verbatim (include one to correlate under pipelining —
  compile responses complete in admission order today, but only the id
  is contract).
* **Bounded admission queue with backpressure.**  Compile work enters a
  queue of at most ``queue_limit`` entries.  When it is full, the
  request is rejected *immediately* with a structured
  ``SERVER-OVERLOAD`` diagnostic — never a hang, never a silently
  dropped connection.  Control operations (``ping``, ``stats``,
  ``shutdown``) bypass the queue so the server stays observable under
  overload.
* **Per-request deadlines.**  ``{"deadline": seconds}`` (or the
  server-wide ``default_deadline``) starts a watchdog at admission.  If
  it fires while the request is still queued the work is cancelled
  outright; if it fires mid-compile the response is sent immediately
  and the in-flight result is discarded on completion (a running
  compile cannot be interrupted, but its caller is never left waiting
  past the deadline).  Either way the client gets a structured
  ``SERVER-DEADLINE`` response.
* **One compile executor.**  Probe and assembly — and, with
  ``workers=0`` (the default), the compile itself — run on a single
  worker thread: the dynamic phase is pure Python (GIL-bound across
  threads anyway), and serializing that work is what keeps each
  response's *metrics delta* exact — the registry window opens and
  closes around exactly one request's step.  Admission, framing and
  deadline handling stay on the event loop, concurrent with any
  compile.
* **Supervised workers** (``workers=N``).  The compile step dispatches
  to N warm worker *subprocesses* under a :class:`WorkerSupervisor
  <repro.server.supervisor.WorkerSupervisor>`: a crashed or hung worker
  is detected, killed, restarted with backoff, and its job
  re-dispatched to a healthy sibling (bounded by ``max_retries``;
  idempotent because results are content-addressed).  A per-failure-
  class :class:`~repro.server.supervisor.CircuitBreaker` sheds load
  with ``SERVER-CIRCUIT-OPEN`` instead of queueing onto a failing
  backend.
* **Graceful drain.**  SIGTERM/SIGINT (or the ``shutdown`` op) stops
  accepting, lets in-flight work finish within ``drain_grace`` seconds,
  and answers everything still queued or abandoned with a structured
  ``SERVER-SHUTDOWN`` error before connections close — no request is
  ever silently dropped by a shutdown.

Operations (JSON frames, :mod:`repro.server.protocol`):

``{"op": "ping"}``
    liveness probe; returns the server pid and uptime.
``{"op": "compile", "source": ..., "id"?, "deadline"?, "target"?,
"resilient"?, "spans"?}``
    compile one translation unit; the response carries the assembly,
    per-function tiers and failures, structured diagnostics, the
    request's metrics *delta*, result-cache traffic, and (with
    ``"spans": true``) a Chrome ``trace_event`` list — the parent's
    ``server.request``/``server.cache_probe`` spans plus the compile's,
    a supervised worker's on their own pid row.  Other fields
    (``"jobs"``, ``"timeout"``, ``"parallel"``) are ignored.
``{"op": "compile_batch", "requests": [...]}``
    the compile op over a list, one response per request, in order —
    one round trip (and one admission-queue slot) for a whole batch.
``{"op": "stats"}``
    request counters, queue depth, result-cache stats, supervisor and
    breaker state.
``{"op": "shutdown"}``
    acknowledge, then stop accepting.

Compile errors never tear the connection down: a failing request gets
``{"ok": false, "error": {...}}`` plus whatever diagnostics were
collected, and the server keeps serving.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from ..codegen.driver import GrahamGlanvilleCodeGenerator
from ..compile import (
    _function_seconds, _report_table_cache, check_strict, data_section_of,
)
from ..diag import codes
from ..diag.diagnostics import CompileError, Diagnostic, DiagnosticSink
from ..frontend import CompiledProgram, parse
from ..obs.metrics import REGISTRY, MetricsSnapshot
from ..obs.spans import (
    SpanRecorder, install_recorder, span, uninstall_recorder,
)
from .protocol import (
    ProtocolError, read_frame_async, write_frame_async,
)
from ..result_cache import ResultCache, table_fingerprint
from .supervisor import (
    CircuitBreaker, DEFAULT_JOB_TIMEOUT, DEFAULT_MAX_RETRIES, JobOutcome,
    WorkerSupervisor, _run_request,
)

#: Admission-queue capacity when the caller doesn't choose one.  Large
#: enough that a burst of concurrent clients queues rather than sheds,
#: small enough that queueing delay stays bounded by tens of compiles.
DEFAULT_QUEUE_LIMIT = 128

#: Bucket boundaries for the queue-depth histogram (entries, not
#: seconds).
QUEUE_DEPTH_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

_FALSEY = {"0", "off", "false", "no"}

#: ``REPRO_RESULT_CACHE=0`` disables the per-function result cache for
#: servers that don't choose explicitly.
ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"


def _result_cache_default() -> bool:
    value = os.environ.get(ENV_RESULT_CACHE)
    if value is None:
        return True
    return value.strip().lower() not in _FALSEY


class _Connection:
    """One peer: its streams plus a write lock so pipelined responses
    never interleave mid-frame."""

    __slots__ = ("reader", "writer", "lock")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()

    async def send(self, payload: Any) -> None:
        async with self.lock:
            await write_frame_async(self.writer, payload)

    async def send_safe(self, payload: Any) -> bool:
        """Send, swallowing a dead peer (it can't be helped by now)."""
        try:
            await self.send(payload)
            return True
        except (OSError, ConnectionError):
            return False

    def close(self) -> None:
        try:
            self.writer.close()
        except (OSError, RuntimeError):
            pass


@dataclass
class _Job:
    """One admitted compile request, from queue to response."""

    conn: _Connection
    request: Dict[str, Any]
    op: str
    rid: Any = None
    enqueued_at: float = 0.0
    deadline: Optional[float] = None
    started: bool = False
    #: Once True, exactly one response has been (or is being) sent —
    #: the worker and the deadline watchdog race for it on the single
    #: event-loop thread, so a plain flag is a safe arbiter.
    responded: bool = False
    watchdog: Optional[asyncio.TimerHandle] = None


class CompileServer:
    """Warm-table compile service over a local stream socket.

    ``path`` binds an ``AF_UNIX`` socket (preferred: filesystem
    permissions are the access control); ``host``/``port`` binds TCP
    loopback instead, for platforms without unix sockets.
    Cross-request concurrency comes from the async accept loop, the
    result cache and (``workers`` > 0) the supervised workers, not from
    thread fan-out.

    ``queue_limit`` bounds the admission queue (queue-full requests get
    an immediate ``SERVER-OVERLOAD`` response); ``default_deadline``
    applies to requests that don't carry their own ``"deadline"``.
    ``result_cache`` may be ``False`` (disable), a ready
    :class:`ResultCache` (tests), or ``None`` — enabled, memory-only
    unless ``result_cache_dir`` names a persistent directory, and
    honouring ``REPRO_RESULT_CACHE=0``.

    ``workers`` > 0 runs the compile step of every request on the
    supervised subsystem: that many warm compile subprocesses, per-job
    deadlines (``job_timeout``), bounded re-dispatch (``max_retries``),
    and a circuit breaker; ``workers=0`` runs it on the compile
    executor thread.  ``breaker``
    may be ``False`` (off), a ready
    :class:`~repro.server.supervisor.CircuitBreaker` (tests), or
    ``None`` — a default breaker when workers are supervised.
    ``drain_grace`` bounds how long shutdown waits for in-flight work
    before abandoning it with ``SERVER-SHUTDOWN``.

    ``max_requests`` stops the accept loop once that many requests have
    been received and answered — the tests' way of bounding a server
    thread's lifetime.  ``_before_compile`` is a test seam: a callable
    run on the compile thread before each compile request is validated
    (tests block it on an event to fill the queue deterministically).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        generator: Optional[GrahamGlanvilleCodeGenerator] = None,
        target: Optional[object] = None,
        max_requests: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_deadline: Optional[float] = None,
        result_cache: Any = None,
        result_cache_dir: Optional[str] = None,
        workers: int = 0,
        job_timeout: float = DEFAULT_JOB_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        breaker: Any = None,
        drain_grace: float = 5.0,
        _before_compile: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if path is not None and host is not None:
            raise ValueError("give a unix socket path or a TCP host, not both")
        if path is None and host is None:
            raise ValueError("a unix socket path or a TCP host is required")
        self.path = path
        self.host = host
        self.port = port
        self.max_requests = max_requests
        self.queue_limit = max(1, queue_limit)
        self.default_deadline = default_deadline
        self.generator = generator or GrahamGlanvilleCodeGenerator(
            target=target
        )
        self.started_at = time.monotonic()
        self.requests_served = 0
        self.functions_compiled = 0
        self.errors = 0
        self.overloads = 0
        self.deadline_expired = 0
        self.shutdown_rejected = 0
        self.breaker_shed = 0
        self.workers = max(0, workers)
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.drain_grace = drain_grace
        self.supervisor: Optional[WorkerSupervisor] = None
        if breaker is False:
            self.breaker: Optional[CircuitBreaker] = None
        elif isinstance(breaker, CircuitBreaker):
            self.breaker = breaker
        else:
            self.breaker = CircuitBreaker() if self.workers > 0 else None
        self._before_compile = _before_compile
        self._running = False
        self._draining = False
        self._abandoned: List[_Job] = []
        self._shutdown_reason: Optional[str] = None
        self._listener: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._outstanding = 0
        self._connections: Set[_Connection] = set()
        self._executor: Optional[ThreadPoolExecutor] = None

        if result_cache is False:
            self.result_cache: Optional[ResultCache] = None
        elif isinstance(result_cache, ResultCache):
            self.result_cache = result_cache
        elif _result_cache_default():
            self.result_cache = ResultCache(
                table_fingerprint(self.generator),
                self.generator.engine,
                directory=result_cache_dir,
            )
        else:
            self.result_cache = None

    # --------------------------------------------------------- serving
    def bind(self) -> socket.socket:
        """Create, bind and listen; returns the listening socket."""
        if self.path is not None:
            if os.path.exists(self.path):
                os.unlink(self.path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        return listener

    @property
    def address(self) -> str:
        return self.path if self.path is not None \
            else f"{self.host}:{self.port}"

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def serve_forever(self) -> None:
        """Run the async service to completion on a private event loop.

        Returns after a ``shutdown`` request or once ``max_requests``
        requests have been answered; the listening socket (and the
        unix-socket path) are cleaned up on the way out, supervised
        workers are stopped, but the warm generator (and the result
        cache) survive for a later call.
        """
        asyncio.run(self.serve_async())

    async def serve_async(self) -> None:
        """The accept loop proper, for callers who own an event loop."""
        if self._listener is None:
            self.bind()
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._shutdown_event = asyncio.Event()
        self._outstanding = 0
        self._draining = False
        self._abandoned = []
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ggcc-compile"
        )
        if self.workers > 0:
            self.supervisor = WorkerSupervisor(
                self.workers, self.generator,
                job_timeout=self.job_timeout,
                max_retries=self.max_retries,
                on_failure=self._worker_failed,
            )
            await self.supervisor.start()
        self._running = True
        if self.path is not None:
            server = await asyncio.start_unix_server(
                self._serve_connection, sock=self._listener
            )
        else:
            server = await asyncio.start_server(
                self._serve_connection, sock=self._listener
            )
        # One dispatcher per supervised worker keeps N compiles in
        # flight; unsupervised servers keep the single-dispatcher
        # discipline (exact per-request metrics windows).
        dispatchers = [
            asyncio.create_task(self._dispatcher())
            for _ in range(self.workers or 1)
        ]
        installed_signals: List[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self.request_shutdown,
                    signal.Signals(signum).name,
                )
                installed_signals.append(signum)
            except (NotImplementedError, RuntimeError, ValueError, OSError):
                pass  # non-main thread or platform without signal support
        try:
            await self._shutdown_event.wait()
        finally:
            self._running = False
            self._draining = True
            for signum in installed_signals:
                try:
                    self._loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            server.close()
            await server.wait_closed()
            await self._drain(dispatchers)
            for conn in list(self._connections):
                conn.close()
            self._connections.clear()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            if self.supervisor is not None:
                await self.supervisor.stop()
                self.supervisor = None
            self._listener = None
            self._queue = None
            self._loop = None
            self._draining = False
            if self.path is not None and os.path.exists(self.path):
                os.unlink(self.path)

    def request_shutdown(self, reason: str = "request") -> None:
        """Begin a graceful drain (signal handlers land here)."""
        self._shutdown_reason = reason
        self._begin_shutdown()

    async def _drain(self, dispatchers: List[asyncio.Task]) -> None:
        """Finish or reject everything still in flight, then stop the
        dispatchers.  Every admitted-but-unanswered job gets a
        ``SERVER-SHUTDOWN`` response before its connection closes."""
        leftovers: List[_Job] = []
        while True:
            try:
                leftovers.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break

        async def _feed_sentinels() -> None:
            for _ in dispatchers:
                await self._queue.put(None)

        feeder = self._loop.create_task(_feed_sentinels())
        _done, stragglers = await asyncio.wait(
            dispatchers, timeout=self.drain_grace
        )
        feeder.cancel()
        for task in stragglers:
            task.cancel()
        await asyncio.gather(*dispatchers, feeder, return_exceptions=True)
        for job in leftovers + self._abandoned:
            if job is None or job.responded:
                continue
            job.responded = True
            self._outstanding -= 1
            if job.watchdog is not None:
                job.watchdog.cancel()
            self.shutdown_rejected += 1
            REGISTRY.inc("server.shutdown.rejected")
            payload = self._shutdown_payload(job.op, job.started)
            if job.rid is not None:
                payload["id"] = job.rid
            await job.conn.send_safe(payload)
        self._abandoned = []

    def _shutdown_payload(
        self, op: str, started: bool
    ) -> Dict[str, Any]:
        stage = "running" if started else "queued"
        message = "the service is draining; " + (
            "the in-flight compile was abandoned" if started
            else "the request was rejected before compiling"
        )
        diag = Diagnostic(
            code=codes.SERVER_SHUTDOWN, message=message,
            context={"stage": stage,
                     "reason": self._shutdown_reason or "shutdown"},
        )
        response = _error(codes.SERVER_SHUTDOWN, message)
        response["op"] = op
        response["diagnostics"] = [diag.to_dict()]
        return response

    # ------------------------------------------------------ connections
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        try:
            while self._running:
                try:
                    request = await read_frame_async(reader)
                except ProtocolError as exc:
                    # A malformed frame poisons only its connection:
                    # report it if the socket still works, then drop
                    # the peer.
                    await conn.send_safe(_error("protocol", str(exc)))
                    return
                if request is None:
                    return
                await self._dispatch(conn, request)
        except (OSError, ConnectionError):
            pass
        finally:
            # During shutdown the drain may still owe this peer
            # SERVER-SHUTDOWN responses; serve_async closes every
            # connection once the drain has flushed them.
            if self._running:
                self._connections.discard(conn)
                conn.close()

    async def _dispatch(
        self, conn: _Connection, request: Any
    ) -> None:
        """Route one request frame: control ops answer inline, compile
        ops pass admission control into the bounded queue."""
        self.requests_served += 1
        if not isinstance(request, dict) or "op" not in request:
            self.errors += 1
            await self._respond(
                conn, _error("bad-request", "a request is {'op': ..., ...}")
            )
            return
        op = request["op"]
        rid = request.get("id")
        if op == "ping":
            await self._respond(conn, self._ping_response(), rid)
            return
        if op == "stats":
            await self._respond(conn, self._stats_response(), rid)
            return
        if op == "shutdown":
            await self._respond(conn, {"ok": True, "op": "shutdown"}, rid)
            self._begin_shutdown()
            return
        if op not in ("compile", "compile_batch"):
            self.errors += 1
            await self._respond(
                conn, _error("bad-request", f"unknown op {op!r}"), rid
            )
            return
        if not self._running or self._draining:
            # A frame racing the drain: reject it now so it can't land
            # in the queue behind the stop sentinels and go unanswered.
            self.shutdown_rejected += 1
            REGISTRY.inc("server.shutdown.rejected")
            await self._respond(
                conn, self._shutdown_payload(op, started=False), rid
            )
            return
        if self.breaker is not None:
            shed_class = self.breaker.admit()
            if shed_class is not None:
                self.breaker_shed += 1
                REGISTRY.inc("server.breaker.shed")
                await self._respond(
                    conn, self._circuit_response(op, shed_class), rid
                )
                return

        job = _Job(
            conn=conn, request=request, op=op, rid=rid,
            enqueued_at=self._loop.time(),
            deadline=_deadline_of(request, self.default_deadline),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.overloads += 1
            REGISTRY.inc("server.queue.rejected")
            await self._respond(conn, self._overload_response(op), rid)
            return
        self._outstanding += 1
        REGISTRY.inc("server.queue.admitted")
        REGISTRY.observe(
            "server.queue.depth", self._queue.qsize(),
            bounds=QUEUE_DEPTH_BOUNDS,
        )
        if job.deadline is not None:
            job.watchdog = self._loop.call_later(
                job.deadline, self._expire_job, job
            )

    # ------------------------------------------------------- responding
    async def _respond(
        self, conn: _Connection, payload: Dict[str, Any], rid: Any = None
    ) -> None:
        if rid is not None:
            payload["id"] = rid
        await conn.send_safe(payload)
        self._maybe_stop()

    def _maybe_stop(self) -> None:
        if (
            self.max_requests is not None
            and self.requests_served >= self.max_requests
            and self._outstanding <= 0
        ):
            self._begin_shutdown()

    def _begin_shutdown(self) -> None:
        self._running = False
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    # -------------------------------------------------------- deadlines
    def _expire_job(self, job: _Job) -> None:
        """Watchdog body: the deadline fired first.  Queued work is
        cancelled outright (the worker will skip it); running work is
        abandoned — the response goes out now, the eventual result is
        discarded."""
        if job.responded:
            return
        job.responded = True
        self._outstanding -= 1
        self.deadline_expired += 1
        REGISTRY.inc("server.deadline.expired")
        if self.breaker is not None:
            self.breaker.record_failure("deadline")
        self._loop.create_task(
            self._respond(job.conn, self._deadline_response(job), job.rid)
        )

    def _worker_failed(self, failure_class: str) -> None:
        """Supervisor callback: every worker crash or hang feeds the
        breaker (on the event-loop thread, so no locking needed)."""
        if self.breaker is not None:
            self.breaker.record_failure(failure_class)

    def _deadline_response(self, job: _Job) -> Dict[str, Any]:
        waited = self._loop.time() - job.enqueued_at
        stage = "running" if job.started else "queued"
        message = (
            f"deadline of {job.deadline:.3g}s expired after "
            f"{waited:.3g}s ({stage}); "
            + ("the in-flight compile was abandoned"
               if job.started else "the queued request was cancelled")
        )
        diag = Diagnostic(
            code=codes.SERVER_DEADLINE, message=message,
            context={"deadline_seconds": job.deadline,
                     "waited_seconds": round(waited, 6), "stage": stage},
        )
        response = _error(codes.SERVER_DEADLINE, message)
        response["op"] = job.op
        response["diagnostics"] = [diag.to_dict()]
        return response

    def _overload_response(self, op: str) -> Dict[str, Any]:
        message = (
            f"admission queue full ({self.queue_limit} request(s) "
            f"queued); retry with backoff"
        )
        diag = Diagnostic(
            code=codes.SERVER_OVERLOAD, message=message,
            context={"queue_limit": self.queue_limit,
                     "queue_depth": self.queue_depth},
        )
        response = _error(codes.SERVER_OVERLOAD, message)
        response["op"] = op
        response["diagnostics"] = [diag.to_dict()]
        response["queue"] = {
            "depth": self.queue_depth, "limit": self.queue_limit,
        }
        return response

    def _circuit_response(self, op: str, failure_class: str) -> Dict[str, Any]:
        message = (
            f"circuit breaker open for failure class {failure_class!r}; "
            f"load shed — retry after the cooldown"
        )
        diag = Diagnostic(
            code=codes.SERVER_CIRCUIT_OPEN, message=message,
            context={"failure_class": failure_class,
                     "breaker": self.breaker.snapshot()},
        )
        response = _error(codes.SERVER_CIRCUIT_OPEN, message)
        response["op"] = op
        response["diagnostics"] = [diag.to_dict()]
        return response

    # ----------------------------------------------------------- worker
    async def _dispatcher(self) -> None:
        """Drain the admission queue — through the compile executor
        (``workers=0``) or the worker supervisor — until the drain
        sentinel arrives."""
        while True:
            job = await self._queue.get()
            if job is None:
                return  # drain sentinel
            if job.responded:
                continue  # expired while queued; already answered
            job.started = True
            waited = self._loop.time() - job.enqueued_at
            REGISTRY.observe("server.queue.wait_seconds", waited)
            try:
                try:
                    response = await self._execute(job.request)
                except Exception as exc:  # the server must outlive any request
                    self.errors += 1
                    response = _error(type(exc).__name__, str(exc))
                    response["op"] = job.op
            except asyncio.CancelledError:
                # Drain gave up on this compile; _drain answers it.
                self._abandoned.append(job)
                raise
            if job.watchdog is not None:
                job.watchdog.cancel()
            if job.responded:
                continue  # deadline fired mid-compile; result discarded
            job.responded = True
            self._outstanding -= 1
            await self._respond(job.conn, response, job.rid)
            if self.breaker is not None:
                # Any answered request closes a half-open breaker (and
                # is a no-op otherwise) — without this, a trial request
                # that fails for an unrelated reason would leave the
                # trial slot taken forever.
                self.breaker.record_success("crash")
                self.breaker.record_success("deadline")

    # -------------------------------------------------------- dispatch
    def handle(self, request: Any) -> Dict[str, Any]:
        """Synchronous single-request dispatch for a server that is not
        serving: the ``workers=0`` form of the compile path, without
        sockets, queueing or deadlines.  Never raises: every failure
        becomes an ``{"ok": false, "error": ...}``."""
        self.requests_served += 1
        if not isinstance(request, dict) or "op" not in request:
            self.errors += 1
            return _error("bad-request", "a request is {'op': ..., ...}")
        op = request["op"]
        try:
            if op == "ping":
                return self._ping_response()
            if op == "stats":
                return self._stats_response()
            if op == "shutdown":
                self._running = False
                return {"ok": True, "op": "shutdown"}
            if op in ("compile", "compile_batch"):
                return _run_inline(self._execute(request))
            self.errors += 1
            return _error("bad-request", f"unknown op {op!r}")
        except Exception as exc:  # pragma: no cover - defensive
            self.errors += 1
            return _error(type(exc).__name__, str(exc))

    def _ping_response(self) -> Dict[str, Any]:
        return {
            "ok": True, "op": "ping", "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self.started_at,
        }

    def _stats_response(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "op": "stats",
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self.started_at,
            "requests_served": self.requests_served,
            "functions_compiled": self.functions_compiled,
            "errors": self.errors,
            "overloads": self.overloads,
            "deadline_expired": self.deadline_expired,
            "shutdown_rejected": self.shutdown_rejected,
            "breaker_shed": self.breaker_shed,
            "workers": self.workers,
            "draining": self._draining,
            "supervisor": (
                self.supervisor.snapshot()
                if self.supervisor is not None else None
            ),
            "breaker": (
                self.breaker.snapshot()
                if self.breaker is not None else None
            ),
            "queue": {
                "depth": self.queue_depth,
                "limit": self.queue_limit,
            },
            "result_cache": (
                self.result_cache.stats()
                if self.result_cache is not None else None
            ),
            "table_source": self.generator.table_source,
            "target": self.generator.target.name,
        }

    # ---------------------------------------------------------- compile
    async def _execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The compile op on either backend: one request, or a
        ``compile_batch`` of them answered in order."""
        if request["op"] == "compile":
            return await self._compile(request)
        requests = request.get("requests")
        if not isinstance(requests, list):
            self.errors += 1
            return _error("bad-request", "compile_batch needs 'requests'")
        return {
            "ok": True, "op": "compile_batch",
            "responses": [await self._compile(item) for item in requests],
        }

    async def _compile(self, request: Any) -> Dict[str, Any]:
        """One compile request, one path on both backends: validate and
        probe, compile the misses, assemble the response.  Only the
        middle step differs — the executor thread (``workers=0``) or a
        supervised worker — and a unit whose every function hits skips
        it."""
        probe = await self._offload(self._probe, request)
        if not isinstance(probe, _Probe):
            return probe  # refused before any compile
        if not probe.misses:
            outcome = JobOutcome(functions=[])
        elif self.supervisor is not None:
            outcome = await self.supervisor.submit(request, only=probe.misses)
        else:
            outcome = await self._offload(self._compile_misses, probe)
        return await self._offload(self._assemble, probe, outcome)

    async def _offload(self, step: Callable[..., Any], *args: Any) -> Any:
        """Run one step of the compile path on the compile executor — or
        in line while the service isn't running (:meth:`handle`)."""
        if self._executor is None:
            return step(*args)
        return await self._loop.run_in_executor(self._executor, step, *args)

    def _probe(self, request: Any) -> Any:
        """Step 1: validate one compile request — a dict, with ``source``
        text, for this server's ``target`` — then parse it once, derive
        its keys once and split hits from misses by the result cache's
        probe rule (:meth:`ResultCache.probe`); a disabled cache misses
        everything.  Opens the request's metrics and span windows.
        Returns the :class:`_Probe`, or the response refusing the
        request."""
        if self._before_compile is not None:
            self._before_compile(request)
        if not isinstance(request, dict):
            self.errors += 1
            return _error("bad-request", "a compile request is a dict")
        source = request.get("source")
        if not isinstance(source, str):
            self.errors += 1
            return _error("bad-request", "compile needs 'source' text")
        wanted = request.get("target")
        if wanted is not None and wanted != self.generator.target.name:
            # One server serves one target's tables; answering a request
            # for another machine with this machine's assembly would be
            # a silent miscompile, so mismatches are refused loudly.
            self.errors += 1
            return _error(
                "wrong-target",
                f"this server compiles for "
                f"{self.generator.target.name!r}, not {wanted!r}",
            )
        recorder = SpanRecorder() if request.get("spans") else None
        probe = _Probe(request, time.perf_counter(), recorder)
        with _recording(recorder):
            REGISTRY.drain()  # open this request's metrics window
            probe.window.enter_context(span(
                "server.request", cat="server",
                cached=self.result_cache is not None,
                supervised=self.supervisor is not None,
            ))
            try:
                with span("server.cache_probe", cat="server"):
                    probe.ast = parse(source)
                    probe.names = [f.name for f in probe.ast.functions]
                    probe.misses = probe.names
                    if self.result_cache is not None:
                        probe.keys = self.result_cache.keys_for(probe.ast)
                        probe.entries, probe.misses = (
                            self.result_cache.probe(probe.keys, probe.names)
                        )
            except Exception as exc:
                probe.window.close()
                self.errors += 1
                response = _error(type(exc).__name__, str(exc))
                response["op"] = "compile"
                response["metrics"] = REGISTRY.drain().to_dict()
                return response
            probe.metrics = REGISTRY.drain()
        return probe

    def _compile_misses(self, probe: _Probe) -> JobOutcome:
        """Step 2 with ``workers=0``: the job body on the executor thread,
        lowering the probe's AST on demand — only the misses — with this
        server's generator."""

        def front_end():
            program = CompiledProgram(probe.ast, self.generator.machine)
            return program, self.generator

        with _recording(probe.recorder):
            return _run_request(probe.request, probe.misses, front_end)

    def _assemble(
        self, probe: _Probe, outcome: JobOutcome
    ) -> Dict[str, Any]:
        """Step 3, the strictness check, the one response builder and the
        one result-cache store site: the hits' cached texts and the
        misses' fresh outcomes, in source order under the unit's data
        section — or the error that ended the job.  A strict request
        whose miss needed a rescue answers ``CompileError`` and stores
        nothing.  Diagnostics list worker crashes and retries first,
        then the generator's table-cache repairs, then each fresh
        function's own.  Closes the request's metrics and span
        windows."""
        with _recording(probe.recorder):
            REGISTRY.drain()  # open the assembly-side metrics window
            diagnostics = _crash_diagnostics(outcome)
            repairs = DiagnosticSink()
            _report_table_cache(self.generator, repairs)
            diagnostics.extend(d.to_dict() for d in repairs.records())
            if outcome.failed:
                response = _error(
                    codes.SERVER_WORKER_CRASH,
                    "the compile's worker failed on every attempt "
                    f"({outcome.attempts} attempt(s): "
                    f"{', '.join(outcome.failures)})",
                )
            elif outcome.error is not None:
                response = _error(
                    type(outcome.error).__name__, str(outcome.error)
                )
            else:
                try:
                    check_strict(
                        next((o.cause for o in outcome.functions
                              if o.cause), None),
                        bool(probe.request.get("resilient", False)),
                    )
                except CompileError as exc:
                    response = _error(type(exc).__name__, str(exc))
                else:
                    response = self._compiled_unit(
                        probe, outcome.functions, diagnostics
                    )
            if "error" in response:
                self.errors += 1
            response["op"] = "compile"
            response["diagnostics"] = diagnostics
            if self.result_cache is not None:
                response["result_cache"] = {
                    "hits": len(probe.entries), "misses": len(probe.misses),
                }
            probe.window.close()
            metrics = probe.metrics
            if outcome.metrics is not None:
                metrics.merge(outcome.metrics)
            metrics.merge(REGISTRY.drain())
            response["metrics"] = metrics.to_dict()
        if probe.recorder is not None and response["ok"]:
            probe.recorder.absorb(outcome.spans)
            response["spans"] = probe.recorder.to_trace_events()
        return response

    def _compiled_unit(
        self,
        probe: _Probe,
        outcomes: List[Any],
        diagnostics: List[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """The body of a compiled unit's response: cached texts for the
        hits, the fresh *outcomes* (one
        :class:`~repro.codegen.recovery.LadderOutcome` per miss) for the
        misses, each stored through the healthy-only gate, and their
        diagnostics appended to *diagnostics*."""
        texts = {name: hit["assembly"] for name, hit in probe.entries.items()}
        tiers = dict.fromkeys(probe.entries, "cache")
        for outcome in outcomes:
            name, result = outcome.name, outcome.result
            texts[name] = result.assembly
            tiers[name] = outcome.tier
            diagnostics.extend(d.to_dict() for d in outcome.diagnostics)
            if self.result_cache is not None:
                self.result_cache.put_healthy(
                    probe.keys[name], name, result.assembly,
                    tier=outcome.tier,
                    diagnosed=bool(outcome.diagnostics),
                    cpu_seconds=_function_seconds(result),
                    instructions=result.instruction_count,
                )
        self.functions_compiled += len(outcomes)
        names = probe.names
        globals_ = {decl.name: decl.ty for decl in probe.ast.globals}
        failed = [name for name in names if tiers[name] == "failed"]
        return {
            "ok": not failed,
            "assembly": "\n".join(
                [data_section_of(globals_)] + [texts[name] for name in names]
            ),
            "functions": list(names),
            "failed": failed,
            "tiers": {name: tiers[name] for name in names},
            "seconds": time.perf_counter() - probe.started,
            "cpu_seconds": sum(
                _function_seconds(outcome.result) for outcome in outcomes
            ),
        }


@dataclass
class _Probe:
    """One validated compile request after its result-cache probe: the
    parsed unit, its keys, the hits' entries and the misses, and the
    request's open metrics and span windows."""

    request: Dict[str, Any]
    started: float
    recorder: Optional[SpanRecorder]
    #: Holds the request's ``server.request`` span open from the probe
    #: to the response, across the steps in between.
    window: ExitStack = field(default_factory=ExitStack)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    ast: Any = None
    names: List[str] = field(default_factory=list)
    keys: Dict[str, str] = field(default_factory=dict)
    entries: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    misses: List[str] = field(default_factory=list)


@contextmanager
def _recording(recorder: Optional[SpanRecorder]) -> Iterator[None]:
    """Install a request's span *recorder* for one step of its compile
    path (the recorder is process-wide, and steps of different requests
    interleave on the executor thread)."""
    if recorder is None:
        yield
        return
    install_recorder(recorder)
    try:
        yield
    finally:
        uninstall_recorder()


def _crash_diagnostics(outcome: JobOutcome) -> List[Dict[str, Any]]:
    """One ``SERVER-WORKER-CRASH`` per failed attempt of a supervised
    job, plus ``SERVER-RETRY`` when a later attempt succeeded."""
    recovered = not outcome.failed
    diagnostics = [
        Diagnostic(
            code=codes.SERVER_WORKER_CRASH,
            message=(
                f"compile worker {kind} on attempt {attempt}; "
                + ("the request was re-dispatched" if recovered
                   else "the retry budget was exhausted")
            ),
            severity=codes.WARNING if recovered else codes.ERROR,
            context={"attempt": attempt, "kind": kind},
        ).to_dict()
        for attempt, kind in enumerate(outcome.failures, start=1)
    ]
    if outcome.failures and recovered:
        diagnostics.append(Diagnostic(
            code=codes.SERVER_RETRY,
            message=(
                f"request succeeded on attempt {outcome.attempts} "
                f"after {len(outcome.failures)} worker failure(s)"
            ),
            context={"attempts": outcome.attempts,
                     "failures": list(outcome.failures)},
        ).to_dict())
    return diagnostics


def _run_inline(coroutine: Any) -> Any:
    """Drive a compile coroutine whose steps all run in line (the
    service isn't running, so nothing ever suspends) to its result."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise RuntimeError("an in-line compile suspended")


def _deadline_of(
    request: Dict[str, Any], default: Optional[float]
) -> Optional[float]:
    value = request.get("deadline", default)
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return default
    return seconds if seconds > 0 else default


def _error(kind: str, message: str) -> Dict[str, Any]:
    return {"ok": False, "error": {"type": kind, "message": message}}
