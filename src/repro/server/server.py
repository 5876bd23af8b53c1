"""The long-lived compile service behind ``ggcc serve``.

A :class:`CompileServer` owns one warm generator (tables constructed at
startup, never again), an optional persistent
:class:`~repro.compile.SharedTablePool` (``jobs > 1``), and a
per-function content-addressed **result cache**
(:mod:`repro.result_cache`): repeat traffic whose functions,
tables and engine are unchanged skips the dynamic phase entirely.

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
* **One compile executor** (``workers=0``, the default).  Compiles run
  on a single worker thread: the dynamic phase is pure Python
  (GIL-bound across threads anyway), per-request parallelism comes from
  the process pool (``jobs``), and serializing compiles is what keeps
  each response's *metrics delta* exact — the registry window opens and
  closes around exactly one request's work.  Admission, framing,
  caching decisions and deadline handling all stay on the event loop,
  concurrent with any compile.
* **Supervised workers** (``workers=N``).  Compiles dispatch to N warm
  worker *subprocesses* under a :class:`WorkerSupervisor
  <repro.server.supervisor.WorkerSupervisor>`: a crashed or hung worker
  is detected, killed, restarted with backoff, and its request
  re-dispatched to a healthy sibling (bounded by ``max_retries``;
  idempotent because results are content-addressed).  A per-failure-
  class :class:`~repro.server.supervisor.CircuitBreaker` sheds load
  with ``SERVER-CIRCUIT-OPEN`` instead of queueing onto a failing
  backend.  Cache probing, cache population and response assembly stay
  in the parent on the executor thread; only the dynamic phase crosses
  the process boundary.
* **Graceful drain.**  SIGTERM/SIGINT (or the ``shutdown`` op) stops
  accepting, lets in-flight work finish within ``drain_grace`` seconds,
  and answers everything still queued or abandoned with a structured
  ``SERVER-SHUTDOWN`` error before connections close — no request is
  ever silently dropped by a shutdown.

Operations (JSON frames, :mod:`repro.server.protocol`):

``{"op": "ping"}``
    liveness probe; returns the server pid and uptime.
``{"op": "compile", "source": ..., "id"?, "deadline"?, "jobs"?,
"resilient"?, "spans"?}``
    compile one translation unit; the response carries the assembly,
    per-function tiers and failures, structured diagnostics, the
    request's metrics *delta*, result-cache traffic, and (with
    ``"spans": true``) a Chrome ``trace_event`` list.
``{"op": "compile_batch", "requests": [...]}``
    the compile op over a list, one response per request, in order —
    one round trip (and one admission-queue slot) for a whole batch.
``{"op": "stats"}``
    request counters, queue depth, result-cache stats, pool shape.
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
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from ..codegen.driver import GrahamGlanvilleCodeGenerator
from ..compile import (
    ProgramAssembly, SharedTablePool, _effective_width, _function_seconds,
    compile_program,
)
from ..diag import codes
from ..diag.diagnostics import Diagnostic
from ..frontend import lower_program, parse
from ..obs import install_recorder, uninstall_recorder
from ..obs.metrics import REGISTRY, MetricsSnapshot
from ..obs.spans import span
from .protocol import (
    ProtocolError, read_frame_async, write_frame_async,
)
from ..result_cache import ResultCache, table_fingerprint
from .supervisor import (
    CircuitBreaker, DEFAULT_JOB_TIMEOUT, DEFAULT_MAX_RETRIES, JobOutcome,
    WorkerSupervisor,
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
    loopback instead, for platforms without unix sockets.  ``jobs``
    sizes the persistent worker pool used *within* a request (clamped
    to available CPUs); cross-request concurrency comes from the async
    accept loop and the result cache, not from thread fan-out.

    ``queue_limit`` bounds the admission queue (queue-full requests get
    an immediate ``SERVER-OVERLOAD`` response); ``default_deadline``
    applies to requests that don't carry their own ``"deadline"``.
    ``result_cache`` may be ``False`` (disable), a ready
    :class:`ResultCache` (tests), or ``None`` — enabled, memory-only
    unless ``result_cache_dir`` names a persistent directory, and
    honouring ``REPRO_RESULT_CACHE=0``.

    ``workers`` > 0 turns on the supervised subsystem: that many warm
    compile subprocesses, per-job deadlines (``job_timeout``), bounded
    re-dispatch (``max_retries``), and a circuit breaker.  ``breaker``
    may be ``False`` (off), a ready
    :class:`~repro.server.supervisor.CircuitBreaker` (tests), or
    ``None`` — a default breaker when workers are supervised.
    ``drain_grace`` bounds how long shutdown waits for in-flight work
    before abandoning it with ``SERVER-SHUTDOWN``.

    ``max_requests`` stops the accept loop once that many requests have
    been received and answered — the tests' way of bounding a server
    thread's lifetime.  ``_before_compile`` is a test seam: a callable
    run on the compile thread before each request's work (tests block
    it on an event to fill the queue deterministically).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        jobs: int = 1,
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
        self.jobs = max(1, jobs)
        self.max_requests = max_requests
        self.queue_limit = max(1, queue_limit)
        self.default_deadline = default_deadline
        self.generator = generator or GrahamGlanvilleCodeGenerator(
            target=target
        )
        self.pool: Optional[SharedTablePool] = None
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

    # ------------------------------------------------------------ pool
    def _ensure_pool(self) -> Optional[SharedTablePool]:
        """The persistent pool, (re)created if absent or broken."""
        if self.jobs <= 1:
            return None
        if self.pool is not None and self.pool.broken:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None
        if self.pool is None:
            self.pool = SharedTablePool(
                _effective_width(self.jobs), self.generator
            )
        return self.pool

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
        unix-socket path) are cleaned up on the way out, the worker
        pool is shut down, but the warm generator (and the result
        cache) survive for a later call.
        """
        asyncio.run(self.serve_async())

    async def serve_async(self) -> None:
        """The accept loop proper, for callers who own an event loop."""
        if self._listener is None:
            self.bind()
        if self.jobs > 1 and self.workers == 0:
            self._ensure_pool()
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
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
                self.pool = None

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
                    if self.supervisor is not None:
                        response = await self._run_supervised(job)
                    else:
                        response = await self._loop.run_in_executor(
                            self._executor, self._execute, job.request
                        )
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

    # ------------------------------------------------------- supervised
    async def _run_supervised(self, job: _Job) -> Dict[str, Any]:
        """The compile op against the worker supervisor (batch-aware)."""
        if job.op == "compile":
            return await self._run_supervised_one(job.request)
        requests = job.request.get("requests")
        if not isinstance(requests, list):
            self.errors += 1
            return _error("bad-request", "compile_batch needs 'requests'")
        return {
            "ok": True, "op": "compile_batch",
            "responses": [
                await self._run_supervised_one(item) for item in requests
            ],
        }

    async def _run_supervised_one(
        self, request: Any
    ) -> Dict[str, Any]:
        """One compile: probe the cache in the parent, cross the process
        boundary only for the dynamic phase, assemble in the parent."""
        probe = await self._loop.run_in_executor(
            self._executor, self._supervised_probe, request
        )
        if "response" in probe:
            return probe["response"]
        outcome = await self.supervisor.submit(
            request, only=probe.get("misses")
        )
        return await self._loop.run_in_executor(
            self._executor, self._assemble_supervised,
            request, probe, outcome,
        )

    def _supervised_probe(self, request: Any) -> Dict[str, Any]:
        """Executor-thread half 1: validate, consult the result cache.

        Returns ``{"response": ...}`` when the request is answerable
        without a worker (validation failure, every function a cache
        hit), else a probe dict carrying the cache state and the
        parent-side metrics delta forward to assembly."""
        if self._before_compile is not None:
            self._before_compile(request)
        if not isinstance(request, dict):
            self.errors += 1
            return {"response": _error(
                "bad-request", "a compile request is a dict"
            )}
        source = request.get("source")
        if not isinstance(source, str):
            self.errors += 1
            return {"response": _error(
                "bad-request", "compile needs 'source' text"
            )}
        resilient = bool(request.get("resilient", False))
        use_cache = self.result_cache is not None and not resilient
        probe: Dict[str, Any] = {
            "use_cache": use_cache, "started": time.perf_counter(),
            "misses": None,
        }
        REGISTRY.drain()  # open this request's metrics window
        try:
            with span("server.request", cat="server", cached=use_cache,
                      supervised=True):
                if not use_cache:
                    probe["metrics"] = REGISTRY.drain()
                    return probe
                with span("server.cache_probe", cat="server"):
                    ast = parse(source)
                    keys = self.result_cache.keys_for(ast)
                    entries: Dict[str, Dict[str, Any]] = {}
                    misses: List[str] = []
                    for func in ast.functions:
                        entry = self.result_cache.get(keys[func.name])
                        if entry is None:
                            misses.append(func.name)
                        else:
                            entries[func.name] = entry
                if misses and len(misses) == len(ast.functions):
                    # Fully cold: the worker compiles the whole unit.
                    probe["metrics"] = REGISTRY.drain()
                    return probe
                program = lower_program(ast, self.generator.machine)
                if not misses:
                    # Every function warm: answer without a worker.
                    response = self._assembled_cached_response(
                        program, entries, hits=len(program.order),
                        misses=0, cpu_seconds=0.0,
                        started=probe["started"], diagnostics=[],
                    )
                    self.functions_compiled += len(program.order)
                    response["metrics"] = REGISTRY.drain().to_dict()
                    return {"response": response}
                probe.update(
                    misses=misses, keys=keys, entries=entries,
                    program=program,
                )
        except Exception as exc:
            self.errors += 1
            response = _error(type(exc).__name__, str(exc))
            response["op"] = "compile"
            response["metrics"] = REGISTRY.drain().to_dict()
            return {"response": response}
        probe["metrics"] = REGISTRY.drain()
        return probe

    def _assemble_supervised(
        self,
        request: Dict[str, Any],
        probe: Dict[str, Any],
        outcome: JobOutcome,
    ) -> Dict[str, Any]:
        """Executor-thread half 2: turn the worker's outcome into the
        response — crash/retry diagnostics, cache population, metrics
        merge."""
        REGISTRY.drain()  # open the assembly-side metrics window
        recovered = not outcome.failed
        crash_diags: List[Dict[str, Any]] = []
        for attempt, kind in enumerate(outcome.failures, start=1):
            crash_diags.append(Diagnostic(
                code=codes.SERVER_WORKER_CRASH,
                message=(
                    f"compile worker {kind} on attempt {attempt}; "
                    + ("the request was re-dispatched" if recovered
                       else "the retry budget was exhausted")
                ),
                severity=codes.WARNING if recovered else codes.ERROR,
                context={"attempt": attempt, "kind": kind},
            ).to_dict())
        if outcome.failures and recovered:
            crash_diags.append(Diagnostic(
                code=codes.SERVER_RETRY,
                message=(
                    f"request succeeded on attempt {outcome.attempts} "
                    f"after {len(outcome.failures)} worker failure(s)"
                ),
                context={"attempts": outcome.attempts,
                         "failures": list(outcome.failures)},
            ).to_dict())

        if outcome.failed:
            self.errors += 1
            message = (
                "the compile's worker failed on every attempt "
                f"({outcome.attempts} attempt(s): "
                f"{', '.join(outcome.failures)})"
            )
            response = _error(codes.SERVER_WORKER_CRASH, message)
            response["op"] = "compile"
            response["diagnostics"] = crash_diags
        elif outcome.response is not None:
            # Whole-unit compile: the worker built the response body.
            response = outcome.response
            if "error" in response:
                self.errors += 1
            response["diagnostics"] = (
                crash_diags + list(response.get("diagnostics", []))
            )
            names = response.get("functions", [])
            if response.get("ok"):
                self.functions_compiled += len(names)
                if probe["use_cache"] and outcome.functions:
                    self._populate_supervised_cache(
                        request, outcome.functions
                    )
            if probe["use_cache"]:
                response["result_cache"] = {
                    "hits": 0, "misses": len(names),
                }
        else:
            # Partial cache hit: worker compiled just the misses.
            program = probe["program"]
            keys = probe["keys"]
            entries = dict(probe["entries"])
            cpu_seconds = 0.0
            for name, info in outcome.functions.items():
                cpu_seconds += info["cpu_seconds"]
                entries[name] = self.result_cache.put(
                    keys[name], name, info["assembly"],
                    info["cpu_seconds"],
                )
            self.functions_compiled += len(program.order)
            response = self._assembled_cached_response(
                program, entries,
                hits=len(program.order) - len(outcome.functions),
                misses=len(outcome.functions), cpu_seconds=cpu_seconds,
                started=probe["started"], diagnostics=crash_diags,
            )

        merged = probe.get("metrics") or MetricsSnapshot()
        if outcome.metrics is not None:
            merged.merge(outcome.metrics)
        merged.merge(REGISTRY.drain())
        response["metrics"] = merged.to_dict()
        return response

    def _assembled_cached_response(
        self,
        program: Any,
        entries: Dict[str, Dict[str, Any]],
        hits: int,
        misses: int,
        cpu_seconds: float,
        started: float,
        diagnostics: List[Dict[str, Any]],
    ) -> Dict[str, Any]:
        data_section = ProgramAssembly(source_program=program).data_section()
        text = "\n".join(
            [data_section]
            + [entries[name]["assembly"] for name in program.order]
        )
        return {
            "ok": True,
            "op": "compile",
            "assembly": text,
            "functions": list(program.order),
            "failed": [],
            "tiers": {},
            "seconds": time.perf_counter() - started,
            "cpu_seconds": cpu_seconds,
            "diagnostics": diagnostics,
            "result_cache": {"hits": hits, "misses": misses},
        }

    def _populate_supervised_cache(
        self, request: Dict[str, Any], functions: Dict[str, Any]
    ) -> None:
        """Store a supervised whole-unit compile's per-function results
        under their content addresses (mirror of :meth:`_populate_cache`
        for results that arrived over the worker pipe)."""
        try:
            keys = self.result_cache.keys_for(parse(request["source"]))
            for name, info in functions.items():
                self.result_cache.put(
                    keys[name], name, info["assembly"],
                    info["cpu_seconds"],
                )
        except Exception:
            return  # cache population must never fail a served request

    # -------------------------------------------------------- dispatch
    def handle(self, request: Any) -> Dict[str, Any]:
        """Synchronous single-request dispatch — the compile semantics
        without sockets, queueing or deadlines.  Never raises: every
        failure becomes an ``{"ok": false, "error": ...}``."""
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
                return self._execute(request)
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
        pool = self.pool
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
            "jobs": self.jobs,
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
            "pool": None if pool is None else {
                "workers": pool.jobs,
                "broken": pool.broken,
            },
            "table_source": self.generator.table_source,
            "target": self.generator.target.name,
        }

    # ---------------------------------------------------------- compile
    def _execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Compile-op body; runs on the compile executor thread."""
        if self._before_compile is not None:
            self._before_compile(request)
        if request["op"] == "compile":
            return self._handle_compile(request)
        requests = request.get("requests")
        if not isinstance(requests, list):
            self.errors += 1
            return _error("bad-request", "compile_batch needs 'requests'")
        return {
            "ok": True, "op": "compile_batch",
            "responses": [self._handle_compile(item) for item in requests],
        }

    def _handle_compile(self, request: Dict[str, Any]) -> Dict[str, Any]:
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
        resilient = bool(request.get("resilient", False))
        want_spans = bool(request.get("spans", False))
        use_cache = self.result_cache is not None and not resilient

        recorder = install_recorder() if want_spans else None
        REGISTRY.drain()  # open this request's metrics window
        try:
            try:
                with span("server.request", cat="server",
                          cached=use_cache):
                    if use_cache:
                        response = self._compile_cached(source, request)
                    else:
                        response = self._compile_full(source, request)
            except Exception as exc:
                self.errors += 1
                response = _error(type(exc).__name__, str(exc))
                response["op"] = "compile"
            response["metrics"] = REGISTRY.drain().to_dict()
            if recorder is not None and response.get("ok"):
                response["spans"] = recorder.to_trace_events()
        finally:
            if recorder is not None:
                uninstall_recorder()
        return response

    def _compile_full(
        self, source: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The whole-unit path: ``compile_program`` with the persistent
        pool, exactly the PR-5 semantics — and, when the result cache is
        on, the population side of a fully-cold cached request."""
        jobs = int(request.get("jobs", self.jobs))
        resilient = bool(request.get("resilient", False))

        # The resilient path may terminate workers for containment —
        # that poisons a pool, so it never borrows the persistent one.
        pool = None
        if jobs > 1 and not resilient:
            pool = self._ensure_pool()

        assembly = compile_program(
            source,
            generator=self.generator,
            jobs=jobs,
            resilient=resilient,
            timeout=request.get("timeout"),
            pool=pool,
        )
        self.functions_compiled += len(assembly.function_results)
        if self.result_cache is not None and not resilient and assembly.ok:
            self._populate_cache(source, assembly)
        return {
            "ok": assembly.ok,
            "op": "compile",
            "assembly": assembly.text,
            "functions": list(assembly.source_program.order),
            "failed": assembly.failed,
            "tiers": assembly.tiers,
            "seconds": assembly.seconds,
            "cpu_seconds": assembly.cpu_seconds,
            "diagnostics": [d.to_dict() for d in assembly.diagnostics],
        }

    def _populate_cache(
        self, source: str, assembly: ProgramAssembly
    ) -> None:
        """Store every function of a successful full compile under its
        content address, so the next request for any of them is warm."""
        try:
            keys = self.result_cache.keys_for(parse(source))
        except Exception:
            return  # cache population must never fail a served request
        for name in assembly.source_program.order:
            result = assembly.function_results[name]
            self.result_cache.put(
                keys[name], name,
                result.assembly,  # type: ignore[attr-defined]
                _function_seconds(result),
            )

    def _compile_cached(
        self, source: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The result-cache path: hits skip the dynamic phase, misses
        compile serially against the warm generator and populate the
        cache.  A fully-cold unit falls back to :meth:`_compile_full`
        (pool parallelism) and populates from its results."""
        started = time.perf_counter()
        with span("server.cache_probe", cat="server"):
            ast = parse(source)
            keys = self.result_cache.keys_for(ast)
            entries: Dict[str, Dict[str, Any]] = {}
            misses: List[str] = []
            for func in ast.functions:
                entry = self.result_cache.get(keys[func.name])
                if entry is None:
                    misses.append(func.name)
                else:
                    entries[func.name] = entry

        if misses and len(misses) == len(ast.functions):
            response = self._compile_full(source, request)
            response["result_cache"] = {"hits": 0, "misses": len(misses)}
            return response

        program = lower_program(ast, self.generator.machine)
        cpu_seconds = 0.0
        for name in misses:
            result = self.generator.compile(program.forest(name))
            cpu_seconds += _function_seconds(result)
            entries[name] = self.result_cache.put(
                keys[name], name, result.assembly, _function_seconds(result)
            )
        self.functions_compiled += len(program.order)
        data_section = ProgramAssembly(source_program=program).data_section()
        text = "\n".join(
            [data_section]
            + [entries[name]["assembly"] for name in program.order]
        )
        return {
            "ok": True,
            "op": "compile",
            "assembly": text,
            "functions": list(program.order),
            "failed": [],
            "tiers": {},
            "seconds": time.perf_counter() - started,
            "cpu_seconds": cpu_seconds,
            "diagnostics": [],
            "result_cache": {
                "hits": len(program.order) - len(misses),
                "misses": len(misses),
            },
        }


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
