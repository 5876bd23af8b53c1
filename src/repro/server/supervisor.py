"""Supervised compile workers: the one process-worker layer.

A :class:`WorkerSupervisor` owns ``N`` warm worker *subprocesses* — each
runs :func:`repro.compile._pool_initializer` once, so constructed tables
arrive by fork copy-on-write (or one content-addressed cache load under
spawn) and stay resident for the worker's life — and makes its owner
self-healing around them.  The owner is the compile service (``ggcc
serve --workers N``) or the batch driver's keep-alive
(``compile_program(jobs=N)``, probes off, no deadline unless given):

* **Crash detection.**  A worker death (segfault, ``os._exit``, OOM
  kill) surfaces as EOF on its pipe; the in-flight job fails with a
  :class:`WorkerFailure` of kind ``crash`` and the worker slot is
  restarted.
* **Hang detection.**  A job carries a deadline (``job_timeout``, or
  the caller's per-job ``timeout``); a worker that doesn't answer in
  time is killed outright (kind ``hang``) — a hung compile can't be
  interrupted, but it can be contained to one subprocess.
* **Automatic restart with exponential backoff.**  A dead slot respawns
  after ``backoff_initial * 2**consecutive_failures`` seconds (capped),
  so a crash-looping initializer can't busy-spin the host; one
  successful job resets the slot's backoff.
* **Bounded re-dispatch.**  :meth:`WorkerSupervisor.submit` retries a
  failed job on a healthy worker up to ``max_retries`` times.  Re-running
  a compile is idempotent by construction — results are keyed by the
  content-addressed result-cache key (source × tables × engine), so a
  duplicate compile produces byte-identical assembly.
* **Health probes.**  A periodic probe task pings idle workers
  (liveness + round-trip); a silent worker is retired and restarted
  before a real request finds it.

A job is some function names of one source — a request's result-cache
misses, or one batch — compiled by the one job body
(:func:`repro.compile.compile_functions`, wrapped by
:func:`_run_request`) in a worker here or, with the server's
``workers=0``, on its executor thread.  The owner probes, checks
strictness and assembles in the parent, so a request whose every
function hits never crosses a pipe.

:class:`CircuitBreaker` is the admission-side half: it tracks failure
events per *class* (``crash`` for worker deaths and hangs, ``deadline``
for request deadline misses) in a sliding window and trips open when a
class exceeds its threshold, shedding load with structured
``SERVER-CIRCUIT-OPEN`` errors instead of queueing onto a failing
backend; after a cooldown it goes half-open and admits one trial
request whose outcome closes or reopens it.

Service-level chaos hooks (consumed by ``ggcc chaos-serve``): the
``REPRO_CHAOS_SERVE_KILL_ONCE`` / ``REPRO_CHAOS_SERVE_HANG_ONCE``
environment variables name a *marker file*; a worker that successfully
unlinks the marker at job receipt kills itself (``os._exit``) or sleeps
— one faulty worker per armed marker, so a retry lands on a healthy one
unless the harness re-arms the marker.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..compile import (
    _pool_initializer, _worker_program, compile_functions,
    shared_table_initargs,
)
from ..obs.metrics import REGISTRY
from ..obs.spans import (
    current_recorder, install_recorder, span, uninstall_recorder,
)

#: Per-job deadline when the server doesn't choose one: long enough for
#: any honest compile, short enough that a hung worker is reaped before
#: clients give up.
DEFAULT_JOB_TIMEOUT = 60.0

#: Re-dispatch budget per request (attempts = 1 + max_retries).
DEFAULT_MAX_RETRIES = 1

#: Restart backoff: initial delay, doubling per consecutive failure of
#: the same slot, capped.
RESTART_BACKOFF_INITIAL = 0.05
RESTART_BACKOFF_CAP = 2.0

#: Idle-worker health-probe cadence and per-probe reply deadline.
DEFAULT_PROBE_INTERVAL = 5.0
PROBE_TIMEOUT = 5.0

#: How often a reap polls for a worker's exit, and how long it waits
#: before killing one.
REAP_POLL = 0.01
REAP_GRACE = 5.0

#: Service-level chaos hooks: each names a marker file consumed
#: (unlinked) by the first worker that sees it at job receipt.
ENV_KILL_ONCE = "REPRO_CHAOS_SERVE_KILL_ONCE"
ENV_HANG_ONCE = "REPRO_CHAOS_SERVE_HANG_ONCE"

#: Worker exit codes: chaos kill, initializer failure.
_EXIT_CHAOS = 23
_EXIT_INIT = 13


class WorkerFailure(Exception):
    """A supervised worker failed its job; ``kind`` is ``crash`` or
    ``hang``."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


@dataclass
class JobOutcome:
    """One compile job's result, from either side.

    ``functions`` holds one :class:`~repro.codegen.recovery.LadderOutcome`
    per compiled name, in order; ``error`` is the exception a job raised
    (a :class:`~repro.frontend.LowerError`), shipped as itself;
    ``metrics`` is the job's registry delta and ``spans`` the span
    records a worker recorded.  ``failures`` lists the kind of every
    failed attempt — when ``functions`` and ``error`` are both ``None``
    the retry budget was exhausted and the owner recovers the job its
    own way.
    """

    functions: Optional[List[Any]] = None
    error: Optional[BaseException] = None
    metrics: Any = None
    spans: List[Any] = field(default_factory=list)
    attempts: int = 1
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.functions is None and self.error is None


# ------------------------------------------------------------ worker side
def _consume_marker(path: str) -> bool:
    """Atomically claim a chaos marker file: whoever unlinks it acts."""
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def _service_chaos_hooks() -> None:
    kill = os.environ.get(ENV_KILL_ONCE)
    if kill and _consume_marker(kill):
        os._exit(_EXIT_CHAOS)
    hang = os.environ.get(ENV_HANG_ONCE)
    if hang:
        path, _, seconds = hang.rpartition(":")
        if path and _consume_marker(path):
            time.sleep(float(seconds or 30.0))


def _run_request(
    request: Dict[str, Any],
    names: List[str],
    front_end: Callable[[], Tuple[Any, Any]],
) -> JobOutcome:
    """One job on either side: the job body over *names*
    (:func:`~repro.compile.compile_functions`, results flattened) inside
    this job's metrics window.

    ``front_end()`` gives the unit's on-demand program and the generator
    to compile it with: a worker's memoized :func:`_worker_program`, or
    the probe's AST with the server's own generator (``workers=0``).
    Either way only the functions compiled here are lowered.  Spans land
    in the recorder already installed (in process, the request's own); a
    ``"spans"`` request in a worker gets a fresh recorder whose records
    ship home in the outcome.  Never raises: an exception is the
    outcome's ``error``.
    """
    fresh = current_recorder() is None and bool(request.get("spans"))
    recorder = install_recorder() if fresh else None
    REGISTRY.drain()  # open this job's metrics window
    outcome = JobOutcome()
    try:
        program, generator = front_end()
        outcome.functions = compile_functions(
            generator, program, names, flatten=True
        )
    except Exception as exc:  # the worker must outlive any job
        outcome.error = exc
    finally:
        outcome.metrics = REGISTRY.drain()
        if recorder is not None:
            uninstall_recorder()
            outcome.spans = recorder.drain()
    return outcome


def _worker_main(
    conn,
    options: Dict[str, object],
    metrics_on: bool,
    cache_key: Optional[str],
) -> None:
    """Worker subprocess body: warm the tables once, then serve jobs
    off the pipe until the parent sends the ``None`` sentinel."""
    # SIGINT goes to the whole foreground process group on ^C; drain is
    # the parent's job, workers just keep compiling until told to stop.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        _pool_initializer(options, metrics_on, cache_key)
    except BaseException:
        os._exit(_EXIT_INIT)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if message is None:
            try:
                conn.close()
            except OSError:
                pass
            os._exit(0)
        kind, job_id = message[0], message[1]
        if kind == "ping":
            reply = ("pong", job_id, os.getpid())
        else:
            _service_chaos_hooks()
            request = message[2]
            outcome = _run_request(
                request, message[3],
                lambda: _worker_program(request["source"]),
            )
            reply = ("done", job_id, outcome)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            os._exit(0)


# ------------------------------------------------------------ parent side
async def _reap(processes: List[Any], grace: float = REAP_GRACE) -> None:
    """Wait for *processes* to exit — polling, so a slow exit never
    stalls the loop and no thread is needed — killing any still alive
    after *grace* seconds."""
    deadline = time.monotonic() + grace
    while (any(p.is_alive() for p in processes)
           and time.monotonic() < deadline):
        await asyncio.sleep(REAP_POLL)
    for process in processes:
        if process.is_alive():
            process.kill()
        process.join(1.0)


class _WorkerHandle:
    """One supervised slot's live process and pipe."""

    __slots__ = ("slot", "process", "conn", "state", "jobs_done",
                 "pending", "spawned_at")

    def __init__(self, slot: int, process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.state = "idle"  # idle | busy | probing | dead
        self.jobs_done = 0
        self.pending: Optional[Tuple[int, asyncio.Future]] = None
        self.spawned_at = time.monotonic()


class WorkerSupervisor:
    """Spawn, watch, restart and feed ``workers`` compile subprocesses.

    Single-event-loop discipline: every method (besides the worker
    bodies above) runs on the owning loop, so plain attributes are safe
    arbiters.  ``on_failure(kind)`` is called for every worker crash or
    hang — the server points it at its circuit breaker.
    ``job_timeout=None`` gives jobs no deadline unless ``submit`` names
    one; ``probe_interval=None`` turns health probes off.
    """

    def __init__(
        self,
        workers: int,
        generator,
        job_timeout: Optional[float] = DEFAULT_JOB_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_initial: float = RESTART_BACKOFF_INITIAL,
        backoff_cap: float = RESTART_BACKOFF_CAP,
        probe_interval: Optional[float] = DEFAULT_PROBE_INTERVAL,
        on_failure: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.workers = max(1, workers)
        self.generator = generator
        self.job_timeout = job_timeout
        self.max_retries = max(0, max_retries)
        self.backoff_initial = backoff_initial
        self.backoff_cap = backoff_cap
        self.probe_interval = probe_interval
        self.on_failure = on_failure
        self.crashes = 0
        self.hangs = 0
        self.restarts = 0
        self.retries = 0
        self._handles: List[Optional[_WorkerHandle]] = [None] * self.workers
        self._idle: Deque[_WorkerHandle] = deque()
        self._idle_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self._job_seq = 0
        self._consecutive_failures = [0] * self.workers
        self._restart_tasks: set = set()
        self._probe_task: Optional[asyncio.Task] = None
        if "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - platforms without fork
            self._ctx = multiprocessing.get_context()
        self._initargs: Optional[tuple] = None

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._idle_event = asyncio.Event()
        # Workers record spans per job (_run_request), never process-
        # wide: a worker-wide recorder would swallow a job's spans.
        self._initargs = shared_table_initargs(self.generator)
        for slot in range(self.workers):
            self._spawn(slot, first=True)
        if self.probe_interval:
            self._probe_task = self._loop.create_task(self._probe_loop())

    def _spawn(self, slot: int, first: bool = False) -> None:
        with span("server.worker.spawn", cat="server", slot=slot):
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn,) + self._initargs,
                daemon=True,
                name=f"ggcc-worker-{slot}",
            )
            process.start()
        child_conn.close()
        handle = _WorkerHandle(slot, process, parent_conn)
        self._handles[slot] = handle
        self._loop.add_reader(
            parent_conn.fileno(), self._on_readable, handle
        )
        self._idle.append(handle)
        self._idle_event.set()
        if first:
            REGISTRY.inc("server.worker.spawns")
        else:
            self.restarts += 1
            REGISTRY.inc("server.worker.restarts")

    async def stop(self) -> None:
        """Retire every worker: sentinel, close, bounded reap."""
        self._closed = True
        if self._idle_event is not None:
            self._idle_event.set()
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except (asyncio.CancelledError, Exception):
                pass
            self._probe_task = None
        for task in list(self._restart_tasks):
            task.cancel()
        for handle in self._handles:
            if handle is None or handle.state == "dead":
                continue
            if handle.pending is not None:
                _job_id, future = handle.pending
                handle.pending = None
                if not future.done():
                    future.cancel()
            try:
                self._loop.remove_reader(handle.conn.fileno())
            except (OSError, ValueError):
                pass
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            try:
                handle.conn.close()
            except OSError:
                pass
        await _reap([h.process for h in self._handles if h is not None])

    # ----------------------------------------------------------- plumbing
    def _on_readable(self, handle: _WorkerHandle) -> None:
        try:
            message = handle.conn.recv()
        except Exception:
            # EOF: the worker died.  Anything else (a shipped exception
            # that will not unpickle) loses the reply all the same.
            self._retire(handle, "crash")
            return
        pending = handle.pending
        if pending is None or pending[0] != message[1]:
            return  # stale reply; nobody is waiting on it
        handle.pending = None
        future = pending[1]
        if not future.done():
            future.set_result(message[2])
        elif handle.state == "busy":
            # The awaiting request was cancelled (drain) after the job
            # was sent; the worker just proved itself healthy — release.
            self._release(handle)

    def _retire(self, handle: _WorkerHandle, reason: str) -> None:
        """Take a failed worker out of service and schedule its slot's
        restart; fails its pending future with :class:`WorkerFailure`."""
        if handle.state == "dead":
            return
        handle.state = "dead"
        try:
            self._loop.remove_reader(handle.conn.fileno())
        except (OSError, ValueError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        pending, handle.pending = handle.pending, None
        if pending is not None and not pending[1].done():
            pending[1].set_exception(WorkerFailure(
                reason,
                f"worker slot {handle.slot} (pid {handle.process.pid}) "
                f"{reason}ed",
            ))
        if handle.process.is_alive():
            handle.process.kill()
        if reason == "hang":
            self.hangs += 1
            REGISTRY.inc("server.worker.hangs")
        else:
            self.crashes += 1
            REGISTRY.inc("server.worker.crashes")
        if self.on_failure is not None:
            self.on_failure("crash")
        if self._closed:
            return
        failures = self._consecutive_failures[handle.slot]
        self._consecutive_failures[handle.slot] = failures + 1
        delay = min(self.backoff_cap, self.backoff_initial * (2 ** failures))
        task = self._loop.create_task(self._restart_later(handle, delay))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart_later(
        self, dead: _WorkerHandle, delay: float
    ) -> None:
        await asyncio.sleep(delay)
        await _reap([dead.process])
        if not self._closed:
            self._spawn(dead.slot)

    async def _acquire(self) -> _WorkerHandle:
        while True:
            if self._closed:
                raise RuntimeError("worker supervisor is closed")
            while self._idle:
                handle = self._idle.popleft()
                if handle.state == "idle":
                    handle.state = "busy"
                    return handle
            self._idle_event.clear()
            await self._idle_event.wait()

    def _release(self, handle: _WorkerHandle) -> None:
        if handle.state not in ("busy", "probing"):
            return
        handle.state = "idle"
        self._idle.append(handle)
        self._idle_event.set()

    async def _call(
        self,
        handle: _WorkerHandle,
        op: str,
        timeout: float,
        request: Optional[Dict[str, Any]] = None,
        only: Optional[List[str]] = None,
        failure_on_timeout: str = "hang",
    ):
        """Send one message to *handle* and await its reply (or fail it:
        crash on EOF/closed pipe, *failure_on_timeout* on no reply)."""
        self._job_seq += 1
        job_id = self._job_seq
        future = self._loop.create_future()
        handle.pending = (job_id, future)
        if op == "job":
            message = ("job", job_id, request, only)
        else:
            message = ("ping", job_id)
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            handle.pending = None
            self._retire(handle, "crash")
            raise WorkerFailure("crash", f"pipe closed on send: {exc}")
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._retire(handle, failure_on_timeout)
            raise WorkerFailure(
                failure_on_timeout,
                f"worker slot {handle.slot} gave no reply within "
                f"{timeout:.3g}s",
            )

    # ------------------------------------------------------------- probes
    async def _probe_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self.probe_interval)
            for handle in list(self._handles):
                if handle is None or handle.state != "idle":
                    continue
                if not handle.process.is_alive():
                    self._retire(handle, "crash")
                    continue
                handle.state = "probing"
                try:
                    await self._call(handle, "ping", PROBE_TIMEOUT)
                except WorkerFailure:
                    continue  # retired; restart already scheduled
                REGISTRY.inc("server.worker.probes")
                self._release(handle)

    # -------------------------------------------------------------- jobs
    async def submit(
        self,
        request: Dict[str, Any],
        only: List[str],
        timeout: Optional[float] = None,
    ) -> JobOutcome:
        """Compile *only* — a request's result-cache misses, or one
        batch — on a healthy worker, re-dispatching on failure up to
        ``max_retries`` times.  *timeout* overrides ``job_timeout``."""
        timeout = self.job_timeout if timeout is None else timeout
        failures: List[str] = []
        attempts = 0
        while True:
            attempts += 1
            handle = await self._acquire()
            try:
                outcome = await self._call(
                    handle, "job", timeout, request=request, only=only
                )
            except WorkerFailure as exc:
                failures.append(exc.kind)
                if attempts > self.max_retries:
                    return JobOutcome(
                        attempts=attempts, failures=failures
                    )
                self.retries += 1
                REGISTRY.inc("server.retries")
                continue
            handle.jobs_done += 1
            self._consecutive_failures[handle.slot] = 0
            self._release(handle)
            outcome.attempts = attempts
            outcome.failures = failures
            return outcome

    # -------------------------------------------------------------- stats
    def snapshot(self) -> Dict[str, Any]:
        return {
            "workers": [
                {
                    "slot": handle.slot,
                    "pid": handle.process.pid,
                    "state": handle.state,
                    "jobs": handle.jobs_done,
                }
                for handle in self._handles if handle is not None
            ],
            "crashes": self.crashes,
            "hangs": self.hangs,
            "restarts": self.restarts,
            "retries": self.retries,
        }


# --------------------------------------------------------------- breaker
@dataclass
class BreakerPolicy:
    """One failure class's trip rule: *threshold* failures within
    *window* seconds open the breaker; after *cooldown* seconds it goes
    half-open and admits one trial request."""

    threshold: int = 5
    window: float = 30.0
    cooldown: float = 5.0


#: Failure classes the service distinguishes: worker deaths/hangs vs
#: request deadline misses.  Deadlines get a higher threshold — a burst
#: of slow requests is load, not necessarily a failing backend.
DEFAULT_POLICIES: Dict[str, BreakerPolicy] = {
    "crash": BreakerPolicy(threshold=5, window=30.0, cooldown=5.0),
    "deadline": BreakerPolicy(threshold=8, window=30.0, cooldown=5.0),
}


class CircuitBreaker:
    """Per-failure-class breaker: closed → open → half-open → closed.

    ``admit()`` is consulted at admission: ``None`` admits; a class
    name means shed (the caller answers ``SERVER-CIRCUIT-OPEN``).  In
    half-open state exactly one request is admitted as the trial; its
    recorded success closes the class, a recorded failure reopens it.
    *clock* is injectable for deterministic tests.
    """

    def __init__(
        self,
        policies: Optional[Dict[str, BreakerPolicy]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self.policies = dict(DEFAULT_POLICIES)
        if policies:
            self.policies.update(policies)
        self._events: Dict[str, Deque[float]] = {
            cls: deque() for cls in self.policies
        }
        self._state: Dict[str, str] = {
            cls: "closed" for cls in self.policies
        }
        self._opened_at: Dict[str, float] = {
            cls: 0.0 for cls in self.policies
        }
        self._trial: Dict[str, bool] = {
            cls: False for cls in self.policies
        }
        self.opens = 0
        self.shed = 0

    def admit(self) -> Optional[str]:
        """``None`` to admit, else the open class this request is shed
        for."""
        now = self._clock()
        for cls in self.policies:
            state = self._state[cls]
            if state == "closed":
                continue
            if state == "open":
                if now - self._opened_at[cls] < self.policies[cls].cooldown:
                    self.shed += 1
                    return cls
                self._state[cls] = "half-open"
                self._trial[cls] = False
            if self._trial[cls]:
                self.shed += 1
                return cls  # a trial is already in flight
            self._trial[cls] = True  # this request is the trial
        return None

    def record_failure(self, cls: str) -> None:
        if cls not in self._state:
            return
        now = self._clock()
        if self._state[cls] == "half-open":
            self._open(cls, now)  # the trial failed
            return
        if self._state[cls] == "open":
            return
        events = self._events[cls]
        events.append(now)
        window = self.policies[cls].window
        while events and now - events[0] > window:
            events.popleft()
        if len(events) >= self.policies[cls].threshold:
            self._open(cls, now)

    def record_success(self, cls: str) -> None:
        if cls in self._state and self._state[cls] == "half-open":
            self._state[cls] = "closed"
            self._trial[cls] = False
            self._events[cls].clear()

    def _open(self, cls: str, now: float) -> None:
        self._state[cls] = "open"
        self._opened_at[cls] = now
        self._trial[cls] = False
        self._events[cls].clear()
        self.opens += 1
        REGISTRY.inc("server.breaker.opens")

    def state(self, cls: str) -> str:
        return self._state.get(cls, "closed")

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": dict(self._state),
            "opens": self.opens,
            "shed": self.shed,
        }
