"""The self-healing service: breaker, supervised workers, drain.

Four families:

* **Circuit breaker** — pure unit tests under an injectable fake clock:
  a class opens at its threshold (old failures pruned by the window),
  cooldown moves it to half-open where exactly one trial is admitted,
  and the trial's outcome closes or reopens the class.
* **Supervised compile** — with ``workers=N`` the dynamic phase runs in
  warm subprocesses; the assembly must stay byte-identical to the
  serial compiler and ``stats`` must expose the supervisor.
* **Chaos recovery** — a worker killed mid-compile (a one-shot
  :class:`~repro.workers.FaultPlan`) is restarted and the request
  re-dispatched: the response is *ok* but carries a ``WORKER-CRASH``
  warning per function of the job; a hung worker is detected by the job
  deadline and retired the same way (``WORKER-TIMEOUT``).
* **Graceful drain** — shutdown with work in flight answers every
  admitted request with a staged ``SERVER-SHUTDOWN`` error before any
  connection closes; nothing is silently dropped.
"""

import threading
import time

import pytest

from repro.compile import compile_program
from repro.server import CompileClient, CompileServer
from repro.server.breaker import BreakerPolicy, CircuitBreaker
from repro.workers import FaultPlan, inject
from repro.workloads.programs import ALL_PROGRAMS

SOURCE = next(p for p in ALL_PROGRAMS if p.name == "gcd").source


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _breaker(threshold=3, window=10.0, cooldown=5.0):
    clock = FakeClock()
    breaker = CircuitBreaker(
        policies={"crash": BreakerPolicy(threshold, window, cooldown)},
        clock=clock,
    )
    return breaker, clock


# ------------------------------------------------------------- breaker
def test_breaker_opens_at_threshold_and_sheds():
    breaker, _ = _breaker(threshold=3)
    for _ in range(2):
        breaker.record_failure("crash")
        assert breaker.state("crash") == "closed"
        assert breaker.admit() is None
    breaker.record_failure("crash")
    assert breaker.state("crash") == "open"
    assert breaker.admit() == "crash"
    assert breaker.opens == 1 and breaker.shed == 1
    assert breaker.snapshot()["state"]["crash"] == "open"


def test_breaker_window_prunes_old_failures():
    breaker, clock = _breaker(threshold=3, window=10.0)
    breaker.record_failure("crash")
    breaker.record_failure("crash")
    clock.now += 11.0  # both events age out of the window
    breaker.record_failure("crash")
    assert breaker.state("crash") == "closed"
    assert breaker.admit() is None


def test_breaker_halfopen_admits_one_trial_then_closes():
    breaker, clock = _breaker(threshold=1, cooldown=5.0)
    breaker.record_failure("crash")
    assert breaker.admit() == "crash"  # open: shed
    clock.now += 5.0
    assert breaker.admit() is None  # half-open: this is the trial
    assert breaker.state("crash") == "half-open"
    assert breaker.admit() == "crash"  # only one trial in flight
    breaker.record_success("crash")
    assert breaker.state("crash") == "closed"
    assert breaker.admit() is None


def test_breaker_trial_failure_reopens():
    breaker, clock = _breaker(threshold=1, cooldown=5.0)
    breaker.record_failure("crash")
    clock.now += 5.0
    assert breaker.admit() is None  # the trial
    breaker.record_failure("crash")
    assert breaker.state("crash") == "open"
    assert breaker.opens == 2
    assert breaker.admit() == "crash"  # cooldown restarts


def test_breaker_ignores_unknown_class():
    breaker, _ = _breaker()
    breaker.record_failure("weather")  # no such class: a no-op
    breaker.record_success("weather")
    assert breaker.admit() is None


# -------------------------------------------------- supervised compile
def test_supervised_compile_matches_serial(tmp_path):
    expected = compile_program(SOURCE, jobs=1).text
    path = str(tmp_path / "supervised.sock")
    server = CompileServer(path=path, workers=1)
    server.bind()
    thread = _start(server)
    try:
        with CompileClient(path=path, connect_timeout=30) as client:
            response = client.request({
                "op": "compile", "source": SOURCE, "id": "r1",
            })
            assert response["ok"] and response["id"] == "r1"
            assert response["assembly"] == expected
            stats = client.request({"op": "stats"})
            assert stats["workers"] == 1
            assert stats["supervisor"]["crashes"] == 0
            assert len(stats["supervisor"]["workers"]) == 1
            assert stats["breaker"]["state"]["crash"] == "closed"
            client.shutdown()
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_worker_kill_recovers_with_crash_and_retry_diags(tmp_path):
    """A worker that dies mid-compile is restarted and the job is
    re-dispatched; the client still gets a correct answer, annotated
    with a WORKER-CRASH warning on attempt 1 per function of the job."""
    expected = compile_program(SOURCE, jobs=1).text
    path = str(tmp_path / "kill.sock")
    server = CompileServer(
        path=path, workers=1, result_cache=False, max_retries=2,
    )
    server.bind()
    thread = _start(server)
    plan = FaultPlan("kill", limit=1)
    try:
        with CompileClient(path=path, connect_timeout=30) as client, \
                inject(plan):
            response = client.request({
                "op": "compile", "source": SOURCE, "id": "doomed",
            })
            assert response["ok"] and response["assembly"] == expected
            crashes = [
                d for d in response["diagnostics"]
                if d["code"] == "WORKER-CRASH"
            ]
            assert [d["function"] for d in crashes] == response["functions"]
            assert {d["severity"] for d in crashes} == {"warning"}
            assert {d["context"]["attempt"] for d in crashes} == {1}
            stats = client.request({"op": "stats"})
            assert stats["supervisor"]["crashes"] >= 1
            assert stats["supervisor"]["retries"] >= 1
            client.shutdown()
    finally:
        thread.join(timeout=30)
    assert plan.fired == 1  # the parent injected it exactly once


def test_worker_hang_detected_by_job_deadline(tmp_path):
    path = str(tmp_path / "hang.sock")
    server = CompileServer(
        path=path, workers=1, result_cache=False,
        job_timeout=1.5, max_retries=2,
    )
    server.bind()
    thread = _start(server)
    try:
        with CompileClient(path=path, connect_timeout=30) as client, \
                inject(FaultPlan("hang", limit=1)):
            started = time.perf_counter()
            response = client.request({
                "op": "compile", "source": SOURCE, "id": "stuck",
            })
            elapsed = time.perf_counter() - started
            assert response["ok"]  # recovered on the retry
            codes = [d["code"] for d in response["diagnostics"]]
            assert "WORKER-TIMEOUT" in codes
            assert elapsed < 30  # the 30s sleep was abandoned, not served
            stats = client.request({"op": "stats"})
            assert stats["supervisor"]["hangs"] >= 1
            client.shutdown()
    finally:
        thread.join(timeout=30)


# ---------------------------------------------------------------- drain
def test_graceful_drain_answers_queued_and_running(tmp_path):
    """Shutdown with one compile on the worker and two queued: all
    three get staged ``SERVER-SHUTDOWN`` responses, none is dropped."""
    gate = threading.Event()
    entered = threading.Event()

    def gated(request):
        entered.set()
        gate.wait(30)

    path = str(tmp_path / "drain.sock")
    server = CompileServer(
        path=path, _before_compile=gated, drain_grace=0.5,
    )
    server.bind()
    thread = _start(server)
    try:
        client = CompileClient(path=path, connect_timeout=30)
        client.send({"op": "compile", "source": SOURCE, "id": "running"})
        assert entered.wait(10)
        client.send({"op": "compile", "source": SOURCE, "id": "q1"})
        client.send({"op": "compile", "source": SOURCE, "id": "q2"})
        deadline = time.monotonic() + 10
        while server.queue_depth < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.queue_depth == 2

        with CompileClient(path=path) as admin:
            assert admin.request({"op": "shutdown"})["ok"]

        responses = {}
        for _ in range(3):
            response = client.recv()
            responses[response["id"]] = response
        assert set(responses) == {"running", "q1", "q2"}
        for rid, response in responses.items():
            assert not response["ok"]
            assert response["error"]["type"] == "SERVER-SHUTDOWN"
            diag = response["diagnostics"][0]
            assert diag["code"] == "SERVER-SHUTDOWN"
            expected_stage = "running" if rid == "running" else "queued"
            assert diag["context"]["stage"] == expected_stage
        client.close()
    finally:
        gate.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert server.shutdown_rejected == 3
