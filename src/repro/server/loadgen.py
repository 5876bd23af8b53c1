"""Concurrent load harness for the compile service (``ggcc load-test``).

Drives many concurrent clients against a :class:`CompileServer` and
reports what a capacity planner needs: latency quantiles (p50/p99),
throughput (requests and functions per second), and integrity counters
(id mismatches under pipelining, dropped connections, overload
rejections) that must all be zero on a healthy run.

Each simulated client is a closed loop on its own connection: send one
tagged compile request, await its response, verify the echoed id,
repeat.  ``run_load`` is the single-scenario engine;
:func:`load_test_report` is the whole experiment — it boots a private
server on a temp unix socket and measures two rows against it:

``cold``
    every request is a *distinct* translation unit (per-request seed),
    so the result cache cannot help and every compile pays the dynamic
    phase — the service's sustained compile throughput.
``warm``
    a fixed workload, pre-compiled once, so every request is pure
    result-cache traffic — the repeat-build ceiling, and the row the
    acceptance gate compares against the PR-5 blocking baseline.

The report is what ``benchmarks/run_all.py`` writes to
``BENCH_server.json``; regenerate it with ``ggcc load-test`` (see
EXPERIMENTS.md).  The chaos harness's ``kill-storm`` scenario
(:mod:`repro.fuzz.chaos`) drives :func:`run_load` against a supervised
server under sustained worker kills.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..workloads import generate_workload
from .protocol import read_frame_async, write_frame_async

#: Measured by ``benchmarks/run_all.py`` against the PR-5 one-connection
#: blocking server on the standard 24-function workload; the acceptance
#: bar for this service is >= 10x this on concurrent traffic.
BASELINE_BLOCKING_RPS = 2.9


@dataclass
class LoadReport:
    """One load scenario's outcome."""

    label: str
    clients: int
    requests: int = 0
    errors: int = 0
    overloads: int = 0
    id_mismatches: int = 0
    dropped_connections: int = 0
    functions: int = 0
    seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)

    @property
    def requests_per_sec(self) -> float:
        return self.requests / self.seconds if self.seconds else 0.0

    @property
    def functions_per_sec(self) -> float:
        return self.functions / self.seconds if self.seconds else 0.0

    def percentile(self, q: float) -> float:
        """Latency quantile in seconds (0 when nothing completed)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "overloads": self.overloads,
            "id_mismatches": self.id_mismatches,
            "dropped_connections": self.dropped_connections,
            "functions": self.functions,
            "seconds": round(self.seconds, 6),
            "requests_per_sec": round(self.requests_per_sec, 2),
            "functions_per_sec": round(self.functions_per_sec, 2),
            "p50_ms": round(self.percentile(0.50) * 1e3, 3),
            "p99_ms": round(self.percentile(0.99) * 1e3, 3),
            "max_ms": round(
                (max(self.latencies) if self.latencies else 0.0) * 1e3, 3
            ),
        }


async def _open_connection(
    path: Optional[str], host: Optional[str], port: Optional[int],
    timeout: float = 10.0,
):
    """Dial with jittered backoff — the server may still be binding,
    and hundreds of clients must not storm a refusing socket."""
    deadline = time.monotonic() + timeout
    delay = 0.01
    while True:
        try:
            if path is not None:
                return await asyncio.open_unix_connection(path)
            return await asyncio.open_connection(host, port)
        except OSError:
            now = time.monotonic()
            if now >= deadline:
                raise
            await asyncio.sleep(min(random.uniform(0, delay), deadline - now))
            delay = min(delay * 2, 0.5)


async def _client_loop(
    cid: int,
    report: LoadReport,
    sources: List[str],
    requests_per_client: int,
    path: Optional[str],
    host: Optional[str],
    port: Optional[int],
    deadline: Optional[float],
) -> None:
    try:
        reader, writer = await _open_connection(path, host, port)
    except OSError:
        report.dropped_connections += 1
        return
    try:
        for seq in range(requests_per_client):
            index = cid * requests_per_client + seq
            rid = f"c{cid}-r{seq}"
            request: Dict[str, Any] = {
                "op": "compile",
                "source": sources[index % len(sources)],
                "id": rid,
            }
            if deadline is not None:
                request["deadline"] = deadline
            started = time.perf_counter()
            await write_frame_async(writer, request)
            response = await read_frame_async(reader)
            elapsed = time.perf_counter() - started
            if response is None:
                report.dropped_connections += 1
                return
            report.requests += 1
            if response.get("id") != rid:
                report.id_mismatches += 1
            if response.get("ok"):
                report.latencies.append(elapsed)
                report.functions += len(response.get("functions", ()))
            elif (
                response.get("error", {}).get("type") == "SERVER-OVERLOAD"
            ):
                report.overloads += 1
            else:
                report.errors += 1
    except (OSError, ConnectionError):
        report.dropped_connections += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def _run_load_async(
    label: str,
    sources: List[str],
    clients: int,
    requests_per_client: int,
    path: Optional[str],
    host: Optional[str],
    port: Optional[int],
    deadline: Optional[float],
) -> LoadReport:
    report = LoadReport(label=label, clients=clients)
    started = time.perf_counter()
    await asyncio.gather(*[
        _client_loop(
            cid, report, sources, requests_per_client,
            path, host, port, deadline,
        )
        for cid in range(clients)
    ])
    report.seconds = time.perf_counter() - started
    return report


def run_load(
    sources: List[str],
    clients: int = 20,
    requests_per_client: int = 4,
    path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    deadline: Optional[float] = None,
    label: str = "load",
) -> LoadReport:
    """Drive *clients* concurrent closed-loop clients against a running
    server; request ``i`` of client ``c`` compiles
    ``sources[(c * requests_per_client + i) % len(sources)]``."""
    if not sources:
        raise ValueError("run_load needs at least one source")
    return asyncio.run(_run_load_async(
        label, sources, clients, requests_per_client,
        path, host, port, deadline,
    ))


# ------------------------------------------------------- the experiment
def cold_sources(
    count: int, functions: int, statements: int, seed: int = 1982
) -> List[str]:
    """*count* distinct translation units (one per request of a cold
    run), deterministic in *seed*."""
    return [
        generate_workload(
            functions=functions, statements_per_function=statements,
            seed=seed + index,
        )
        for index in range(count)
    ]


def load_test_report(
    clients: int = 50,
    requests_per_client: int = 4,
    functions: int = 3,
    statements: int = 6,
    queue_limit: Optional[int] = None,
    deadline: Optional[float] = None,
    seed: int = 1982,
) -> Dict[str, Any]:
    """Boot a private server, measure the cold and warm rows, report.

    The returned dict is the ``BENCH_server.json`` payload: both rows'
    latency/throughput numbers, the warm-over-cold speedup, and the
    multiple over the PR-5 blocking baseline
    (:data:`BASELINE_BLOCKING_RPS`).
    """
    from .client import CompileClient
    from .server import CompileServer, DEFAULT_QUEUE_LIMIT

    total = clients * requests_per_client
    cold = cold_sources(total, functions, statements, seed)
    warm_source = generate_workload(
        functions=functions, statements_per_function=statements,
        seed=seed - 1,
    )

    with tempfile.TemporaryDirectory(prefix="ggcc-load-") as tmp:
        socket_path = f"{tmp}/ggcc.sock"
        server = CompileServer(
            path=socket_path,
            queue_limit=queue_limit or max(DEFAULT_QUEUE_LIMIT, clients * 2),
            default_deadline=deadline,
        )
        server.bind()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            cold_report = run_load(
                cold, clients=clients,
                requests_per_client=requests_per_client,
                path=socket_path, label="cold",
            )
            with CompileClient(path=socket_path) as warmer:
                warmer.compile(warm_source)  # populate the result cache
            warm_report = run_load(
                [warm_source], clients=clients,
                requests_per_client=requests_per_client,
                path=socket_path, label="warm",
            )
            with CompileClient(path=socket_path) as admin:
                stats = admin.stats()
                admin.shutdown()
        finally:
            thread.join(timeout=30)

    cold_rps = cold_report.requests_per_sec
    warm_rps = warm_report.requests_per_sec
    return {
        "workload": {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "functions_per_unit": functions,
            "statements_per_function": statements,
            "seed": seed,
        },
        "cold": cold_report.to_dict(),
        "warm": warm_report.to_dict(),
        "warm_speedup": round(warm_rps / cold_rps, 2) if cold_rps else 0.0,
        "baseline_blocking_rps": BASELINE_BLOCKING_RPS,
        "speedup_vs_blocking": round(
            warm_rps / BASELINE_BLOCKING_RPS, 2
        ) if warm_rps else 0.0,
        "server_stats": {
            "requests_served": stats.get("requests_served"),
            "functions_compiled": stats.get("functions_compiled"),
            "errors": stats.get("errors"),
            "overloads": stats.get("overloads"),
            "deadline_expired": stats.get("deadline_expired"),
            "shutdown_rejected": stats.get("shutdown_rejected"),
            "breaker_shed": stats.get("breaker_shed"),
            "queue": stats.get("queue"),
            "workers": stats.get("workers"),
            "supervisor": stats.get("supervisor"),
            "breaker": stats.get("breaker"),
            "result_cache": stats.get("result_cache"),
        },
    }
