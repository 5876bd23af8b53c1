"""Closed-loop load generator for the compile service.

Drives concurrent clients against a running :class:`CompileServer` for
a fixed duration and counts the replies: ok, error and
``SERVER-OVERLOAD``, plus the integrity counters a healthy service keeps
at zero (replies under another request's id, dropped connections).

Each simulated client is a closed loop on its own connection: send one
tagged compile request, await its response, verify the echoed id,
repeat until the duration is spent.  Its one caller is the chaos
harness's ``kill-storm`` scenario (:mod:`repro.fuzz.chaos`), which
compares the rate of ok replies undisturbed and under sustained worker
kills.  Service latency and throughput are the end-to-end benchmark's
``serve-mixed`` workload (``benchmarks/e2e``).
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

from .protocol import read_frame_async, write_frame_async


@dataclass
class LoadReport:
    """One load run's outcome."""

    requests: int = 0
    errors: int = 0
    overloads: int = 0
    id_mismatches: int = 0
    dropped_connections: int = 0
    seconds: float = 0.0

    @property
    def ok_per_sec(self) -> float:
        """Ok replies per second: every answer that was neither an error
        nor an overload rejection."""
        ok = self.requests - self.errors - self.overloads
        return ok / self.seconds if self.seconds else 0.0


async def _open_connection(path: str, timeout: float = 10.0):
    """Dial with jittered backoff — the server may still be binding,
    and many clients must not storm a refusing socket."""
    deadline = time.monotonic() + timeout
    delay = 0.01
    while True:
        try:
            return await asyncio.open_unix_connection(path)
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
    picks: Iterator[int],
    path: str,
    stop_at: float,
) -> None:
    try:
        reader, writer = await _open_connection(path)
    except OSError:
        report.dropped_connections += 1
        return
    try:
        for seq in itertools.count():
            rid = f"c{cid}-r{seq}"
            request: Dict[str, Any] = {
                "op": "compile",
                "source": sources[next(picks) % len(sources)],
                "id": rid,
            }
            await write_frame_async(writer, request)
            response = await read_frame_async(reader)
            if response is None:
                report.dropped_connections += 1
                return
            report.requests += 1
            if response.get("id") != rid:
                report.id_mismatches += 1
            if not response.get("ok"):
                error = response.get("error") or {}
                if error.get("type") == "SERVER-OVERLOAD":
                    report.overloads += 1
                else:
                    report.errors += 1
            if time.perf_counter() >= stop_at:
                return
    except (OSError, ConnectionError):
        report.dropped_connections += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def _run_load_async(
    sources: List[str], seconds: float, path: str, clients: int,
) -> LoadReport:
    report = LoadReport()
    picks = itertools.count()
    started = time.perf_counter()
    await asyncio.gather(*[
        _client_loop(
            cid, report, sources, picks, path, started + seconds,
        )
        for cid in range(clients)
    ])
    report.seconds = time.perf_counter() - started
    return report


def run_load(
    sources: List[str], seconds: float, path: str, clients: int,
) -> LoadReport:
    """Drive *clients* concurrent closed-loop clients against the server
    on unix socket *path* for *seconds*.  Each client sends at least one
    request and starts none once the duration is spent; the ``n``-th
    request of the run compiles ``sources[n % len(sources)]``."""
    if not sources:
        raise ValueError("run_load needs at least one source")
    return asyncio.run(_run_load_async(sources, seconds, path, clients))
