"""Compile-pipeline observability: spans, metrics, and profiling.

Three layers, cheapest first:

* :mod:`repro.obs.metrics` — process-wide counters and histograms
  (shifts/reduces per compile, cache hits, recovery rungs).  Enabled by
  default; every event site fires at per-function granularity, so the
  cost is an integer add.  ``REPRO_OBS_METRICS=0`` disables.
* :mod:`repro.obs.spans` — hierarchical timed spans over every pipeline
  stage, exported as Chrome ``trace_event`` JSON.  Off unless a recorder
  is installed (``ggcc --trace-json FILE`` installs one).
* :mod:`repro.obs.profile` — the ``ggcc profile`` report: per-function
  phase times (computed exclusively, never clamped), static-phase and
  cache costs, the metrics snapshot, and timing-invariant checks.

Process-pool workers ship their observability back by value: a
:class:`WorkerObs` payload (metrics delta + span records) rides home
with each task result and the parent absorbs it, so ``--jobs 4``
produces the same merged counters and one trace with a timeline row per
worker pid.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .metrics import (
    REGISTRY, MetricsRegistry, MetricsSnapshot, metrics, set_metrics_enabled,
)
from .profile import (
    FunctionProfile, ProfileReport, profile_program, resolve_profile_source,
)
from .spans import (
    SpanRecord, SpanRecorder, current_recorder, install_recorder, span,
    uninstall_recorder, validate_trace_events,
)

__all__ = [
    "REGISTRY", "MetricsRegistry", "MetricsSnapshot", "metrics",
    "set_metrics_enabled", "SpanRecord", "SpanRecorder", "current_recorder",
    "install_recorder", "span", "uninstall_recorder", "validate_trace_events",
    "FunctionProfile", "ProfileReport", "profile_program",
    "resolve_profile_source",
    "WorkerObs", "obs_flags", "worker_obs_sync", "worker_obs_drain",
    "absorb_worker_obs", "absorb_worker_obs_many",
]


@dataclass
class WorkerObs:
    """One pool task's observability delta, shipped parent-ward by value."""

    pid: int
    metrics: Optional[MetricsSnapshot] = None
    spans: List[SpanRecord] = field(default_factory=list)


def obs_flags() -> Tuple[bool, bool]:
    """(metrics enabled, span recorder installed) — what a parent tells
    its pool workers to reproduce."""
    return (REGISTRY.enabled, current_recorder() is not None)


#: Guard so a forked worker discards observability state inherited from
#: the parent exactly once (re-shipping the parent's pre-fork records
#: would double count them).
_WORKER_PID: Optional[int] = None


def worker_obs_sync(flags: Tuple[bool, bool]) -> None:
    """Bring this worker process's observability in line with *flags*.

    Idempotent per process: the first task a worker runs resets the
    registry (dropping fork-inherited counts) and installs a fresh
    recorder when the parent is tracing; later tasks are no-ops.
    """
    global _WORKER_PID
    if _WORKER_PID == os.getpid():
        return
    _WORKER_PID = os.getpid()
    metrics_on, spans_on = flags
    set_metrics_enabled(metrics_on)
    REGISTRY.reset()
    if spans_on:
        install_recorder()
    else:
        uninstall_recorder()


def worker_obs_drain(flags: Tuple[bool, bool]) -> Optional[WorkerObs]:
    """The delta since the last drain, or None when there is nothing."""
    metrics_on, spans_on = flags
    snapshot = REGISTRY.drain() if metrics_on else None
    recorder = current_recorder()
    records = recorder.drain() if (spans_on and recorder) else []
    if (snapshot is None or snapshot.empty) and not records:
        return None
    return WorkerObs(pid=os.getpid(), metrics=snapshot, spans=records)


def absorb_worker_obs(payload: Optional[WorkerObs]) -> None:
    """Fold a worker's delta into this (parent) process's registry and
    recorder."""
    if payload is None:
        return
    if payload.metrics is not None:
        REGISTRY.absorb(payload.metrics)
    recorder = current_recorder()
    if recorder is not None and payload.spans:
        recorder.absorb(payload.spans)


def absorb_worker_obs_many(payloads: List[Optional[WorkerObs]]) -> None:
    """Fold several workers' deltas at once.

    The batch driver collects payloads while results stream in and
    absorbs them here after the last one lands: merging counters and
    span records is parent-side bookkeeping, and doing it inline per
    future puts it between a worker finishing and the next result being
    consumed — squarely on the dispatch critical path."""
    for payload in payloads:
        absorb_worker_obs(payload)
