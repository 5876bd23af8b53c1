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

Worker processes ship their observability home by value: every job a
supervised worker runs (:func:`repro.server.supervisor._run_request`)
opens its own metrics window and, when the caller traces, its own span
recorder, and returns the metrics delta and span records in its
``JobOutcome``.  The batch driver folds them into the parent's registry
and recorder (``REGISTRY.absorb``, ``SpanRecorder.absorb``) and the
compile service into the request's reply, so ``--jobs 4`` produces the
same merged counters and one trace with a timeline row per worker pid.
"""

from __future__ import annotations

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
]
