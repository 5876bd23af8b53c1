"""The stable diagnostic-code registry.

Every failure the pipeline can survive — and every recovery it performs —
is named by a short, stable code so that logs, tests and the chaos
harness can assert on *which* failure happened rather than on message
text.  Codes are grouped by prefix:

``GG-*``
    pattern-matcher failures, mirroring the paper's blocking taxonomy
    (section 6.2.2): syntactic blocks, semantic blocks, reduction loops,
    and a packed matcher that crashed outright.
``RECOVER-*``
    one entry per rung of the runtime recovery ladder, the dynamic
    analogue of the paper's static bridge-production and default-list
    repairs.
``CACHE-*``
    persistent table-cache integrity events.
``WORKER-*``
    batch-driver worker containment, one per failed attempt.
``SERVER-*``
    compile-service admission control and self-healing: queue-full
    backpressure, expired request deadlines, supervised-worker crash
    and retry events, circuit-breaker sheds, and graceful-drain
    rejections.
``FN-*`` / ``FRONTEND-*``
    per-function and whole-program terminal failures.

Adding a code means adding it to :data:`REGISTRY`; the severity given
there is the *default* — a Diagnostic may override it (e.g. a recovery
note escalates to a warning when it happened during a production run).
"""

from __future__ import annotations

from typing import Dict, Tuple

# Severities, mildest first.
NOTE = "note"
WARNING = "warning"
ERROR = "error"

_SEVERITY_RANK = {NOTE: 0, WARNING: 1, ERROR: 2}

# ------------------------------------------------------------- matcher
GG_BLOCK_SYN = "GG-BLOCK-SYN"
GG_BLOCK_SEM = "GG-BLOCK-SEM"
GG_REDUCE_LOOP = "GG-REDUCE-LOOP"
GG_SEMANTIC = "GG-SEMANTIC"
GG_TABLE_CORRUPT = "GG-TABLE-CORRUPT"

# ------------------------------------------------------------ recovery
RECOVER_DICT = "RECOVER-DICT"
RECOVER_FORCE = "RECOVER-FORCE"
RECOVER_PCC = "RECOVER-PCC"

# --------------------------------------------------------------- cache
CACHE_CORRUPT = "CACHE-CORRUPT"
CACHE_RETRY = "CACHE-RETRY"

# ------------------------------------------------------------- drivers
WORKER_TIMEOUT = "WORKER-TIMEOUT"
WORKER_CRASH = "WORKER-CRASH"
FN_FAILED = "FN-FAILED"
FRONTEND_ERROR = "FRONTEND-ERROR"
ENGINE_UNKNOWN = "ENGINE-UNKNOWN"

# ------------------------------------------------------------- service
SERVER_OVERLOAD = "SERVER-OVERLOAD"
SERVER_DEADLINE = "SERVER-DEADLINE"
SERVER_WORKER_CRASH = "SERVER-WORKER-CRASH"
SERVER_RETRY = "SERVER-RETRY"
SERVER_CIRCUIT_OPEN = "SERVER-CIRCUIT-OPEN"
SERVER_SHUTDOWN = "SERVER-SHUTDOWN"

#: code -> (default severity, one-line description)
REGISTRY: Dict[str, Tuple[str, str]] = {
    GG_BLOCK_SYN: (
        ERROR,
        "syntactic block: the matcher hit the error action on a "
        "well-formed tree (section 6.2.2)",
    ),
    GG_BLOCK_SEM: (
        ERROR,
        "semantic block: a reduction completed but no goto (or no viable "
        "tied production) could consume it",
    ),
    GG_REDUCE_LOOP: (
        ERROR,
        "chain reductions cycled past the dynamic loop limit",
    ),
    GG_SEMANTIC: (
        ERROR,
        "an emitting reduction could not be realised by the semantics",
    ),
    GG_TABLE_CORRUPT: (
        ERROR,
        "the packed matcher raised something other than a block; the "
        "function was retried on the dict-table matcher",
    ),
    RECOVER_DICT: (
        NOTE,
        "function recompiled successfully on the dict-table matcher",
    ),
    RECOVER_FORCE: (
        WARNING,
        "function recompiled after forced operand hoisting (the runtime "
        "analogue of a bridge production)",
    ),
    RECOVER_PCC: (
        WARNING,
        "function degraded to the PCC baseline backend",
    ),
    CACHE_CORRUPT: (
        WARNING,
        "corrupt or truncated table-cache entry quarantined; cold build",
    ),
    CACHE_RETRY: (
        NOTE,
        "table-cache store retried after a racing writer or I/O error",
    ),
    WORKER_TIMEOUT: (
        ERROR,
        "a batch outlived its deadline (the per-function timeout times "
        "its function count); its worker was killed and restarted and "
        "the batch re-dispatched — a warning when a retry recovered it, "
        "an error when it was recompiled in the parent; other batches "
        "keep their workers",
    ),
    WORKER_CRASH: (
        ERROR,
        "a batch's worker died (a crash, or a failed initializer); the "
        "worker was restarted and the batch re-dispatched — a warning "
        "when a retry recovered it, an error when it was recompiled in "
        "the parent",
    ),
    FN_FAILED: (
        ERROR,
        "a function failed every rung of the recovery ladder",
    ),
    FRONTEND_ERROR: (
        ERROR,
        "the front end rejected the program before code generation",
    ),
    ENGINE_UNKNOWN: (
        WARNING,
        "the REPRO_MATCHER environment variable named an unknown "
        "matcher engine; it was ignored and the default engine used",
    ),
    SERVER_OVERLOAD: (
        WARNING,
        "the compile service's admission queue was full; the request "
        "was rejected immediately with backpressure instead of queued",
    ),
    SERVER_DEADLINE: (
        ERROR,
        "the request's deadline expired before its compile finished; "
        "queued work was cancelled, running work was abandoned",
    ),
    SERVER_WORKER_CRASH: (
        ERROR,
        "a supervised compile worker died or hung mid-request; the "
        "worker was restarted and the request re-dispatched when "
        "retries remained",
    ),
    SERVER_RETRY: (
        NOTE,
        "the request was re-dispatched to a healthy worker after its "
        "first worker failed (idempotent under the content-addressed "
        "result key)",
    ),
    SERVER_CIRCUIT_OPEN: (
        WARNING,
        "the circuit breaker is open for this failure class; the "
        "request was shed immediately instead of queued onto a failing "
        "backend",
    ),
    SERVER_SHUTDOWN: (
        WARNING,
        "the service is draining: the request was rejected or its "
        "in-flight compile abandoned so the response could be flushed "
        "before the connection closed",
    ),
}


def default_severity(code: str) -> str:
    """The registered severity for *code* (ERROR when unregistered)."""
    entry = REGISTRY.get(code)
    return entry[0] if entry else ERROR


def describe(code: str) -> str:
    entry = REGISTRY.get(code)
    return entry[1] if entry else "unregistered diagnostic code"


def severity_rank(severity: str) -> int:
    """Orderable rank; unknown severities sort as errors."""
    return _SEVERITY_RANK.get(severity, _SEVERITY_RANK[ERROR])
