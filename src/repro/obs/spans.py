"""Hierarchical spans over the compilation pipeline.

A *span* is one timed interval with a name, a category, and arbitrary
primitive arguments — "phase 1b ran for 180 µs inside the compile of
``sum_of_squares``".  Spans nest: the recorder keeps a per-thread stack,
and every finished span knows both its *inclusive* duration (wall time
between enter and exit) and its *exclusive* duration (inclusive minus
the time spent in child spans).  Exclusive time is what makes phase
attribution honest: the matching phase's cost is its wall time with the
semantic-callback spans subtracted *structurally*, not by after-the-fact
arithmetic that has to clamp negative results.

Recording is opt-in.  When no recorder is installed, :func:`span`
returns a shared no-op context manager — one global read and one ``is
None`` test, so instrumented code costs effectively nothing in
production.  When a recorder *is* installed the records can be exported
as Chrome ``trace_event`` JSON (the format ``chrome://tracing`` and
Perfetto load directly); ``ggcc --trace-json FILE`` does exactly that.

Records are plain picklable dataclasses, so process-pool workers ship
their spans back to the parent, which absorbs them under the worker's
pid (each pid is its own timeline row in the trace viewer; clocks are
per-process, so cross-pid skew of a few µs is expected and harmless).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Tolerance when checking child-inside-parent containment, µs.  The
#: timestamps of a child's enter/exit are taken strictly inside the
#: parent's, but float rounding can reorder equal values.
NESTING_SLOP_US = 0.5


@dataclass
class SpanRecord:
    """One finished span.  All fields are primitives: picklable and
    JSON-able by construction."""

    name: str
    cat: str
    start_us: float      # µs since the recorder's epoch
    dur_us: float        # inclusive wall time
    exclusive_us: float  # dur_us minus time spent in child spans
    pid: int
    tid: int
    depth: int           # nesting depth at record time (0 = root)
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us


class _ActiveSpan:
    """Context manager for one live span.  Cheap by design: two clock
    reads, a stack push/pop, and one list append."""

    __slots__ = ("recorder", "name", "cat", "args", "start_us", "child_us",
                 "depth")

    def __init__(self, recorder: "SpanRecorder", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.name = name
        self.cat = cat
        self.args = args
        self.child_us = 0.0

    def __enter__(self) -> "_ActiveSpan":
        stack = self.recorder._stack()
        self.depth = len(stack)
        stack.append(self)
        self.start_us = self.recorder._now_us()
        return self

    def __exit__(self, *exc) -> None:
        end_us = self.recorder._now_us()
        stack = self.recorder._stack()
        stack.pop()
        dur = end_us - self.start_us
        if stack:
            stack[-1].child_us += dur
        self.recorder._append(SpanRecord(
            name=self.name, cat=self.cat,
            start_us=self.start_us, dur_us=dur,
            exclusive_us=max(0.0, dur - self.child_us),
            pid=self.recorder.pid, tid=threading.get_ident() & 0xFFFF,
            depth=self.depth, args=self.args,
        ))

    def note(self, **args: Any) -> None:
        """Attach (or update) arguments on the live span."""
        self.args.update(args)


class _NoopSpan:
    """The shared do-nothing span handed out when recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def note(self, **args: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class SpanRecorder:
    """Collects spans for one process; thread-safe, per-thread stacks."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._local = threading.local()

    # ------------------------------------------------------------ internals
    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _stack(self) -> List[_ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------- recording
    def span(self, name: str, cat: str = "phase", **args: Any) -> _ActiveSpan:
        return _ActiveSpan(self, name, cat, args)

    def absorb(self, records: List[SpanRecord]) -> None:
        """Merge records shipped back from a pool worker (their pid field
        keeps them on their own timeline)."""
        with self._lock:
            self._records.extend(records)

    def drain(self) -> List[SpanRecord]:
        """Take every record collected so far, leaving the recorder empty
        (what a pool worker ships back after each task)."""
        with self._lock:
            records, self._records = self._records, []
        return records

    # --------------------------------------------------------------- queries
    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def by_name(self, name: str) -> List[SpanRecord]:
        return [r for r in self.records() if r.name == name]

    # ---------------------------------------------------------------- export
    def to_trace_events(self) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` "complete" (ph=X) events, one per span,
        plus process-name metadata rows."""
        records = self.records()
        events: List[Dict[str, Any]] = []
        for pid in sorted({r.pid for r in records}):
            label = "ggcc" if pid == self.pid else f"ggcc worker {pid}"
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
        for r in records:
            args = dict(r.args)
            args["exclusive_us"] = round(r.exclusive_us, 3)
            events.append({
                "name": r.name, "cat": r.cat, "ph": "X",
                "ts": round(r.start_us, 3), "dur": round(r.dur_us, 3),
                "pid": r.pid, "tid": r.tid, "args": args,
            })
        return events

    def to_chrome_trace(self) -> Dict[str, Any]:
        return {
            "traceEvents": self.to_trace_events(),
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")
        return path


def validate_trace_events(payload: Dict[str, Any]) -> List[str]:
    """Structural check of a Chrome trace dict; returns problems found.

    Used by tests and the CI profile-smoke job: an empty list means every
    event carries the required ``trace_event`` keys with sane values and
    ph=X events nest properly per (pid, tid).
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    timelines: Dict[tuple, List[Dict[str, Any]]] = {}
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(f"event {index}: unsupported ph {phase!r}")
            continue
        if "name" not in event or "pid" not in event:
            problems.append(f"event {index}: missing name/pid")
            continue
        if phase == "X":
            if not isinstance(event.get("ts"), (int, float)) or \
                    not isinstance(event.get("dur"), (int, float)):
                problems.append(f"event {index}: ts/dur not numeric")
                continue
            if event["dur"] < 0:
                problems.append(f"event {index}: negative dur")
            timelines.setdefault(
                (event["pid"], event.get("tid", 0)), []
            ).append(event)
    for key, rows in timelines.items():
        rows = sorted(rows, key=lambda e: (e["ts"], -e["dur"]))
        stack: List[Dict[str, Any]] = []
        for event in rows:
            while stack and event["ts"] >= \
                    stack[-1]["ts"] + stack[-1]["dur"] - NESTING_SLOP_US:
                stack.pop()
            if stack:
                parent_end = stack[-1]["ts"] + stack[-1]["dur"]
                if event["ts"] + event["dur"] > parent_end + NESTING_SLOP_US:
                    problems.append(
                        f"timeline {key}: {event['name']!r} overlaps "
                        f"{stack[-1]['name']!r} without nesting"
                    )
            stack.append(event)
    return problems


# ------------------------------------------------------- module-level state
_RECORDER: Optional[SpanRecorder] = None


def install_recorder(recorder: Optional[SpanRecorder] = None) -> SpanRecorder:
    """Install (and return) the process-wide recorder; spans start being
    collected from this point on."""
    global _RECORDER
    # ``is None``, not ``or``: an empty recorder is falsy (``__len__``)
    # and must still be the one installed.
    _RECORDER = SpanRecorder() if recorder is None else recorder
    return _RECORDER


def uninstall_recorder() -> Optional[SpanRecorder]:
    """Stop recording; returns the recorder that was active."""
    global _RECORDER
    recorder, _RECORDER = _RECORDER, None
    return recorder


def current_recorder() -> Optional[SpanRecorder]:
    return _RECORDER


def span(name: str, cat: str = "phase", **args: Any):
    """A span on the installed recorder, or the shared no-op."""
    recorder = _RECORDER
    if recorder is None:
        return NOOP_SPAN
    return recorder.span(name, cat, **args)
