"""Structured diagnostics: records and the per-compile sink.

The matcher's historical failure mode was an unstructured exception that
aborted the whole compile.  A :class:`Diagnostic` instead captures one
event — a block, a cache quarantine, a recovery rung, a dead worker —
with a stable code (:mod:`repro.diag.codes`), a severity, the function
it happened in, and a JSON-able ``context`` dict (matcher state, stack
snapshot, lookahead, cache paths...).  A :class:`DiagnosticSink`
accumulates them across one ``compile_program`` run; the CLI renders the
sink human-readable or as JSON (``--diag-json``).

Diagnostics are picklable by construction (dataclass of primitives), so
process-pool workers ship theirs back to the parent sink unchanged.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..obs.metrics import REGISTRY as METRICS
from .codes import ERROR, NOTE, WARNING, default_severity, severity_rank


def _jsonable(value: Any) -> Any:
    """Coerce *value* into something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


@dataclass
class Diagnostic:
    """One structured pipeline event."""

    code: str
    message: str
    severity: str = ""
    function: Optional[str] = None
    context: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.severity:
            self.severity = default_severity(self.code)
        self.context = {k: _jsonable(v) for k, v in self.context.items()}

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def format(self) -> str:
        """One human-readable line, context keys appended compactly."""
        where = f" [{self.function}]" if self.function else ""
        line = f"{self.severity}: {self.code}{where}: {self.message}"
        if self.context:
            detail = ", ".join(
                f"{key}={value}" for key, value in sorted(self.context.items())
                if not isinstance(value, (list, dict))
            )
            if detail:
                line += f" ({detail})"
        return line


class CompileError(Exception):
    """A strict compile found a function the engine could not compile
    on its own.

    ``compile_program`` always contains failures; without
    ``resilient=True`` it then raises this for the first function (in
    source order) that a recovery rung rescued or that failed.
    ``diagnostic`` is the record that pushed that function off the
    engine's tier, and the message is ``CODE: message``.
    """

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(f"{diagnostic.code}: {diagnostic.message}")
        self.diagnostic = diagnostic


class DiagnosticSink:
    """Thread-safe collector for one compilation's diagnostics.

    Process workers return their diagnostics by value and the parent
    extends the sink; one lock around the list keeps it safe to share
    across threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[Diagnostic] = []

    # ---------------------------------------------------------- recording
    def add(
        self,
        code: str,
        message: str,
        severity: str = "",
        function: Optional[str] = None,
        **context: Any,
    ) -> Diagnostic:
        record = Diagnostic(
            code=code, message=message, severity=severity,
            function=function, context=context,
        )
        with self._lock:
            self._records.append(record)
        METRICS.inc(f"diag.{record.severity}")
        return record

    def extend(self, records: List[Diagnostic]) -> None:
        with self._lock:
            self._records.extend(records)
        if METRICS.enabled:
            for record in records:
                METRICS.inc(f"diag.{record.severity}")

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.records())

    def records(self) -> List[Diagnostic]:
        with self._lock:
            return list(self._records)

    @property
    def errors(self) -> List[Diagnostic]:
        return [r for r in self.records() if r.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [r for r in self.records() if r.severity == WARNING]

    @property
    def notes(self) -> List[Diagnostic]:
        return [r for r in self.records() if r.severity == NOTE]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [r for r in self.records() if r.code == code]

    def has(self, code: str) -> bool:
        return any(r.code == code for r in self.records())

    @property
    def ok(self) -> bool:
        """True when nothing error-severity was recorded."""
        return not self.errors

    # ---------------------------------------------------------- rendering
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.records():
            out[record.code] = out.get(record.code, 0) + 1
        return out

    def summary_line(self) -> str:
        """The CLI's one-line roll-up, worst severity first."""
        records = self.records()
        if not records:
            return "diagnostics: none"
        parts = [
            f"{code}x{count}" for code, count in sorted(
                self.counts().items(),
                key=lambda kv: (-severity_rank(default_severity(kv[0])), kv[0]),
            )
        ]
        errors = sum(1 for r in records if r.severity == ERROR)
        return (
            f"diagnostics: {len(records)} recorded, {errors} error(s): "
            + ", ".join(parts)
        )

    def format_human(self) -> str:
        records = sorted(
            self.records(), key=lambda r: -severity_rank(r.severity)
        )
        return "\n".join(record.format() for record in records)

    def to_json(self, indent: Optional[int] = None) -> str:
        payload = {
            "diagnostics": [record.to_dict() for record in self.records()],
            "counts": self.counts(),
            "errors": len(self.errors),
            "ok": self.ok,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)
