"""Structured diagnostics for the resilient compilation pipeline.

See :mod:`repro.diag.codes` for the stable code registry and
:mod:`repro.diag.diagnostics` for the record/sink machinery.
"""

from . import codes
from .codes import ERROR, NOTE, WARNING, describe, default_severity
from .diagnostics import CompileError, Diagnostic, DiagnosticSink

__all__ = [
    "codes",
    "CompileError",
    "Diagnostic",
    "DiagnosticSink",
    "ERROR",
    "WARNING",
    "NOTE",
    "describe",
    "default_severity",
]
