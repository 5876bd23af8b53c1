"""The ``ggcc profile`` report: per-compile phase attribution.

Profiles one program through :func:`repro.compile.compile_program` and
reports, per function, the exclusive phase times the driver now records
structurally (transform / matching / semantics / output, each clock
running only while its phase runs), plus the static table cost, the
program-level wall-vs-CPU split, and the metrics snapshot for the run.

The report also *checks* the timing invariants it prints: a negative
phase time or a phase sum exceeding the function's wall time lands in
``violations`` — an empty list is the machine-checkable "no clamping
happened" guarantee the CI profile-smoke job asserts on.
"""

from __future__ import annotations

import importlib.util
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .metrics import REGISTRY

#: Per-function slack allowed when checking ``sum(phases) <= wall``,
#: seconds.  Clock reads are ~100 ns; this covers float summation noise
#: without masking a real attribution bug.
INVARIANT_SLOP = 1e-6

PHASES = ("transform", "matching", "semantics", "output")


@dataclass
class FunctionProfile:
    """One function's compile profile (all times in seconds)."""

    name: str
    tier: str = "packed"
    statements: int = 0
    shifts: int = 0
    reductions: int = 0
    chain_reductions: int = 0
    instructions: int = 0
    times: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "tier": self.tier,
            "statements": self.statements, "shifts": self.shifts,
            "reductions": self.reductions,
            "chain_reductions": self.chain_reductions,
            "instructions": self.instructions,
            "times": {k: round(v, 9) for k, v in self.times.items()},
        }


@dataclass
class ProfileReport:
    """Everything ``ggcc profile`` prints, in one JSON-able object."""

    source: str
    backend: str
    jobs: int
    static: Dict[str, Any] = field(default_factory=dict)
    functions: List[FunctionProfile] = field(default_factory=list)
    totals: Dict[str, float] = field(default_factory=dict)
    program: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source, "backend": self.backend,
            "jobs": self.jobs,
            "static": self.static,
            "functions": [fn.to_dict() for fn in self.functions],
            "totals": {k: round(v, 9) for k, v in self.totals.items()},
            "program": self.program,
            "metrics": self.metrics,
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    # ------------------------------------------------------------ rendering
    def format_human(self) -> str:
        def ms(value: float) -> str:
            return f"{value * 1e3:9.3f}"

        lines = [
            f"profile: {self.source} "
            f"(backend={self.backend}, jobs={self.jobs})",
        ]
        static = self.static
        if static:
            cache = static.get("cache")
            detail = f"tables {static.get('table_source', '?')}"
            if cache:
                steps = ", ".join(
                    f"{step} {cache[f'{step}_seconds'] * 1e3:.1f}ms"
                    for step in ("load", "build", "store")
                    if cache.get(f"{step}_seconds")
                )
                detail += f"; cache {'hit' if cache['hit'] else 'miss'}"
                if steps:
                    detail += f" ({steps})"
                if cache.get("corruption"):
                    detail += f"; quarantined: {cache['corruption']}"
            lines.append(
                f"static phase: {static.get('seconds', 0.0):.3f} s ({detail})"
            )
            tables = static.get("tables")
            if tables:
                lines.append(
                    f"table sizes: packed {tables['packed_entries']} entries "
                    f"({tables['packed_bytes']} bytes)"
                )
        if self.functions:
            header = (
                f"  {'function':<20} {'tier':<7} {'stmts':>5} "
                f"{'shifts':>7} {'reduces':>8} "
                + " ".join(f"{phase + ' ms':>12}" for phase in PHASES)
                + f" {'total ms':>12} {'wall ms':>12}"
            )
            lines.append(header)
            for fn in self.functions:
                times = fn.times
                lines.append(
                    f"  {fn.name:<20} {fn.tier:<7} {fn.statements:>5} "
                    f"{fn.shifts:>7} {fn.reductions:>8} "
                    + " ".join(
                        f"{ms(times.get(phase, 0.0)):>12}"
                        for phase in PHASES
                    )
                    + f" {ms(times.get('total', 0.0)):>12}"
                    + f" {ms(times.get('wall', 0.0)):>12}"
                )
        totals = self.totals
        if totals:
            share = " ".join(
                f"{phase} {totals.get(phase + '_fraction', 0.0) * 100:.1f}%"
                for phase in PHASES
            )
            lines.append(f"phase shares (of attributed time): {share}")
        program = self.program
        if program:
            lines.append(
                f"program: wall {program.get('wall_seconds', 0.0):.4f} s, "
                f"cpu {program.get('cpu_seconds', 0.0):.4f} s, "
                f"{program.get('functions', 0)} function(s), "
                f"{program.get('instructions', 0)} instruction(s)"
            )
        if self.violations:
            lines.append("TIMING INVARIANT VIOLATIONS:")
            lines.extend(f"  - {violation}" for violation in self.violations)
        else:
            lines.append(
                "invariants: ok (phases non-negative, sum <= wall, no clamps)"
            )
        return "\n".join(lines)


def _check_invariants(fn: FunctionProfile) -> List[str]:
    problems = []
    for phase in PHASES:
        value = fn.times.get(phase, 0.0)
        if value < 0.0:
            problems.append(
                f"{fn.name}: negative {phase} time {value:.9f}s"
            )
    total = fn.times.get("total", 0.0)
    wall = fn.times.get("wall", 0.0)
    if wall and total > wall + INVARIANT_SLOP:
        problems.append(
            f"{fn.name}: phase sum {total:.9f}s exceeds wall {wall:.9f}s"
        )
    return problems


def profile_program(
    source: str,
    label: str = "<source>",
    backend: str = "gg",
    jobs: int = 1,
    resilient: bool = False,
    generator=None,
    **generator_options: Any,
):
    """Compile *source* under full metrics and build a ProfileReport.

    Returns ``(report, assembly)`` so callers (tests, the CLI with
    ``--run``-style follow-ups) can keep the compiled program.  The
    global metrics registry is force-enabled for the duration; whatever
    it held beforehand is preserved and restored.
    """
    from ..codegen.driver import GrahamGlanvilleCodeGenerator
    from ..compile import compile_program

    was_enabled = REGISTRY.enabled
    held = REGISTRY.drain()
    REGISTRY.enabled = True
    try:
        if backend == "gg" and generator is None:
            generator = GrahamGlanvilleCodeGenerator(**generator_options)
        assembly = compile_program(
            source, backend=backend, generator=generator,
            jobs=jobs, resilient=resilient,
        )
        snapshot = REGISTRY.drain()
    finally:
        REGISTRY.enabled = was_enabled
        REGISTRY.absorb(held)
    REGISTRY.absorb(snapshot)

    report = ProfileReport(
        source=label, backend=backend, jobs=jobs,
    )
    if backend == "gg" and generator is not None:
        report.static = {
            "seconds": round(generator.static_seconds, 9),
            "table_source": generator.table_source,
        }
        if generator.cache_outcome is not None:
            cache = generator.cache_outcome.as_dict()
            cache = {
                key: (round(value, 9) if isinstance(value, float) else value)
                for key, value in cache.items()
            }
            report.static["cache"] = cache
        from ..tables.encode import measure_tables

        size = measure_tables(generator.tables)
        report.static["tables"] = {
            "packed_entries": size.packed_entries,
            "packed_bytes": size.packed_bytes,
        }

    phase_sums = {phase: 0.0 for phase in PHASES}
    for name in assembly.source_program.order:
        result = assembly.function_results[name]
        default_tier = generator.engine if backend == "gg" else backend
        fn = FunctionProfile(
            name=name, tier=assembly.tiers.get(name, default_tier),
        )
        times = getattr(result, "times", None)
        if times is not None:  # CompileResult
            fn.statements = result.statements
            fn.shifts = result.shifts
            fn.reductions = result.reductions
            fn.chain_reductions = result.chain_reductions
            fn.instructions = result.instruction_count
            fn.times = times.as_dict()
            for phase in PHASES:
                phase_sums[phase] += fn.times[phase]
        elif hasattr(result, "seconds"):  # PccResult
            fn.statements = getattr(result, "statements", 0)
            fn.instructions = result.instruction_count
            fn.times = {"total": result.seconds, "wall": result.seconds}
        else:  # FailedFunction
            fn.tier = "failed"
        report.functions.append(fn)
        report.violations.extend(_check_invariants(fn))

    attributed = sum(phase_sums.values())
    report.totals = dict(phase_sums)
    report.totals["attributed"] = attributed
    for phase in PHASES:
        report.totals[f"{phase}_fraction"] = (
            phase_sums[phase] / attributed if attributed else 0.0
        )
    report.program = {
        "wall_seconds": round(assembly.seconds, 9),
        "cpu_seconds": round(assembly.cpu_seconds, 9),
        "functions": len(assembly.source_program.order),
        "instructions": assembly.instruction_count,
        "failed": list(assembly.failed),
        "diagnostics": len(assembly.diagnostics),
    }
    report.metrics = snapshot.to_dict()
    if assembly.seconds and assembly.cpu_seconds > 0 and jobs == 1 \
            and assembly.cpu_seconds > assembly.seconds * (1 + 1e-3) \
            + INVARIANT_SLOP:
        report.violations.append(
            f"program: summed cpu {assembly.cpu_seconds:.9f}s exceeds "
            f"wall {assembly.seconds:.9f}s under jobs=1"
        )
    return report, assembly


def resolve_profile_source(path: str) -> Tuple[str, str]:
    """Find the C-subset source for a profile target.

    Accepts a ``.c`` file, ``-`` for stdin, an example module path like
    ``examples/quickstart`` (with or without the ``.py``), or any python
    file exposing a module-level ``SOURCE`` string.  Returns ``(source
    text, display label)``.
    """
    if path == "-":
        import sys

        return sys.stdin.read(), "<stdin>"
    candidates = [path]
    if not os.path.exists(path):
        candidates += [path + ".c", path + ".py"]
    for candidate in candidates:
        if not os.path.isfile(candidate):
            continue
        if candidate.endswith(".py"):
            spec = importlib.util.spec_from_file_location(
                "_profile_target", candidate
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            source = getattr(module, "SOURCE", None)
            if not isinstance(source, str):
                raise ValueError(
                    f"{candidate}: no module-level SOURCE string to profile"
                )
            return source, candidate
        with open(candidate) as handle:
            return handle.read(), candidate
    raise FileNotFoundError(
        f"no profile target at {path!r} (tried {', '.join(candidates)})"
    )
