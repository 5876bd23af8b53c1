"""Whole-program convenience pipeline.

Ties the substrates together: C-subset source -> IR forests -> either
code generator -> one assembly unit with global-data declarations ->
(optionally) the simulator.  This is the porcelain the examples, CLI,
benchmarks and differential tests use.

Every function compiles through the recovery ladder
(:func:`repro.codegen.recovery.compile_with_recovery`) inside one job
body, :func:`compile_functions`, on every path: serial, a batch worker,
the compile service's executor thread and its supervised workers.  Its
tier 0 is the plain compile.  ``resilient`` chooses no pipeline: a
strict compile (the default) contains failures exactly like a resilient
one and then raises :class:`repro.diag.CompileError` if any function
left the engine's tier.

``compile_program`` accepts ``jobs=`` to compile independent functions
concurrently: it submits function *batches* to a process-wide
keep-alive :class:`~repro.server.supervisor.WorkerSupervisor`, the
worker layer ``ggcc serve`` runs too.  Its workers make the constructed
tables resident once, in :func:`_pool_initializer` (free under fork, one
content-addressed table-cache load otherwise), so a job payload is only
the source text plus function names.  Reusing the keep-alive across
calls amortizes worker startup.  A worker that dies or hangs costs its
batch a re-dispatch, and a batch the supervisor gives up on a recompile
in the parent, never the program.

The reported ``seconds`` cover the *dynamic* phase only — the generator
(the static phase: grammar plus table construction) is built before the
clock starts, matching the paper's static/dynamic cost split.

Incremental mode (``incremental=True``, ``result_cache_dir=``, or
``REPRO_INCREMENTAL=1``) probes the content-addressed per-function
result cache (:mod:`repro.result_cache` — the same cache the compile
server uses) before dispatching anything: a function whose key (source
hash × table fingerprint × engine × peephole) already has a healthy
entry skips the workers entirely and is reassembled from cached text, so a
one-function edit recompiles one function.  Fresh results are stored on
the way out — except those the recovery ladder rescued, whose degraded
assembly must never answer a later healthy compile.
"""

from __future__ import annotations

import atexit
import gc
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .codegen.driver import (
    CompileResult, GrahamGlanvilleCodeGenerator, PhaseTimes,
)
from .codegen.recovery import (
    FailedFunction, LadderOutcome, compile_with_recovery,
)
from .diag import codes
from .diag.diagnostics import CompileError, Diagnostic, DiagnosticSink
from .frontend.cast import CType
from .frontend.lower import CompiledProgram
from .frontend.parser import parse
from .ir.tree import Forest
from .obs.metrics import REGISTRY as METRICS, set_metrics_enabled
from .obs.spans import current_recorder, span, uninstall_recorder
from .pcc.codegen import PccResult, pcc_compile
from .result_cache import ResultCache, table_fingerprint
from .sim.assembler import AsmProgram, assemble
from .tables.cache import cached_load
from .targets.base import Machine, Target
from .targets.registry import resolve_target


@dataclass
class ProgramAssembly:
    """A fully compiled program: per-function assembly plus data.

    Two timing fields with deliberately different semantics: ``seconds``
    is the *wall clock* of the dynamic phase as the caller experienced
    it (pool startup and scheduling included), while ``cpu_seconds`` is
    the *summed per-function compile time*, each function measured
    inside whichever worker ran it.  Under ``jobs=1`` they are nearly
    equal; under ``jobs>1`` wall shrinks while the summed cost does not
    — parallel speedup is ``cpu_seconds / seconds`` of the same run, or
    wall-vs-wall across runs, never a mix of the two.
    """

    source_program: CompiledProgram
    function_results: Dict[str, object] = field(default_factory=dict)
    backend: str = "gg"
    #: The target the assembly was emitted for; ``simulator()`` builds
    #: this target's CPU model.  ``None`` (a hand-built instance) means
    #: the historical default, VAX.
    target: Optional[Target] = None
    #: Wall-clock seconds of the dynamic phase: each function's lowering
    #: and compile; parsing and static table construction excluded.
    seconds: float = 0.0
    #: Summed per-function compile seconds (see class docstring).
    cpu_seconds: float = 0.0
    #: Structured events: ladder rescues, worker containment, table
    #: cache repairs (empty for a clean compile).
    diagnostics: DiagnosticSink = field(default_factory=DiagnosticSink)
    #: function name -> recovery-ladder tier for every function of a
    #: "gg" compile ("packed"/"dict" when no rescue ran — whichever
    #: engine the generator selected; "cache" for functions answered by
    #: the incremental result cache)
    tiers: Dict[str, str] = field(default_factory=dict)
    #: Incremental-mode accounting: functions answered from the result
    #: cache vs actually compiled.  Both zero when incremental is off.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def wall_seconds(self) -> float:
        """Alias for ``seconds``, for symmetry with ``cpu_seconds``."""
        return self.seconds

    @property
    def failed(self) -> List[str]:
        """Functions that failed every recovery rung, in source order."""
        return [
            name for name in self.source_program.order
            if getattr(self.function_results.get(name), "ok", True) is False
        ]

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def text(self) -> str:
        parts = [self.data_section()]
        for name in self.source_program.order:
            result = self.function_results[name]
            parts.append(result.assembly)  # type: ignore[attr-defined]
        return "\n".join(parts)

    def data_section(self) -> str:
        return data_section_of(self.source_program.globals)

    @property
    def instruction_count(self) -> int:
        return sum(
            r.instruction_count  # type: ignore[attr-defined]
            for r in self.function_results.values()
        )

    def assembled(self) -> AsmProgram:
        return assemble(self.text)

    def simulator(self, max_steps: int = 2_000_000):
        target = self.target or resolve_target("vax")
        return target.make_simulator(self.assembled(), max_steps=max_steps)

    def run_calls(self, calls, max_steps: int = 2_000_000):
        """Run ``(entry, args)`` pairs on one fresh simulator in order.

        Globals persist between calls, matching how the differential
        oracle (and the IR interpreter) sequence a whole program's
        functions.  Returns ``(vax, results)`` so callers can inspect
        final global state on the same machine.
        """
        vax = self.simulator(max_steps=max_steps)
        results = [vax.call(entry, list(args)) for entry, args in calls]
        return vax, results


def data_section_of(globals_: Dict[str, CType]) -> str:
    """A unit's ``.data`` block: one ``.comm`` per global, sized by its
    C type (*globals_* maps each name to its type, in source order)."""
    lines = ["\t.data"]
    for name, ctype in globals_.items():
        lines.append(f"\t.comm _{name},{ctype.size()}")
    return "\n".join(lines) + "\n"


@dataclass
class FunctionText:
    """A compiled function as a worker ships it home.

    Pickling a full :class:`CompileResult` drags the whole
    ``AssemblyUnit`` — every instruction object, operand tree and
    ordering stat — across the pipe, only for the parent to call
    ``.text()`` once.  The job body (:func:`compile_functions`) formats
    the assembly *in the worker*, right after each function compiles,
    and keeps this flat record instead: the text, plus the compact stats
    the driver, benchmarks and profile report actually read.  The
    ``times`` property keeps the ``result.times.wall`` accounting shape
    that :func:`_function_seconds` and the benchmarks rely on.
    """

    name: str
    assembly: str
    instruction_count: int = 0
    seconds: float = 0.0
    statements: int = 0
    shifts: int = 0
    reductions: int = 0
    chain_reductions: int = 0
    ok: bool = True

    @property
    def times(self) -> PhaseTimes:
        return PhaseTimes(wall=self.seconds)


@dataclass
class CachedFunction:
    """A function answered by the incremental result cache.

    Carries the cached assembly text and instruction count;
    ``seconds=0.0`` is deliberate — no compile ran, so the function
    contributes nothing to ``cpu_seconds`` and the cold/warm speedup
    stays an honest wall-time ratio.
    """

    name: str
    assembly: str
    instruction_count: int = 0
    seconds: float = 0.0
    ok: bool = True
    tier: str = "cache"


def _function_text(name: str, result: CompileResult) -> FunctionText:
    """Flatten a :class:`CompileResult` for the pipe."""
    return FunctionText(
        name=name,
        assembly=result.assembly,
        instruction_count=result.instruction_count,
        seconds=result.times.wall,
        statements=result.statements,
        shifts=result.shifts,
        reductions=result.reductions,
        chain_reductions=result.chain_reductions,
    )


def compile_program(
    source: str,
    backend: str = "gg",
    generator: Optional[GrahamGlanvilleCodeGenerator] = None,
    jobs: int = 1,
    parallel: str = "process",
    resilient: bool = False,
    timeout: Optional[float] = None,
    engine: Optional[str] = None,
    incremental: Optional[bool] = None,
    result_cache: Optional[ResultCache] = None,
    result_cache_dir: Optional[str] = None,
    target: Optional[object] = None,
) -> ProgramAssembly:
    """Compile C-subset source with the chosen backend ("gg" or "pcc").

    ``target`` names the machine to compile for (a registry name like
    ``"vax"``/``"r32"`` or a :class:`~repro.targets.base.Target`); the
    default honours ``$REPRO_TARGET`` and falls back to VAX.  When a
    ``generator`` is handed in it must have been built for the same
    target.  The ``"pcc"`` backend emits VAX assembly only and refuses
    targets without PCC support.

    ``engine`` picks the matcher drive loop (``"packed"`` or ``"dict"``)
    when no ``generator`` is handed in; the default honours
    ``$REPRO_MATCHER`` and falls back to packed.

    ``incremental=True`` probes the content-addressed result cache per
    function before compiling anything ("gg" only): hits are reassembled
    from cached assembly text, misses flow to the serial or pool path
    ``jobs`` selects, and fresh *healthy* results are stored for next
    time.  ``result_cache`` hands in a
    :class:`~repro.result_cache.ResultCache` (it must match the
    generator's tables and engine); ``result_cache_dir`` persists
    entries across processes.  Passing either implies
    ``incremental=True``; with all three unset, ``$REPRO_INCREMENTAL``
    decides (default off).  Hit/miss counts land in ``out.cache_hits``
    / ``out.cache_misses`` and hit functions get tier ``"cache"``.

    ``jobs`` > 1 compiles independent functions concurrently ("gg" only)
    by submitting function batches to a process-wide keep-alive
    :class:`~repro.server.supervisor.WorkerSupervisor` (width ``jobs``,
    clamped to the available CPUs) whose workers hold the tables
    resident from their initializer on; consecutive calls reuse it while
    the generator options, width and metrics flag match.  Results land
    in source order, so the emitted assembly is byte-identical to
    ``jobs=1``.  ``parallel`` names the worker kind and accepts only
    ``"process"``, the one kind there is.  Call it from sync code: the
    keep-alive drives its supervisor on a private event loop.

    Every function goes through the recovery ladder
    (:mod:`repro.codegen.recovery`) and worker failures are always
    contained: a function that blocks, or whose batch's worker dies or
    (``jobs`` > 1 only) outlives ``timeout`` seconds per function,
    becomes a diagnostic in ``out.diagnostics`` plus a rescued,
    re-dispatched, recompiled or failed entry in ``function_results`` —
    the rest of the program still compiles.  ``resilient`` only decides
    what happens next: ``True`` returns the contained result, while the
    default raises :class:`~repro.diag.CompileError` for the first
    function a rescue rung produced or that failed outright.
    """
    if backend not in ("gg", "pcc"):
        raise ValueError(f"unknown backend {backend!r}")
    if parallel != "process":
        raise ValueError(
            f"unknown parallel mode {parallel!r}; only 'process' exists"
        )
    if backend == "gg" and generator is not None:
        if (
            target is not None
            and resolve_target(target).name != generator.target.name
        ):
            raise ValueError(
                f"generator was built for target "
                f"{generator.target.name!r}, not "
                f"{resolve_target(target).name!r}"
            )
        gen = generator
        tgt = gen.target
    else:
        tgt = resolve_target(target)
        if backend == "gg":
            # Build the generator *before* starting the clock: grammar
            # and table construction are the static phase and must not
            # inflate the reported per-program (dynamic) compile seconds.
            gen = GrahamGlanvilleCodeGenerator(target=tgt, engine=engine)
        elif not tgt.supports_pcc:
            raise ValueError(
                f"backend 'pcc' emits VAX assembly only; target "
                f"{tgt.name!r} does not support it"
            )

    with span("frontend.parse", cat="phase"):
        # Parse once (memoized): the incremental probe derives cache
        # keys from the AST, and each function is lowered only when it
        # is compiled (:func:`lowered`), so a warm recompile of
        # unchanged source lowers nothing.
        ast, program = _parsed_program(source, tgt.machine)

    started = time.perf_counter()
    out = ProgramAssembly(source_program=program, backend=backend, target=tgt)
    #: The record that makes a strict compile raise: the first function,
    #: in source order, that left the engine's tier or failed.
    cause: Optional[Diagnostic] = None
    with span("compile_program", cat="program", backend=backend,
              jobs=jobs):
        if backend == "gg":
            _report_table_cache(gen, out.diagnostics)
            cache: Optional[ResultCache] = None
            keys: Dict[str, str] = {}
            pending = list(program.order)
            if _incremental_enabled(
                incremental, result_cache, result_cache_dir
            ):
                cache = _resolve_result_cache(
                    gen, result_cache, result_cache_dir
                )
                with span("compile.cache_probe", cat="program"):
                    keys = cache.keys_for(ast)
                    pending = _serve_cache_hits(cache, keys, program, out)
                out.cache_hits = len(program.order) - len(pending)
                out.cache_misses = len(pending)
                METRICS.inc("compile.incremental.hits", out.cache_hits)
                METRICS.inc("compile.incremental.misses", out.cache_misses)
            if jobs > 1 and len(pending) > 1:
                outcomes = _compile_functions_parallel(
                    gen, source, program, pending, jobs, timeout,
                    out.diagnostics,
                )
            else:
                outcomes = compile_functions(gen, program, pending)
            for outcome in outcomes:
                out.function_results[outcome.name] = outcome.result
                out.tiers[outcome.name] = outcome.tier
                out.diagnostics.extend(outcome.diagnostics)
                cause = cause or outcome.cause
            if cache is not None and pending:
                _store_fresh_results(cache, keys, pending, out)
            # Cache hits land first, fresh results after — normalize to
            # source order so jobs= and incremental= never change the
            # result iteration order.
            out.function_results = {
                name: out.function_results[name] for name in program.order
            }
        else:
            for name in program.order:
                try:
                    out.function_results[name] = pcc_compile(
                        lowered(program, name)
                    )
                except Exception as exc:
                    failure = out.diagnostics.add(
                        codes.FN_FAILED,
                        f"pcc backend failed: {exc!r}",
                        function=name,
                    )
                    out.function_results[name] = FailedFunction(
                        name=name,
                        reason=f"{type(exc).__name__}: {exc}",
                    )
                    cause = cause or failure
    out.seconds = time.perf_counter() - started
    out.cpu_seconds = sum(
        _function_seconds(result)
        for result in out.function_results.values()
    )
    check_strict(cause, resilient)
    return out


def check_strict(cause: Optional[Diagnostic], resilient: bool) -> None:
    """Strictness, the one check on a contained compile's result: raise
    :class:`~repro.diag.CompileError` for *cause* — the diagnostic that
    pushed the first function off the engine's tier — unless the caller
    accepts rescued functions."""
    if cause is not None and not resilient:
        raise CompileError(cause)


def _report_table_cache(
    gen: GrahamGlanvilleCodeGenerator, diagnostics: DiagnosticSink
) -> None:
    """Surface what the generator's table-cache consultation repaired:
    a rejected entry (CACHE-CORRUPT) or a retried store (CACHE-RETRY)."""
    outcome = gen.cache_outcome
    if outcome is None:
        return
    if outcome.corruption:
        diagnostics.add(
            codes.CACHE_CORRUPT,
            f"table-cache entry rejected ({outcome.corruption}); "
            f"cold build",
            quarantined=outcome.quarantined,
            key=outcome.key,
        )
    if outcome.store_retries:
        diagnostics.add(
            codes.CACHE_RETRY,
            f"table-cache store took {outcome.store_retries + 1} attempts",
            key=outcome.key,
        )


def _function_seconds(result: object) -> float:
    """One function's compile seconds, as measured inside whichever
    worker produced it (0.0 for results that carry no timing)."""
    times = getattr(result, "times", None)  # CompileResult
    if times is not None:
        return getattr(times, "wall", 0.0) or times.total
    return getattr(result, "seconds", 0.0)  # PccResult; FailedFunction: 0


#: Parent-side parse memo, the mirror of the workers'
#: ``_WORKER_PROGRAMS``: a long-lived driver (benchmarks, a watch loop)
#: resubmits the same source text to ``compile_program``, and re-parsing
#: it dwarfs the incremental probe.
#: ASTs are read-only downstream, so sharing is safe; the bound keeps a
#: source-cycling caller from accumulating.
_PARSED_LIMIT = 8
_PARSED_PROGRAMS: "OrderedDict[tuple, tuple]" = OrderedDict()


def _parsed_program(source: str, machine: Optional[Machine] = None) -> tuple:
    """``(ast, on-demand program)`` for *source*, memoized (bounded).

    The memo is keyed by ``(source, machine name)`` — two targets must
    never share a program, even while their frame layouts happen to
    agree."""
    if machine is None:
        machine = resolve_target(None).machine
    key = (source, machine.name)
    hit = _PARSED_PROGRAMS.get(key)
    if hit is not None:
        _PARSED_PROGRAMS.move_to_end(key)
        return hit
    ast = parse(source)
    program = CompiledProgram(ast, machine)
    while len(_PARSED_PROGRAMS) >= _PARSED_LIMIT:
        _PARSED_PROGRAMS.popitem(last=False)
    _PARSED_PROGRAMS[key] = (ast, program)
    return ast, program


def lowered(program: CompiledProgram, name: str) -> Forest:
    """Function *name*'s forest, lowered now when *program* is on demand:
    the one place the compile path lowers, so each function is lowered
    only when it is compiled and its IR is dropped with its compile."""
    with span("frontend.lower", cat="phase", function=name):
        return program.forest(name)


def compile_functions(
    generator: GrahamGlanvilleCodeGenerator,
    program: CompiledProgram,
    names: Sequence[str],
    flatten: bool = False,
) -> List[LadderOutcome]:
    """The one job body: ladder-compile *names* of the on-demand
    *program* with *generator*, one :class:`LadderOutcome` per name.

    It runs on every path: the serial one (and the parent's recompile of
    a lost batch) here, the service's executor thread and every
    supervised worker through :func:`repro.server.supervisor._run_request`.
    ``flatten`` makes each result a :class:`FunctionText` as soon as its
    function compiles, so a job never holds a batch's instruction
    graphs; the serial path keeps :class:`CompileResult` for the profile
    and listing readers.  Strictness is the caller's
    (:func:`check_strict`).
    """
    outcomes = []
    for name in names:
        _chaos_hooks(name)
        outcome = compile_with_recovery(generator, lowered(program, name))
        if flatten and isinstance(outcome.result, CompileResult):
            outcome.result = _function_text(name, outcome.result)
        outcomes.append(outcome)
    return outcomes


# ------------------------------------------------- incremental compilation
ENV_INCREMENTAL = "REPRO_INCREMENTAL"

#: Process-wide result caches, one per (table fingerprint, engine,
#: directory) — the same sharing shape as the batch keep-alive, so
#: repeated ``compile_program(incremental=True)`` calls in one process
#: hit the in-memory tier without the caller threading a cache through.
_RESULT_CACHES: Dict[tuple, ResultCache] = {}


def _incremental_enabled(
    incremental: Optional[bool],
    result_cache: Optional[ResultCache],
    result_cache_dir: Optional[str],
) -> bool:
    if incremental is not None:
        return incremental
    if result_cache is not None or result_cache_dir is not None:
        return True
    value = os.environ.get(ENV_INCREMENTAL)
    return value is not None and value.strip().lower() not in _FALSEY


def _result_fingerprint(gen: GrahamGlanvilleCodeGenerator) -> str:
    """*gen*'s table fingerprint, memoized on the generator — hashing
    the packed tables is milliseconds, and the probe runs per call."""
    fingerprint = getattr(gen, "_result_fingerprint", None)
    if fingerprint is None:
        fingerprint = table_fingerprint(gen)
        gen._result_fingerprint = fingerprint
    return fingerprint


def incremental_result_cache(
    gen: GrahamGlanvilleCodeGenerator,
    directory: Optional[str] = None,
) -> ResultCache:
    """The process-wide :class:`ResultCache` for *gen*'s tables+engine."""
    key = (_result_fingerprint(gen), gen.engine, directory)
    cache = _RESULT_CACHES.get(key)
    if cache is None:
        cache = ResultCache(key[0], gen.engine, directory=directory)
        _RESULT_CACHES[key] = cache
    return cache


def reset_result_caches() -> None:
    """Drop the process-wide result caches and parse memo (tests)."""
    _RESULT_CACHES.clear()
    _PARSED_PROGRAMS.clear()


def _resolve_result_cache(
    gen: GrahamGlanvilleCodeGenerator,
    result_cache: Optional[ResultCache],
    directory: Optional[str],
) -> ResultCache:
    if result_cache is not None:
        if (
            result_cache.fingerprint != _result_fingerprint(gen)
            or result_cache.engine != gen.engine
        ):
            raise ValueError(
                "result_cache was created for a different table "
                "fingerprint or matcher engine than this generator's"
            )
        return result_cache
    return incremental_result_cache(gen, directory)


def _serve_cache_hits(
    cache: ResultCache,
    keys: Dict[str, str],
    program: CompiledProgram,
    out: ProgramAssembly,
) -> List[str]:
    """Fill *out* from cached entries by the cache's one probe rule
    (:meth:`ResultCache.probe`); returns the miss list in source
    order."""
    entries, pending = cache.probe(keys, program.order)
    for name, entry in entries.items():
        out.function_results[name] = CachedFunction(
            name=name,
            assembly=entry["assembly"],
            instruction_count=entry.get("instructions", 0),
        )
        out.tiers[name] = "cache"
    return pending


def _store_fresh_results(
    cache: ResultCache,
    keys: Dict[str, str],
    names: Sequence[str],
    out: ProgramAssembly,
) -> None:
    """Store the functions just compiled through the one healthy-only
    gate (:meth:`ResultCache.put_healthy`): a ladder rescue, a failure,
    or any function a diagnostic names — a worker-containment recovery
    included — costs a later cache miss instead of ever poisoning the
    cache with degraded assembly."""
    flagged = {
        diag.function for diag in out.diagnostics.records() if diag.function
    }
    for name in names:
        result = out.function_results[name]
        cache.put_healthy(
            keys[name],
            name,
            result.assembly,  # type: ignore[attr-defined]
            tier=out.tiers[name],
            diagnosed=name in flagged,
            cpu_seconds=_function_seconds(result),
            instructions=getattr(result, "instruction_count", 0),
        )


# ---------------------------------------------------------- worker tables
def _generator_options(gen: GrahamGlanvilleCodeGenerator) -> Dict[str, object]:
    """The constructor options a process worker needs to recreate *gen*."""
    return {
        "target": gen.target.name,
        "reversed_ops": gen.reversed_ops,
        "peephole": gen.peephole,
        "engine": gen.engine,
        "rescue_bridges": gen.rescue_bridges,
    }


def _options_key(options: Dict[str, object]) -> tuple:
    return tuple(sorted(options.items()))


#: Parent-side publication for fork-started workers: the generator (and
#: the parsed program of the call that started the batch keep-alive)
#: that forked workers inherit through copy-on-write memory, so their
#: initializer adopts the constructed tables without loading anything.
#: Spawn-started workers re-import this module and see ``None`` — they
#: take the content-addressed cache-load path instead.
_PARENT_STATE: Optional[tuple] = None     # (options key, generator)
_PARENT_PROGRAM: Optional[tuple] = None   # (source text, CompiledProgram)

#: Worker-side state, installed once per process by _pool_initializer.
_WORKER_GENERATOR: Optional[tuple] = None  # (options key, generator)
_WORKER_PROGRAMS: Dict[str, CompiledProgram] = {}

#: Parsed programs a worker keeps around: the compile server cycles
#: through many sources, a one-shot driver uses one.
_WORKER_PROGRAM_LIMIT = 8

#: Chaos hook: a truthy value makes every worker initializer raise —
#: exactly what a cache miss plus a table-builder failure inside the
#: worker looks like to the supervisor (the worker dies before any job
#: runs).
ENV_CHAOS_INIT_FAIL = "REPRO_CHAOS_POOL_INIT_FAIL"


def _pool_initializer(
    options: Dict[str, object],
    metrics_on: bool,
    cache_key: Optional[str] = None,
) -> None:
    """Runs once per worker process: make the parse tables resident.

    Preference order: (1) adopt the fork-inherited parent generator —
    the constructed tables arrived in copy-on-write memory, nothing to
    load; (2) load the constructed tables by the content-addressed
    *cache_key* the parent computed, skipping grammar-text regeneration
    and key derivation entirely; (3) cold-build (and store for the next
    worker).  After this, job payloads never carry options or tables.
    """
    global _WORKER_GENERATOR
    # Each job opens its own metrics window and, when asked, its own
    # recorder (supervisor._run_request): a fork-inherited one would
    # swallow the job's spans.
    set_metrics_enabled(metrics_on)
    uninstall_recorder()
    if os.environ.get(ENV_CHAOS_INIT_FAIL):
        raise RuntimeError(
            f"{ENV_CHAOS_INIT_FAIL}: injected pool-initializer failure"
        )
    key = _options_key(options)
    if _PARENT_STATE is not None and _PARENT_STATE[0] == key:
        _WORKER_GENERATOR = _PARENT_STATE
        return
    generator = None
    if cache_key is not None:
        payload, _ = cached_load(cache_key)
        if payload is not None:
            bundle, tables = payload
            generator = GrahamGlanvilleCodeGenerator(
                bundle=bundle, tables=tables, **options
            )
    if generator is None:
        generator = GrahamGlanvilleCodeGenerator(**options)
    _WORKER_GENERATOR = (key, generator)
    # The tables (and everything imported) live for the whole worker:
    # move them to the permanent generation so no collection ever scans
    # them again — and, post-fork, so the cycle detector stops touching
    # inherited pages and faulting copy-on-write copies.
    gc.collect()
    gc.freeze()


def _worker_program(source: str) -> tuple:
    """This worker's ``(on-demand program, generator)`` for *source*.

    The generator came from the worker initializer; parsing is memoized
    per source text (bounded), with the keep-alive-starting call's
    program adopted outright when fork inheritance delivered it.  A
    function is lowered only when the worker compiles it
    (:func:`lowered`).
    """
    if _WORKER_GENERATOR is None:
        raise RuntimeError("worker used before its initializer ran")
    generator = _WORKER_GENERATOR[1]
    program = _WORKER_PROGRAMS.get(source)
    if program is None:
        if _PARENT_PROGRAM is not None and _PARENT_PROGRAM[0] == source:
            program = _PARENT_PROGRAM[1]
        else:
            program = CompiledProgram(parse(source), generator.machine)
        while len(_WORKER_PROGRAMS) >= _WORKER_PROGRAM_LIMIT:
            _WORKER_PROGRAMS.pop(next(iter(_WORKER_PROGRAMS)))
        _WORKER_PROGRAMS[source] = program
    return program, generator


def shared_table_initargs(
    generator: GrahamGlanvilleCodeGenerator,
) -> Tuple[Dict[str, object], bool, Optional[str]]:
    """Publish *generator* for fork copy-on-write adoption and return
    the ``(options, metrics flag, cache_key)`` triple that
    :func:`_pool_initializer` wants in a worker process: fork
    inheritance when available, the content-addressed cache load
    otherwise."""
    global _PARENT_STATE
    options = _generator_options(generator)
    _PARENT_STATE = (_options_key(options), generator)
    cache_key = None
    if generator.cache_outcome is not None:
        cache_key = generator.cache_outcome.key
    return options, METRICS.enabled, cache_key


_FALSEY = {"0", "off", "false", "no"}


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _effective_width(jobs: int) -> int:
    """Fast-path worker count: ``jobs`` clamped to the available CPUs.

    Compilation is CPU-bound, so workers beyond the CPU count cannot
    add throughput — they only add fork cost, memory, and scheduler
    churn (measurably so on small machines).
    """
    return max(1, min(jobs, available_cpus()))


# ------------------------------------------------------- batch keep-alive
class _KeepAlive:
    """The batch driver's :class:`~repro.server.supervisor.WorkerSupervisor`
    and the private event loop that drives it from sync code; the loop
    runs only while a call is in flight.  Health probes are off, and a
    job has a deadline only when the caller gives a ``timeout``."""

    def __init__(
        self, key: tuple, width: int, gen: GrahamGlanvilleCodeGenerator
    ) -> None:
        # Imported here: a serial compile never forks, and must not pay
        # for the event loop and the service stack.
        import asyncio
        from .server.supervisor import WorkerSupervisor

        self.key = key  # generator options, width, metrics flag
        self.loop = asyncio.new_event_loop()
        self.supervisor = WorkerSupervisor(
            width, gen, job_timeout=None, probe_interval=None
        )
        try:
            self.loop.run_until_complete(self.supervisor.start())
        except BaseException:
            self.close()
            raise

    def run(
        self,
        request: Dict[str, object],
        batches: Sequence[tuple],
        timeout: Optional[float],
    ) -> list:
        """One ``JobOutcome`` per batch, in order; a batch's deadline is
        ``timeout`` per function."""
        import asyncio

        submits = [
            self.loop.create_task(self.supervisor.submit(
                request, list(batch),
                timeout=None if timeout is None else timeout * len(batch),
            ))
            for batch in batches
        ]
        gathered = asyncio.gather(*submits)
        try:
            return self.loop.run_until_complete(gathered)
        except BaseException:
            # close() settles the jobs still in flight; their end is moot
            gathered.add_done_callback(
                lambda done: done.cancelled() or done.exception()
            )
            raise

    def close(self) -> None:
        """Cancel whatever is still in flight, stop the supervisor and
        close the loop; returns once every worker has exited."""
        import asyncio

        loop = self.loop
        try:
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.run_until_complete(self.supervisor.stop())
        finally:
            loop.close()


#: The process-wide batch keep-alive.
_KEEPALIVE: Optional[_KeepAlive] = None


def _keepalive(
    gen: GrahamGlanvilleCodeGenerator,
    jobs: int,
    source: str,
    program: CompiledProgram,
) -> _KeepAlive:
    """The keep-alive for *gen* at width ``jobs``, reused while its key
    matches, else stopped and rebuilt — this call's ``(source, program)``
    published for fork adoption first."""
    global _KEEPALIVE, _PARENT_PROGRAM
    width = _effective_width(jobs)
    key = (_options_key(_generator_options(gen)), width, METRICS.enabled)
    if _KEEPALIVE is not None and _KEEPALIVE.key != key:
        shutdown_worker_pools()
    if _KEEPALIVE is None:
        _PARENT_PROGRAM = (source, program)
        _KEEPALIVE = _KeepAlive(key, width, gen)
    return _KEEPALIVE


def shutdown_worker_pools() -> None:
    """Stop the batch keep-alive's supervisor (tests, benchmarks,
    atexit); returns only after its workers have exited."""
    global _KEEPALIVE
    workers, _KEEPALIVE = _KEEPALIVE, None
    if workers is not None:
        workers.close()


atexit.register(shutdown_worker_pools)


#: Dispatch batches per worker: enough batches that an uneven function
#: mix load-balances across workers, few enough that per-job overhead
#: (payload pickling, the per-job metrics and span drain) amortizes
#: over several functions.
BATCHES_PER_WORKER = 2


def plan_batches(
    program: CompiledProgram,
    names: Sequence[str],
    jobs: int,
    batches_per_worker: int = BATCHES_PER_WORKER,
) -> List[tuple]:
    """Chunk *names* into contiguous, roughly weight-balanced batches.

    The weight is each function's AST node count — it tracks the
    statement trees the matcher works through, and the parent knows it
    without lowering anything — so a giant function does not drag four
    others into its task while trivial functions each pay full dispatch
    overhead.  Source order is preserved within and across batches, so
    reassembling batch results in dispatch order is already source
    order.

    The cut rule is a *dynamic fair share*: a batch closes once it holds
    ``remaining weight / remaining slots`` — recomputed after every cut
    — rather than a fixed ``total/target`` quota.  A fixed quota skews
    under front-loaded weight: each heavy head batch overshoots it, the
    quota never adapts, and the entire light tail lands in one oversized
    final batch while the other workers idle.  The fair share shrinks as
    heavy batches close, so the tail still splits across the remaining
    slots.  A batch also force-closes when the names left are exactly
    enough to give every remaining slot one function, so the batch count
    always reaches the target when enough names exist.
    """
    weights = [max(1, program.node_count(name)) for name in names]
    target_batches = max(1, min(len(names), jobs * batches_per_worker))
    remaining = float(sum(weights))
    slots = target_batches
    batches: List[tuple] = []
    current: List[str] = []
    current_weight = 0.0
    for index, (name, weight) in enumerate(zip(names, weights)):
        current.append(name)
        current_weight += weight
        names_left = len(names) - index - 1
        if slots <= 1 or not names_left:
            continue
        if current_weight >= remaining / slots or names_left < slots:
            batches.append(tuple(current))
            remaining -= current_weight
            current = []
            current_weight = 0.0
            slots -= 1
    if current:
        batches.append(tuple(current))
    return batches


def _compile_functions_parallel(
    gen: GrahamGlanvilleCodeGenerator,
    source: str,
    program: CompiledProgram,
    names: List[str],
    jobs: int,
    timeout: Optional[float],
    diagnostics: DiagnosticSink,
) -> List[LadderOutcome]:
    """Fan *names* over the keep-alive's workers, one ``(source,
    names)`` job per weight-balanced batch; one outcome per name, in
    order.  Each job's metrics delta and spans are absorbed here.

    Containment is the supervisor's: a batch whose worker dies or
    outlives ``timeout`` seconds per function is re-dispatched to a
    restarted worker, and only a batch it gives up on is recompiled in
    the parent.  A dispatch that raises — ``KeyboardInterrupt``
    included — stops the keep-alive first, so no worker leaks.  A
    :class:`~repro.frontend.LowerError` is the source's fault: the
    keep-alive stays, and the first one in source order is raised once
    every batch is in.
    """
    workers = _keepalive(gen, jobs, source, program)
    batches = plan_batches(program, names, workers.supervisor.workers)
    recorder = current_recorder()
    request = {"source": source, "spans": recorder is not None}
    try:
        finished = workers.run(request, batches, timeout)
    except BaseException:
        shutdown_worker_pools()
        raise
    outcomes: Dict[str, LadderOutcome] = {}
    lost: List[str] = []
    error: Optional[BaseException] = None
    for batch, job in zip(batches, finished):
        METRICS.absorb(job.metrics)
        if recorder is not None:
            recorder.absorb(job.spans)
        _report_worker_failures(job, batch, timeout, diagnostics)
        if job.failed:
            lost.extend(batch)
        elif job.error is not None:
            error = error or job.error
        else:
            outcomes.update(zip(batch, job.functions))
    if error is not None:
        raise error
    outcomes.update(zip(lost, compile_functions(gen, program, lost)))
    return [outcomes[name] for name in names]


def _report_worker_failures(
    job,
    batch: tuple,
    timeout: Optional[float],
    diagnostics: DiagnosticSink,
) -> None:
    """One WORKER-CRASH (dead worker) or WORKER-TIMEOUT (missed deadline)
    per failed attempt of *job* and function of its *batch*: a warning
    when a retry recovered the batch, an error when the parent
    recompiles it."""
    if job.failed:
        severity, then = codes.ERROR, "recovering the batch in the parent"
    else:
        severity, then = codes.WARNING, "the batch was re-dispatched"
    for attempt, kind in enumerate(job.failures, start=1):
        if kind == "hang":
            code, context = codes.WORKER_TIMEOUT, {"timeout_seconds": timeout}
            what = (f"worker exceeded the {timeout:.3g}s per-function "
                    f"timeout on a batch of {len(batch)}")
        else:
            code, context = codes.WORKER_CRASH, {}
            what = f"worker died on a batch of {len(batch)}"
        for name in batch:
            diagnostics.add(
                code, f"{what} (attempt {attempt}); {then}",
                severity=severity, function=name, attempt=attempt,
                kind=kind, **context,
            )


# --------------------------------------------------------------- resilience
def _chaos_hooks(name: str) -> None:
    """Fault-injection points for the chaos harness, run per function by
    the job body in worker processes only (in the parent, a lost batch's
    recompile is the recovery under test).

    ``REPRO_CHAOS_KILL_FN=f,g`` hard-kills the worker compiling a listed
    function (``os._exit``, no cleanup — exactly what a segfault looks
    like to the supervisor).  ``REPRO_CHAOS_HANG_FN=f:5`` sleeps the
    listed functions for the given seconds (default 30) to trip the
    timeout.  Workers read the environment they were forked with, so a
    harness that sets either variable must retire the keep-alive first.
    """
    if _WORKER_GENERATOR is None:
        return
    kill = os.environ.get("REPRO_CHAOS_KILL_FN", "")
    if kill and name in kill.split(","):
        os._exit(17)
    hang = os.environ.get("REPRO_CHAOS_HANG_FN", "")
    if hang:
        spec, _, seconds = hang.partition(":")
        if name in spec.split(","):
            time.sleep(float(seconds) if seconds else 30.0)


def run_program(
    source: str,
    entry: str,
    args: Sequence[int] = (),
    backend: str = "gg",
    globals_init: Optional[Dict[str, int]] = None,
    generator: Optional[GrahamGlanvilleCodeGenerator] = None,
    target: Optional[object] = None,
) -> int:
    """Compile and execute on the target's simulator; returns the
    entry's r0."""
    assembly = compile_program(source, backend, generator, target=target)
    cpu = assembly.simulator()
    if globals_init:
        for name, value in globals_init.items():
            cpu.set_global(name, value)
    return cpu.call(entry, list(args))
