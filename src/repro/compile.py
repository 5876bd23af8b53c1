"""Whole-program convenience pipeline.

Ties the substrates together: C-subset source -> IR forests -> either
code generator -> one assembly unit with global-data declarations ->
(optionally) the simulator.  This is the porcelain the examples, CLI,
benchmarks and differential tests use.

Every function compiles through the recovery ladder
(:func:`repro.codegen.recovery.compile_with_recovery`) on every path —
serial, pool worker, parent-side recovery — whose tier 0 is the plain
compile.  ``resilient`` chooses no pipeline: a strict compile (the
default) contains failures exactly like a resilient one and then raises
:class:`repro.diag.CompileError` if any function left the engine's tier.

``compile_program`` accepts ``jobs=`` to compile independent functions
concurrently: it fans function *batches* over a
:class:`SharedTablePool` — a process pool whose workers make the
constructed tables resident exactly once, in the pool initializer (free
under fork, one content-addressed table-cache load otherwise), so a task
payload is only the source text plus function names, never tables or
generator options.  The pool itself is kept alive process-wide and
reused across calls, which is what makes repeated parallel compiles
amortize their startup the way a long-lived driver (the benchmarks,
``ggcc serve``) needs.  A worker that dies or hangs costs its batch a
recompile in the parent, never the program.

The reported ``seconds`` cover the *dynamic* phase only — the generator
(the static phase: grammar plus table construction) is built before the
clock starts, matching the paper's static/dynamic cost split.

Incremental mode (``incremental=True``, ``result_cache_dir=``, or
``REPRO_INCREMENTAL=1``) probes the content-addressed per-function
result cache (:mod:`repro.result_cache` — the same cache the compile
server uses) before dispatching anything: a function whose key (source
hash × table fingerprint × engine × peephole) already has a healthy
entry skips the pool entirely and is reassembled from cached text, so a
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
from concurrent.futures import (
    ProcessPoolExecutor, TimeoutError as FutureTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
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
from .frontend.lower import CompiledProgram, LowerError
from .frontend.parser import parse
from .ir.tree import Forest
from .obs import (
    absorb_worker_obs_many, obs_flags, span,
    worker_obs_drain, worker_obs_sync,
)
from .obs.metrics import REGISTRY as METRICS
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
    """A compiled function as a process worker ships it home.

    Pickling a full :class:`CompileResult` drags the whole
    ``AssemblyUnit`` — every instruction object, operand tree and
    ordering stat — across the pipe, only for the parent to call
    ``.text()`` once.  Workers format the assembly *in the worker* and
    return this flat record instead: the text, plus the compact stats
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
    """Flatten a worker-side :class:`CompileResult` for the pipe."""
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
    pool: Optional["SharedTablePool"] = None,
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
    by dispatching function batches over a :class:`SharedTablePool`
    whose workers hold the tables resident from their initializer on.
    Results land in source order, so the emitted assembly is
    byte-identical to ``jobs=1``.  ``parallel`` names the pool kind and
    accepts only ``"process"``, the one kind there is.

    ``pool`` hands in an already-warm :class:`SharedTablePool` (the
    compile server does this); the caller keeps ownership and the pool
    survives the call unless a worker failure marks it ``broken``, when
    the caller must replace it.  Without one, the process path reuses a
    process-wide keep-alive pool so consecutive calls skip pool startup.

    Every function goes through the recovery ladder
    (:mod:`repro.codegen.recovery`) and worker failures are always
    contained: a function that blocks, or whose pool batch crashes its
    worker or (``jobs`` > 1 only) outlives ``timeout`` seconds per
    function, becomes a diagnostic in ``out.diagnostics`` plus a
    rescued, recompiled or failed entry in ``function_results`` — the
    rest of the program still compiles.  ``resilient`` only decides what
    happens next: ``True`` returns the contained result, while the
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
                    out.diagnostics, pool,
                )
            else:
                outcomes = [
                    compile_with_recovery(gen, lowered(program, name))
                    for name in pending
                ]
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


# ------------------------------------------------- incremental compilation
ENV_INCREMENTAL = "REPRO_INCREMENTAL"

#: Process-wide result caches, one per (table fingerprint, engine,
#: directory) — the same sharing shape as the keep-alive pool, so
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


# ----------------------------------------------------- shared-table pool
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


#: Parent-side publication for fork-started pools: the generator (and
#: the parsed program of the call that created the pool) that forked
#: workers inherit through copy-on-write memory, so their initializer
#: adopts the constructed tables without loading anything.
#: Spawn-started workers re-import this module and see ``None`` — they
#: take the content-addressed cache-load path instead.
_PARENT_STATE: Optional[tuple] = None     # (options key, generator)
_PARENT_PROGRAM: Optional[tuple] = None   # (source text, CompiledProgram)

#: Worker-side state, installed once per process by _pool_initializer.
_WORKER_GENERATOR: Optional[tuple] = None  # (options key, generator)
_WORKER_FLAGS: Tuple[bool, bool] = (False, False)
_WORKER_PROGRAMS: Dict[str, CompiledProgram] = {}

#: Parsed programs a worker keeps around: the compile server cycles
#: through many sources, a one-shot driver uses one.
_WORKER_PROGRAM_LIMIT = 8

#: Chaos hook: a truthy value makes every pool initializer raise —
#: exactly what a cache miss plus a table-builder failure inside the
#: worker looks like to the pool (it breaks before any task runs).
ENV_CHAOS_INIT_FAIL = "REPRO_CHAOS_POOL_INIT_FAIL"


def _pool_initializer(
    options: Dict[str, object],
    flags: Tuple[bool, bool],
    cache_key: Optional[str] = None,
) -> None:
    """Runs once per worker process: make the parse tables resident.

    Preference order: (1) adopt the fork-inherited parent generator —
    the constructed tables arrived in copy-on-write memory, nothing to
    load; (2) load the constructed tables by the content-addressed
    *cache_key* the parent computed, skipping grammar-text regeneration
    and key derivation entirely; (3) cold-build (and store for the next
    worker).  After this, task payloads never carry options or tables.
    """
    global _WORKER_GENERATOR, _WORKER_FLAGS
    _WORKER_FLAGS = flags
    worker_obs_sync(flags)
    if os.environ.get(ENV_CHAOS_INIT_FAIL):
        raise RuntimeError(
            f"{ENV_CHAOS_INIT_FAIL}: injected pool-initializer failure"
        )
    key = _options_key(options)
    if _PARENT_STATE is not None and _PARENT_STATE[0] == key:
        _WORKER_GENERATOR = _PARENT_STATE
        METRICS.inc("pool.init.inherited")
        return
    generator = None
    if cache_key is not None:
        payload, _ = cached_load(cache_key)
        if payload is not None:
            bundle, tables = payload
            generator = GrahamGlanvilleCodeGenerator(
                bundle=bundle, tables=tables, **options
            )
            METRICS.inc("pool.init.cache")
    if generator is None:
        generator = GrahamGlanvilleCodeGenerator(**options)
        METRICS.inc("pool.init.built")
    _WORKER_GENERATOR = (key, generator)
    # The tables (and everything imported) live for the whole worker:
    # move them to the permanent generation so no collection ever scans
    # them again — and, post-fork, so the cycle detector stops touching
    # inherited pages and faulting copy-on-write copies.
    gc.collect()
    gc.freeze()


def _worker_program(source: str) -> tuple:
    """This worker's ``(on-demand program, generator)`` for *source*.

    The generator came from the pool initializer; parsing is memoized
    per source text (bounded), with the pool-creating call's program
    adopted outright when fork inheritance delivered it.  A function is
    lowered only when the worker compiles it (:func:`lowered`).
    """
    if _WORKER_GENERATOR is None:
        raise RuntimeError("pool worker used before its initializer ran")
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
    flags: Optional[Tuple[bool, bool]] = None,
) -> Tuple[Dict[str, object], Tuple[bool, bool], Optional[str]]:
    """Publish *generator* for fork copy-on-write adoption and return
    the ``(options, flags, cache_key)`` triple that
    :func:`_pool_initializer` wants in a worker process.

    The creation-side half of :class:`SharedTablePool` without the
    pool: callers that spawn their own processes (the compile service's
    worker supervisor) get the same warm-table residency — fork
    inheritance when available, the content-addressed cache load
    otherwise."""
    global _PARENT_STATE
    options = _generator_options(generator)
    if flags is None:
        flags = obs_flags()
    _PARENT_STATE = (_options_key(options), generator)
    cache_key = None
    if generator.cache_outcome is not None:
        cache_key = generator.cache_outcome.key
    return options, flags, cache_key


class SharedTablePool:
    """A process pool whose workers share one generator's tables.

    Creation publishes the parent's generator for copy-on-write fork
    inheritance and arms every worker with :func:`_pool_initializer`:
    under fork the tables are adopted for free, under spawn each worker
    pays one content-addressed cache load by the key the parent already
    computed.  Either way the static phase is paid *per worker*, never
    per task — a task payload is ``(source, names)``, O(source text),
    independent of table size.

    The pool is reusable across ``compile_program`` calls; ``ggcc
    serve`` keeps one warm for its whole lifetime.  ``broken`` marks a
    pool whose workers died (initializer failure, crash, hung-worker
    terminate) — owners must replace it.
    """

    def __init__(
        self,
        jobs: int,
        generator: GrahamGlanvilleCodeGenerator,
        flags: Optional[Tuple[bool, bool]] = None,
        program: Optional[tuple] = None,
    ) -> None:
        global _PARENT_PROGRAM
        options, flags, cache_key = shared_table_initargs(generator, flags)
        self.jobs = jobs
        self.options_key = _options_key(options)
        #: Reuse identity: options, width and obs flags must all match.
        self.key = (self.options_key, jobs, flags)
        self.broken = False
        if program is not None:
            _PARENT_PROGRAM = program
        self._pool = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_pool_initializer,
            initargs=(options, flags, cache_key),
        )

    def submit(self, fn, *args):
        return self._pool.submit(fn, *args)

    def terminate_workers(self) -> None:
        """Hard-stop every worker (the hung-pool escape hatch); the pool
        is broken afterwards and must be replaced."""
        self.broken = True
        for proc in list(getattr(self._pool, "_processes", {}).values()):
            proc.terminate()

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "SharedTablePool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


_FALSEY = {"0", "off", "false", "no"}

#: The process-wide keep-alive pool, used by every ``compile_program``
#: call that brings no pool of its own.
_KEEPALIVE_POOL: Optional[SharedTablePool] = None


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _effective_width(jobs: int) -> int:
    """Fast-path pool width: ``jobs`` clamped to the available CPUs.

    Compilation is CPU-bound, so workers beyond the CPU count cannot
    add throughput — they only add fork cost, memory, and scheduler
    churn (measurably so on small machines).
    """
    return max(1, min(jobs, available_cpus()))


def _acquire_pool(
    gen: GrahamGlanvilleCodeGenerator,
    jobs: int,
    source: str,
    program: CompiledProgram,
) -> SharedTablePool:
    """The process-wide keep-alive pool for *gen*.

    Created on first use and reused while the generator options, width
    and obs flags match — repeated parallel compiles in one process pay
    pool startup once.  A mismatched or broken pool is retired and
    replaced.
    """
    global _KEEPALIVE_POOL
    flags = obs_flags()
    width = _effective_width(jobs)
    key = (_options_key(_generator_options(gen)), width, flags)
    pool = _KEEPALIVE_POOL
    if pool is not None and (pool.key != key or pool.broken):
        pool.shutdown(wait=False, cancel_futures=True)
        _KEEPALIVE_POOL = pool = None
    if pool is None:
        _KEEPALIVE_POOL = pool = SharedTablePool(
            width, gen, flags, program=(source, program)
        )
    return pool


def shutdown_worker_pools() -> None:
    """Retire the process-wide keep-alive pool (tests, atexit)."""
    global _KEEPALIVE_POOL
    if _KEEPALIVE_POOL is not None:
        _KEEPALIVE_POOL.shutdown(wait=False, cancel_futures=True)
        _KEEPALIVE_POOL = None


atexit.register(shutdown_worker_pools)


#: Dispatch batches per pool worker: enough batches that an uneven
#: function mix load-balances across workers, few enough that per-task
#: overhead (payload pickling, future bookkeeping, the per-batch obs
#: drain) amortizes over several functions.
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


def _compile_batch_in_worker(task: tuple) -> tuple:
    """Process-pool body: ladder-compile one batch of functions against
    the worker-resident generator.  Returns ``(outcomes, obs payload)``:
    one :class:`LadderOutcome` per function — tier and diagnostics
    beside a flat :class:`FunctionText` — and the metrics delta and
    spans drained once per *batch*, not per function."""
    source, names = task
    program, generator = _worker_program(source)
    outcomes = []
    for name in names:
        _chaos_hooks(name)
        outcome = compile_with_recovery(generator, lowered(program, name))
        if isinstance(outcome.result, CompileResult):
            outcome.result = _function_text(name, outcome.result)
        outcomes.append(outcome)
    return outcomes, worker_obs_drain(_WORKER_FLAGS)


def _compile_functions_parallel(
    gen: GrahamGlanvilleCodeGenerator,
    source: str,
    program: CompiledProgram,
    names: List[str],
    jobs: int,
    timeout: Optional[float],
    diagnostics: DiagnosticSink,
    pool: Optional[SharedTablePool] = None,
) -> List[LadderOutcome]:
    """Fan *names* over a process pool; one outcome per name, in order.

    Workers receive weight-balanced *batches* of function names; their
    generator was made resident by the pool initializer, so nothing
    static rides on the tasks.

    Worker failures are contained per batch, and a batch that is lost
    is recompiled through the ladder in the parent:

    * a batch future that raises — a dead worker or a failed
      initializer breaks the pool (``BrokenProcessPool``) — gives
      WORKER-CRASH;
    * a batch still running after ``timeout`` seconds per function
      gives WORKER-TIMEOUT, and the workers are terminated.

    Either way the pool is marked broken: a batch that had already
    finished keeps its worker's result, and every other unread batch is
    lost with the pool under the same code.  The pool is shut down and
    its owner (:func:`_acquire_pool`, the compile server) replaces it.
    A dispatch that raises retires the pool the same way before the
    exception propagates, so it can never leak worker processes.

    A :class:`~repro.frontend.LowerError` from a batch is the source's
    fault, not the worker's: the pool stays healthy, and the first such
    error in source order is raised once every batch is in.
    """
    if pool is not None:
        if pool.options_key != _options_key(_generator_options(gen)):
            raise ValueError(
                "pool was created for different generator options"
            )
    else:
        pool = _acquire_pool(gen, jobs, source, program)
    batches = plan_batches(program, names, pool.jobs)
    outcomes: Dict[str, LadderOutcome] = {}
    lost: List[str] = []
    payloads: List[object] = []
    front_end_error: Optional[LowerError] = None
    # the code every unfinished batch is lost under once the pool broke
    broke_with = codes.WORKER_CRASH

    def lose(batch: tuple, code: str, why: str, **context) -> None:
        for name in batch:
            diagnostics.add(
                code, f"{why}; recovering the batch in the parent",
                function=name, **context,
            )
        lost.extend(batch)

    try:
        try:
            futures = [
                pool.submit(_compile_batch_in_worker, (source, batch))
                for batch in batches
            ]
        except BrokenProcessPool:  # its workers died while idle
            pool.broken = True
            METRICS.inc("pool.failures")
            futures = [None] * len(batches)
        METRICS.inc("pool.batches", len(batches))
        for batch, future in zip(batches, futures):
            if pool.broken and not _finished(future):
                lose(batch, broke_with, "the pool broke before it finished")
                continue
            limit = None if timeout is None else timeout * len(batch)
            try:
                batch_outcomes, payload = future.result(timeout=limit)
            except FutureTimeoutError:
                broke_with = codes.WORKER_TIMEOUT
                lose(
                    batch, broke_with,
                    f"worker exceeded the {timeout:.3g}s per-function "
                    f"timeout on a batch of {len(batch)}",
                    timeout_seconds=timeout,
                )
                pool.terminate_workers()
                continue
            except LowerError as exc:
                front_end_error = front_end_error or exc
                continue
            except Exception as exc:
                pool.broken = True
                METRICS.inc("pool.failures")
                lose(batch, codes.WORKER_CRASH,
                     f"a process-pool batch failed ({exc!r})")
                continue
            # Merging spans/metrics is parent-side bookkeeping; doing it
            # inline per future sits between one worker finishing and
            # the next result being consumed.  Drain it after the last
            # batch lands instead.
            payloads.append(payload)
            outcomes.update(zip(batch, batch_outcomes))
    except BaseException:
        pool.broken = True
        raise
    finally:
        absorb_worker_obs_many(payloads)
        if pool.broken:
            pool.shutdown(wait=False, cancel_futures=True)
    if front_end_error is not None:
        raise front_end_error
    for name in lost:
        outcomes[name] = compile_with_recovery(gen, lowered(program, name))
    return [outcomes[name] for name in names]


def _finished(future) -> bool:
    """Whether a batch *future* already holds its worker's result."""
    return (future is not None and future.done()
            and future.exception() is None)


# --------------------------------------------------------------- resilience
def _chaos_hooks(name: str) -> None:
    """Fault-injection points for the chaos harness (process workers).

    ``REPRO_CHAOS_KILL_FN=f,g`` hard-kills the worker compiling a listed
    function (``os._exit``, no cleanup — exactly what a segfault looks
    like to the pool).  ``REPRO_CHAOS_HANG_FN=f:5`` sleeps the listed
    functions for the given seconds (default 30) to trip the timeout.
    Workers read the environment they were forked with, so a harness
    that sets either variable must retire the keep-alive pool first.
    """
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
