"""The code generator driver — Figure 2's phase pipeline.

One :class:`GrahamGlanvilleCodeGenerator` owns the constructed parse
tables (built once per target, reused across compilations, exactly like
the static/dynamic split of section 3) and runs, per routine:

  phase 1a  explicit control flow        (controlflow)
  phase 1b  operator expansion           (expand)
  phase 1c  evaluation ordering          (ordering)
  phase 2   pattern matching             (repro.matcher + tables)
  phase 3   instruction generation       (the target's semantics)
  phase 4   output formatting            (output)

Per-phase wall-clock is recorded so experiment F2 can reproduce the
"roughly one half the code generation time is spent in the pattern
matching phase" observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..grammar.production import Production
from ..ir.linearize import Token
from ..ir.ops import Op
from ..ir.tree import Forest, LabelDef, Node
from ..matcher.descriptors import Descriptor
from ..matcher.engine import (
    RULE_METRIC_PREFIX, Matcher, SemanticActions, resolve_engine,
    rule_observation_enabled,
)
from ..matcher.trace import Tracer
from ..obs.metrics import REGISTRY as METRICS
from ..obs.spans import span
from ..tables.cache import CacheOutcome, cached_build, table_cache_key
from ..tables.slr import ParseTables, construct_tables
from ..targets.base import Target
from ..targets.grammar import GrammarBundle
from ..targets.registry import resolve_target
from ..targets.semantics import CodeBuffer
from .controlflow import make_control_flow_explicit
from .expand import expand_operators
from .ordering import OrderingStats, order_for_evaluation
from .output import AssemblyUnit


@dataclass
class PhaseTimes:
    """Seconds spent per logical phase across one compilation.

    ``matching`` is *exclusive* parse time: the per-statement wall time
    of the shift/reduce loop minus the semantic-callback time charged to
    ``semantics`` while that statement matched.  The attribution is
    structural (each phase's clock only runs while that phase runs), so
    no phase can go negative and no clamping is needed.  ``wall`` is the
    whole compilation's wall time; the gap ``wall - total`` is honest
    unattributed overhead (temp-slot assignment, statement boundaries,
    timer reads) rather than time silently folded into a phase.
    """

    transform: float = 0.0
    matching: float = 0.0   # parse actions: shifts/reduces/table lookups
    semantics: float = 0.0  # instruction generation inside reductions
    output: float = 0.0
    wall: float = 0.0       # whole-compilation wall clock (>= total)

    @property
    def total(self) -> float:
        return self.transform + self.matching + self.semantics + self.output

    @property
    def unattributed(self) -> float:
        return self.wall - self.total

    @property
    def matching_fraction(self) -> float:
        total = self.total
        return self.matching / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "transform": self.transform,
            "matching": self.matching,
            "semantics": self.semantics,
            "output": self.output,
            "total": self.total,
            "wall": self.wall,
        }


@dataclass
class CompileResult:
    """Everything produced by compiling one routine."""

    unit: AssemblyUnit
    times: PhaseTimes
    ordering: OrderingStats
    shifts: int = 0
    reductions: int = 0
    chain_reductions: int = 0
    statements: int = 0

    @property
    def assembly(self) -> str:
        return self.unit.text()

    @property
    def instruction_count(self) -> int:
        return self.unit.instruction_count


class _TimedSemantics(SemanticActions):
    """Delegating wrapper that charges semantic time separately from
    parse time, for the F2/E8 phase-profile experiments."""

    def __init__(self, inner: SemanticActions, times: PhaseTimes) -> None:
        self.inner = inner
        self.times = times

    def on_shift(self, token: Token) -> Descriptor:
        started = time.perf_counter()
        try:
            return self.inner.on_shift(token)
        finally:
            self.times.semantics += time.perf_counter() - started

    def on_reduce(self, production: Production, kids: Sequence[Descriptor]):
        started = time.perf_counter()
        try:
            return self.inner.on_reduce(production, kids)
        finally:
            self.times.semantics += time.perf_counter() - started

    def choose(self, productions, kids):
        started = time.perf_counter()
        try:
            return self.inner.choose(productions, kids)
        finally:
            self.times.semantics += time.perf_counter() - started


class GrahamGlanvilleCodeGenerator:
    """The replacement second pass: table-driven instruction selection.

    The static phase (grammar build + SLR construction) is paid once per
    *description*, not once per process: unless a ``bundle``/``tables``
    pair is handed in, the constructor consults the persistent table
    cache (:mod:`repro.tables.cache`) keyed on the exact grammar text and
    options, warm-starting in tens of milliseconds when the description
    is unchanged (see EXPERIMENTS.md, "Table-cache warm start").
    ``cache=False`` forces a fresh build; ``cache_dir`` redirects the
    store (tests use a tmp dir).  ``engine`` selects the
    matcher's drive loop (``"packed"``, the default, or the original
    ``"dict"`` loop for differential runs); ``$REPRO_MATCHER`` is
    honoured through :func:`repro.matcher.engine.resolve_engine`.

    ``target`` names the machine description to drive the tables with: a
    registered target name (``"vax"``, ``"r32"``), a
    :class:`~repro.targets.base.Target` instance, or ``None`` to honour
    ``$REPRO_TARGET`` and fall back to the registry default.  The target
    is resolved exactly once, here — nothing downstream assumes a
    machine.
    """

    def __init__(
        self,
        target: Optional[object] = None,
        reversed_ops: bool = True,
        overfactoring_fix: bool = True,
        peephole: bool = False,
        bundle: Optional[GrammarBundle] = None,
        tables: Optional[ParseTables] = None,
        cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
        rescue_bridges: bool = True,
        engine: Optional[str] = None,
    ) -> None:
        self.target: Target = resolve_target(target)
        self.machine = self.target.machine
        self.reversed_ops = reversed_ops
        self.peephole = peephole
        self.engine = resolve_engine(engine)
        self.rescue_bridges = rescue_bridges
        self.cache_outcome: Optional[CacheOutcome] = None

        static_started = time.perf_counter()
        with span("static.tables", cat="static"):
            if bundle is not None or tables is not None:
                self.bundle = bundle or self.target.build_grammar(
                    reversed_ops=reversed_ops,
                    overfactoring_fix=overfactoring_fix,
                    rescue_bridges=rescue_bridges,
                )
                self.tables = tables or construct_tables(self.bundle.grammar)
                self.table_source = (
                    "provided" if tables is not None else "built"
                )
            else:
                text = self.target.grammar_text(
                    reversed_ops, overfactoring_fix, rescue_bridges
                )
                # The target name is an explicit key component: two
                # machine descriptions must never alias in the table
                # store even if their texts somehow collide.
                key = table_cache_key(
                    text,
                    target=self.target.name,
                    reversed_ops=reversed_ops,
                    overfactoring_fix=overfactoring_fix,
                    rescue_bridges=rescue_bridges,
                )

                def build():
                    built = self.target.build_grammar(
                        reversed_ops=reversed_ops,
                        overfactoring_fix=overfactoring_fix,
                        rescue_bridges=rescue_bridges,
                    )
                    constructed = construct_tables(built.grammar)
                    constructed.packed()  # cache the packed form alongside
                    return built, constructed

                (self.bundle, self.tables), outcome = cached_build(
                    key, build, directory=cache_dir, enabled=cache
                )
                self.cache_outcome = outcome
                self.table_source = "cache" if outcome.hit else "built"
            if self.engine == "packed":
                # Expand the dense runtime rows now so the first compile's
                # matching time measures matching, not table expansion.
                with span("packed.expand", cat="static"):
                    self.tables.packed().runtime()
        self.static_seconds = time.perf_counter() - static_started
        METRICS.observe("static.seconds", self.static_seconds)
        METRICS.inc(f"static.tables.{self.table_source}")

    # ------------------------------------------------------------ pipeline
    def transform(self, forest: Forest) -> Tuple[Forest, OrderingStats]:
        """Phases 1a-1c on a (copy of a) forest."""
        work = forest.clone()
        with span("phase.controlflow", cat="phase", function=forest.name):
            work = make_control_flow_explicit(work, self.machine)
        with span("phase.expand", cat="phase", function=forest.name):
            work = expand_operators(work)
        with span("phase.ordering", cat="phase", function=forest.name):
            stats = order_for_evaluation(
                work, self.machine, enable_reversed=self.reversed_ops
            )
        return work, stats

    def compile(
        self,
        forest: Forest,
        trace: Optional[Tracer] = None,
        engine: Optional[str] = None,
    ) -> CompileResult:
        """Compile one routine to the target's assembly."""
        with span("compile", cat="function", function=forest.name):
            started = time.perf_counter()
            work, ordering_stats = self.transform(forest)
            transform_seconds = time.perf_counter() - started
            result = self.generate(
                work, ordering_stats, name=forest.name,
                trace=trace, engine=engine,
            )
        result.times.transform += transform_seconds
        result.times.wall += transform_seconds
        return result

    def generate(
        self,
        work: Forest,
        ordering_stats: OrderingStats,
        name: str,
        trace: Optional[Tracer] = None,
        engine: Optional[str] = None,
    ) -> CompileResult:
        """Phases 2-4 on an already-transformed forest.

        Split out of :meth:`compile` so the recovery ladder can mutate the
        transformed forest (operand hoisting) and regenerate with fresh
        buffers, and so a blocked function can be retried on a slower
        engine (``engine="dict"``) without rebuilding the generator.

        With ``$REPRO_OBS_RULES`` set, every statement's reductions are
        counted per production as ``matcher.rule.<target>.<index>``
        metrics, whichever engine matched them.
        """
        times = PhaseTimes()
        if engine is None:
            engine = self.engine
        rule_counts: Optional[Dict[int, int]] = (
            {} if rule_observation_enabled() else None
        )
        wall_started = time.perf_counter()

        # Compiler temporaries (call results, hoisted subtrees, spill
        # slots) live in the frame, as PCC's did — statics would break
        # under recursion.  Map each temp name to an fp displacement.
        assign_temp_slots(work)
        spills = _SpillSlotAllocator()

        unit = AssemblyUnit(name=name)
        buffer = CodeBuffer(lines=unit.body_lines)
        semantics = self.target.make_semantics(
            self.machine, buffer=buffer, new_temp=spills.take
        )
        timed = _TimedSemantics(semantics, times)
        matcher = Matcher(self.tables, timed, engine=engine)

        shifts = reductions = chains = statements = 0
        with span("phase.matching", cat="phase", function=name) as match_span:
            for item in work.items:
                if isinstance(item, LabelDef):
                    buffer.label(item.name)
                    continue
                # Exclusive attribution: semantic-callback time lands in
                # ``times.semantics`` as it happens (_TimedSemantics);
                # matching gets the remainder of this statement's wall
                # time.  Each phase's clock only runs while that phase
                # runs, so neither can go negative — no clamp.
                semantics_before = times.semantics
                started = time.perf_counter()
                with span("match.statement", cat="statement",
                          function=name, index=statements):
                    result = matcher.match_tree(item, trace)
                statement_wall = time.perf_counter() - started
                times.matching += (
                    statement_wall - (times.semantics - semantics_before)
                )
                semantics.statement_boundary()
                statements += 1
                shifts += item.size()
                reductions += len(result.reductions)
                chains += result.chain_reductions
                if rule_counts is not None:
                    for production in result.reductions:
                        index = production.index
                        rule_counts[index] = rule_counts.get(index, 0) + 1
            match_span.note(
                statements=statements, shifts=shifts, reductions=reductions,
                matching_seconds=round(times.matching, 6),
                semantics_seconds=round(times.semantics, 6),
            )

        started = time.perf_counter()
        with span("phase.output", cat="phase", function=name):
            if self.peephole:
                from .peephole import optimize

                optimized, _ = optimize(unit.body_lines)
                unit.body_lines[:] = optimized
            text = unit.text()  # force formatting for timing purposes
        times.output = time.perf_counter() - started
        times.wall = time.perf_counter() - wall_started

        if METRICS.enabled:
            METRICS.inc("compile.functions")
            METRICS.inc("compile.statements", statements)
            METRICS.inc("matcher.shifts", shifts)
            METRICS.inc("matcher.reductions", reductions)
            METRICS.inc("matcher.chain_reductions", chains)
            METRICS.observe("compile.fn_seconds", times.wall)
            METRICS.observe("compile.matching_seconds", times.matching)
            METRICS.observe("compile.semantics_seconds", times.semantics)
            prefix = f"{RULE_METRIC_PREFIX}{self.target.name}."
            for index, count in (rule_counts or {}).items():
                METRICS.inc(f"{prefix}{index}", count)

        return CompileResult(
            unit=unit, times=times, ordering=ordering_stats,
            shifts=shifts, reductions=reductions,
            chain_reductions=chains, statements=statements,
        )

#: Frame offsets below the front end's locals, reserved for compiler
#: temporaries and spill slots (the simulator reserves 4 KiB per frame).
TEMP_AREA_BASE = -2048
SPILL_AREA_BASE = -3584


def assign_temp_slots(forest: Forest, base: int = TEMP_AREA_BASE) -> Dict[str, str]:
    """Rewrite every ``Temp`` leaf's name to its frame slot ``off(fp)``."""
    slots: Dict[str, str] = {}
    offset = base
    for tree in forest.trees():
        for node in tree.preorder():
            if node.op is not Op.TEMP or not isinstance(node.value, str):
                continue
            if node.value.endswith("(fp)"):
                continue  # already assigned
            if node.value not in slots:
                offset -= max(4, node.ty.size)
                slots[node.value] = f"{offset}(fp)"
            node.value = slots[node.value]
    return slots


class _SpillSlotAllocator:
    """Frame slots for register spills ("virtual registers")."""

    def __init__(self, base: int = SPILL_AREA_BASE) -> None:
        self._next = base

    def take(self) -> str:
        self._next -= 4
        return f"{self._next}(fp)"


def compile_forest(forest: Forest, **options) -> CompileResult:
    """One-shot convenience: build a generator and compile *forest*."""
    return GrahamGlanvilleCodeGenerator(**options).compile(forest)
