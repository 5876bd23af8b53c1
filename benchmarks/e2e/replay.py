"""The traced pass: a workload's compile path replayed through the
public call of each layer, each call timed from outside.

The replay makes the same calls, in the same order, as
``compile_program``'s serial path (and, for an edit, its incremental
path), so its assembly must equal the untraced pass's byte for byte; the
caller checks that.  Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List

from repro.codegen.controlflow import make_control_flow_explicit
from repro.codegen.expand import expand_operators
from repro.codegen.ordering import order_for_evaluation
from repro.compile import (
    ProgramAssembly, incremental_result_cache, reset_result_caches,
)
from repro.frontend import Parser, lower_program
from repro.result_cache import entry_healthy

from metrics import TOP_LEVEL_LAYERS


class LayerClock:
    """Seconds per layer, counts per layer, and the replay's wall time."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.wall = 0.0

    def call(self, layer: str, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[layer] += time.perf_counter() - started
        return result

    def unattributed_ratio(self) -> float:
        covered = sum(self.seconds[name] for name in TOP_LEVEL_LAYERS)
        return 1.0 - covered / self.wall if self.wall else 0.0


def _front_end(gen, source: str, clock: LayerClock):
    # ``parse(source)`` is ``Parser(source).parse_program()`` and the
    # constructor is the lexer, so the two steps split lex from parse
    # without lexing twice.
    parser = clock.call("frontend.lexer", Parser, source)
    clock.counts["frontend.lexer.tokens"] += len(parser.tokens)
    ast = clock.call("frontend.parser", parser.parse_program)
    program = clock.call("frontend.lower", lower_program, ast, gen.machine)
    return ast, program


def _function(gen, forest, clock: LayerClock):
    """``GrahamGlanvilleCodeGenerator.compile``, one phase at a time."""
    work = clock.call("codegen.clone", forest.clone)
    work = clock.call(
        "codegen.controlflow", make_control_flow_explicit, work, gen.machine
    )
    work = clock.call("codegen.expand", expand_operators, work)
    stats = clock.call(
        "codegen.ordering", order_for_evaluation, work, gen.machine,
        enable_reversed=gen.reversed_ops,
    )
    result = clock.call(
        "codegen.generate", gen.generate, work, stats, name=forest.name
    )
    clock.seconds["matcher.matching"] += result.times.matching
    clock.seconds["semantics"] += result.times.semantics
    clock.seconds["codegen.output"] += result.times.output
    clock.counts["codegen.statements"] += result.statements
    clock.counts["matcher.shifts"] += result.shifts
    clock.counts["matcher.reductions"] += result.reductions
    clock.counts["matcher.chain_reductions"] += result.chain_reductions
    return result


def _join(program, texts: List[str]) -> str:
    data = ProgramAssembly(source_program=program).data_section()
    return "\n".join([data] + texts)


def replay_unit(gen, source: str, clock: LayerClock) -> str:
    """``compile_program(source, jobs=1)`` through the layer calls."""
    started = time.perf_counter()
    _, program = _front_end(gen, source, clock)
    results = [_function(gen, program.forest(name), clock)
               for name in program.order]
    text = clock.call(
        "compile.join",
        lambda: _join(program, [r.assembly for r in results]),
    )
    clock.wall += time.perf_counter() - started
    return text


def replay_cached_unit(gen, source: str, cache, clock: LayerClock) -> tuple:
    """``compile_program(source, result_cache=cache)`` through the layer
    calls: key derivation, one probe per function, codegen and a store
    for each miss.  Returns ``(text, hits, misses)``."""
    started = time.perf_counter()
    ast, program = _front_end(gen, source, clock)
    keys = clock.call("result_cache.keys", cache.keys_for, ast)
    texts: Dict[str, str] = {}
    misses = []
    for name in program.order:
        entry = clock.call("result_cache.probe", cache.get, keys[name])
        if entry is None or not entry_healthy(entry):
            misses.append(name)
        else:
            texts[name] = entry["assembly"]
    for name in misses:
        result = _function(gen, program.forest(name), clock)
        texts[name] = result.assembly
        clock.call(
            "result_cache.store", cache.put, keys[name], name,
            texts[name], cpu_seconds=result.times.wall,
            instructions=result.instruction_count, tier=gen.engine,
        )
    text = clock.call(
        "compile.join", _join, program,
        [texts[name] for name in program.order],
    )
    clock.wall += time.perf_counter() - started
    return text, len(program.order) - len(misses), len(misses)


def replay_edit(gen, source: str, directory: str, clock: LayerClock):
    """One edit as a fresh ``ggcc --result-cache-dir`` process sees it:
    an empty memory tier over the persistent cache in *directory*."""
    reset_result_caches()
    cache = incremental_result_cache(gen, directory)
    return replay_cached_unit(gen, source, cache, clock)
