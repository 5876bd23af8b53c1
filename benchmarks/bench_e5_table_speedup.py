"""E5 — sections 7/9 table-constructor speedup.

"It required over two memory-intensive hours of VAX 11/780 CPU time to
construct a new set of tables ... we have developed new techniques which
speed up the table constructor dramatically" — two hours down to ten
minutes (~12x).  Pits the historically-styled constructor against the
improved one on the full replicated VAX description.
"""

import tempfile
import time

from conftest import write_report

from repro.tables import build_automaton, build_automaton_naive


def test_speedup_on_full_grammar(vax_bundle):
    augmented, _ = vax_bundle.grammar.augmented()

    started = time.perf_counter()
    fast = build_automaton(augmented)
    fast_seconds = time.perf_counter() - started

    started = time.perf_counter()
    slow = build_automaton_naive(augmented)
    slow_seconds = time.perf_counter() - started

    assert fast.transitions == slow.transitions  # identical automata
    speedup = slow_seconds / fast_seconds
    lines = [
        "table-constructor speedup on the full VAX description:",
        f"  states:               {fast.state_count}",
        f"  historical algorithm: {slow_seconds:8.3f} s   (paper: ~2 hours)",
        f"  improved algorithm:   {fast_seconds:8.3f} s   (paper: ~10 minutes)",
        f"  speedup:              {speedup:8.1f}x   (paper: ~12x)",
    ]
    write_report("E5", "\n".join(lines))
    assert speedup > 5


def test_cache_warm_start():
    """The modern coda to section 7: a persistent cache makes the static
    phase a per-description cost, not a per-process one.  A warm start
    (load) must beat a cold start (build) by at least 10x."""
    from repro.codegen.driver import GrahamGlanvilleCodeGenerator

    with tempfile.TemporaryDirectory() as cache_dir:
        started = time.perf_counter()
        cold = GrahamGlanvilleCodeGenerator(cache_dir=cache_dir)
        cold_init = time.perf_counter() - started

        started = time.perf_counter()
        warm = GrahamGlanvilleCodeGenerator(cache_dir=cache_dir)
        warm_init = time.perf_counter() - started

    assert cold.table_source == "built"
    assert warm.table_source == "cache"
    build = cold.cache_outcome.build_seconds
    load = warm.cache_outcome.load_seconds
    speedup = build / load

    write_report("E5_cache", "\n".join([
        "persistent table cache, cold vs warm static phase:",
        f"  cold (grammar + SLR build): {build:8.3f} s",
        f"  warm (cache load):          {load:8.3f} s",
        f"  speedup:                    {speedup:8.1f}x   (target: >= 10x)",
        f"  full init cold/warm:        {cold_init:.3f} s / {warm_init:.3f} s",
    ]))
    assert speedup >= 10.0


def test_fast_constructor(benchmark, vax_bundle):
    augmented, _ = vax_bundle.grammar.augmented()
    automaton = benchmark(build_automaton, augmented)
    assert automaton.state_count > 500


def test_naive_constructor(benchmark, vax_bundle):
    augmented, _ = vax_bundle.grammar.augmented()
    automaton = benchmark.pedantic(
        build_automaton_naive, args=(augmented,), rounds=1, iterations=1
    )
    assert automaton.state_count > 500
