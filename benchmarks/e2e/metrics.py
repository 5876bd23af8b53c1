"""Metric declarations and the summary statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` map every metric name to its unit; they
are the only names a run may print, and ``BENCHMARK.json`` at the repo
root must declare exactly the same names and units (``test_metrics.py``
keeps the two in step).  Every workload prints every metric: a layer
that is not on a workload's path reports 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ktok_per_s": "ktok/s",
    "peak_rss_mb": "MB",
    "asm_per_ktok": "instr/ktok",
}

PER_LAYER: Dict[str, str] = {
    "frontend.lexer.seconds": "s",
    "frontend.parser.seconds": "s",
    "frontend.lower.seconds": "s",
    "frontend.lexer.tokens": "count",
    "result_cache.keys.seconds": "s",
    "result_cache.probe.seconds": "s",
    "result_cache.store.seconds": "s",
    "result_cache.hit_ratio": "ratio",
    "codegen.clone.seconds": "s",
    "codegen.controlflow.seconds": "s",
    "codegen.expand.seconds": "s",
    "codegen.ordering.seconds": "s",
    "codegen.generate.seconds": "s",
    "codegen.statements": "count",
    "matcher.matching.seconds": "s",
    "semantics.seconds": "s",
    "codegen.output.seconds": "s",
    "matcher.shifts": "count",
    "matcher.reductions": "count",
    "matcher.chain_reductions": "count",
    "compile.join.seconds": "s",
    "compile.dynamic.seconds": "s",
    "compile.cpu.seconds": "s",
    "compile.efficiency": "ratio",
    "tables.build.seconds": "s",
    "tables.load.seconds": "s",
    "server.hit.p50_ms": "ms",
    "server.miss.p50_ms": "ms",
    "server.latency_p99_ms": "ms",
    "server.result_cache.hits": "count",
    "server.result_cache.misses": "count",
    "server.supervisor.restarts": "count",
    "server.supervisor.retries": "count",
    "oracle.units": "count",
    "oracle.skipped": "count",
    "oracle.exec_steps": "count",
    "trace.unattributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Layers whose times are disjoint and together cover a traced replay;
#: ``trace.unattributed_ratio`` is the share of the replay's wall time
#: outside them.  The matcher, semantics and output times are parts of
#: ``codegen.generate`` and are therefore not listed.
TOP_LEVEL_LAYERS = (
    "frontend.lexer", "frontend.parser", "frontend.lower",
    "result_cache.keys", "result_cache.probe", "result_cache.store",
    "codegen.clone", "codegen.controlflow", "codegen.expand",
    "codegen.ordering", "codegen.generate", "compile.join",
)

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank *q*-quantile of *samples*, or ``None`` when fewer
    than :data:`MIN_BEYOND` samples lie beyond it.

    With 1000 samples the 0.99 quantile is the 990th smallest and ten
    samples lie beyond it; with 999 it is refused.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} is not inside (0, 1)")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def windowed_rates(
    finished: Sequence[float], sizes: Sequence[float], window: int
) -> List[float]:
    """Work completed per second in consecutive windows of *window*
    completions.  ``finished[i]`` is when item ``i`` completed, in seconds
    since the load began, and ``sizes[i]`` is its work; a trailing
    partial window is dropped."""
    order = sorted(range(len(finished)), key=finished.__getitem__)
    rates, window_began = [], 0.0
    for start in range(0, len(order) - window + 1, window):
        chunk = order[start:start + window]
        window_ended = finished[chunk[-1]]
        rates.append(sum(sizes[i] for i in chunk)
                     / (window_ended - window_began))
        window_began = window_ended
    return rates


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
