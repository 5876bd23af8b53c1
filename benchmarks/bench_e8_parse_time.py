"""E8 — section 8's profile notes: "Our code generator spends most of its
time parsing.  This reflects both the large number of chain productions in
the grammar, and the time spent manipulating and unpacking the description
tables."

Measures the reduction mix (chain share), reductions per emitted
instruction, and benchmarks the parse actions alone.
"""

import time

from conftest import write_report

from repro.grammar import chain_depth
from repro.matcher import Matcher


def test_reduction_mix(gg, vax_bundle, corpus_program):
    shifts = reductions = chains = instructions = 0
    matching = semantics = 0.0
    for fname in corpus_program.order:
        result = gg.compile(corpus_program.forest(fname))
        shifts += result.shifts
        reductions += result.reductions
        chains += result.chain_reductions
        instructions += result.instruction_count
        matching += result.times.matching
        semantics += result.times.semantics

    stats = vax_bundle.grammar.stats()
    depths = chain_depth(vax_bundle.grammar)
    lines = [
        "parse-action profile over the corpus:",
        f"  shifts:                     {shifts}",
        f"  reductions:                 {reductions}",
        f"  chain reductions:           {chains} "
        f"({chains / reductions:.1%} of reductions)",
        f"  emitted instructions:       {instructions}",
        f"  reductions per instruction: {reductions / instructions:.2f}",
        f"  parse time / semantic time: {matching:.4f}s / {semantics:.4f}s",
        "",
        "grammar chain structure:",
        f"  chain productions: {stats.chain_productions} "
        f"of {stats.productions}",
        f"  longest chain path: {max(depths.values())}",
    ]
    write_report("E8", "\n".join(lines))
    # the parse does far more work than the instructions it emits
    assert reductions / instructions > 2.0
    assert chains / reductions > 0.15


def test_match_only_speed(benchmark, gg, corpus_program):
    """Parse actions with no-op semantics: the pure parsing cost."""
    from repro.matcher.engine import SemanticActions

    forest, _ = gg.transform(corpus_program.forest(corpus_program.order[0]))
    matcher = Matcher(gg.tables, SemanticActions())
    trees = list(forest.trees())

    def parse_all():
        return [matcher.match_tree(tree) for tree in trees]

    results = benchmark(parse_all)
    assert all(r.reductions for r in results)


def _tokens_per_second(matcher, streams, total_tokens, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for stream in streams:
            matcher.match_tokens(stream)
        best = min(best, time.perf_counter() - started)
    return total_tokens / best


def test_packed_vs_dict_throughput(gg, corpus_program):
    """The tentpole claim: the packed integer loop sustains at least 2x
    the dict loop's tokens/sec on pre-linearized corpus streams."""
    from repro.ir.linearize import linearize
    from repro.matcher.engine import SemanticActions

    streams = []
    for fname in corpus_program.order:
        forest, _ = gg.transform(corpus_program.forest(fname))
        streams.extend(linearize(tree) for tree in forest.trees())
    total_tokens = sum(len(s) for s in streams)

    packed = Matcher(gg.tables, SemanticActions(), engine="packed")
    plain = Matcher(gg.tables, SemanticActions(), engine="dict")

    packed_tps = _tokens_per_second(packed, streams, total_tokens)
    dict_tps = _tokens_per_second(plain, streams, total_tokens)
    speedup = packed_tps / dict_tps

    write_report("E8_packed", "\n".join([
        "packed vs dict matcher throughput (pre-linearized streams):",
        f"  tokens in corpus:   {total_tokens}",
        f"  dict loop:          {dict_tps:12,.0f} tokens/s",
        f"  packed loop:        {packed_tps:12,.0f} tokens/s",
        f"  speedup:            {speedup:12.2f}x   (target: >= 2x)",
    ]))
    assert speedup >= 2.0
