"""Per-production reduce counts, recorded on every engine.

``REPRO_OBS_RULES=1`` makes the code generator count each statement's
reductions per production as ``matcher.rule.<index>`` metrics — the
grammar-coverage instrument.  The counts come from the match results,
not from inside one drive loop, so the default engine records them and
their sum is the compile's ``reductions`` total.
"""

import pytest

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import compile_program
from repro.matcher.engine import ENV_RULE_OBS, rule_frequencies
from repro.obs.metrics import REGISTRY
from repro.workloads.programs import ALL_PROGRAMS

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}
SOURCE = "\n".join(
    _BY_NAME[name].source for name in ("gcd", "fib", "bits", "poly_eval")
)


def _metered_compile(gen):
    was_enabled = REGISTRY.enabled
    held = REGISTRY.drain()
    REGISTRY.enabled = True
    try:
        out = compile_program(SOURCE, generator=gen)
        snapshot = REGISTRY.drain()
    finally:
        REGISTRY.enabled = was_enabled
        REGISTRY.absorb(held)
    return out, snapshot


@pytest.mark.parametrize("target", ["vax", "r32"])
def test_default_engine_counts_sum_to_reductions(target, monkeypatch):
    monkeypatch.setenv(ENV_RULE_OBS, "1")
    gen = GrahamGlanvilleCodeGenerator(target=target)
    assert gen.engine == "packed"
    out, snapshot = _metered_compile(gen)
    counts = rule_frequencies(snapshot)
    total = sum(r.reductions for r in out.function_results.values())
    assert total > 0
    assert sum(counts.values()) == total
    assert snapshot.counters["matcher.reductions"] == total
    productions = len(gen.tables.grammar.productions)
    assert all(0 <= index < productions for index in counts)


def test_engines_record_identical_counts(monkeypatch, gg):
    monkeypatch.setenv(ENV_RULE_OBS, "1")
    by_engine = {}
    for engine in ("packed", "dict"):
        gen = GrahamGlanvilleCodeGenerator(
            bundle=gg.bundle, tables=gg.tables, engine=engine
        )
        by_engine[engine] = rule_frequencies(_metered_compile(gen)[1])
    assert by_engine["packed"] == by_engine["dict"]


def test_counts_stay_off_without_the_switch(monkeypatch, gg):
    monkeypatch.delenv(ENV_RULE_OBS, raising=False)
    assert rule_frequencies(_metered_compile(gg)[1]) == {}


def test_rule_frequencies_parses_counters():
    class Snapshot:
        counters = {
            "matcher.rule.7": 21,
            "matcher.rule.3": 4,
            "matcher.rule.bogus": 9,
            "matcher.shifts": 100,
        }

    assert rule_frequencies(Snapshot()) == {7: 21, 3: 4}
