"""Per-production reduce counts, recorded on every engine.

``REPRO_OBS_RULES=1`` makes the code generator count each statement's
reductions per production as ``matcher.rule.<target>.<index>`` metrics
— the grammar-coverage instrument.  The counts come from the match
results, not from inside one drive loop, so the default engine records
them and their sum is the compile's ``reductions`` total.  They are
keyed by target, so one process can count both grammars.
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


def _metered_compile(*gens):
    """Compile SOURCE with each generator in turn under one metrics
    window; returns the last compile and the window's snapshot."""
    was_enabled = REGISTRY.enabled
    held = REGISTRY.drain()
    REGISTRY.enabled = True
    try:
        for gen in gens:
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
    counts = rule_frequencies(snapshot, target=target)
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
        by_engine[engine] = rule_frequencies(
            _metered_compile(gen)[1], target="vax"
        )
    assert by_engine["packed"] == by_engine["dict"]


def test_counts_stay_off_without_the_switch(monkeypatch, gg):
    monkeypatch.delenv(ENV_RULE_OBS, raising=False)
    assert rule_frequencies(_metered_compile(gg)[1], target="vax") == {}


def test_rule_frequencies_parses_counters():
    class Snapshot:
        counters = {
            "matcher.rule.vax.7": 21,
            "matcher.rule.vax.3": 4,
            "matcher.rule.vax.bogus": 9,
            "matcher.rule.r32.7": 5,
            "matcher.shifts": 100,
        }

    assert rule_frequencies(Snapshot(), target="vax") == {7: 21, 3: 4}
    assert rule_frequencies(Snapshot(), target="r32") == {7: 5}


def test_one_process_counts_each_target_apart(monkeypatch, gg, r32_gg):
    """A process that compiles VAX and then R32 must not merge their
    production indices: each target's counts sum to that target's own
    reductions."""
    monkeypatch.setenv(ENV_RULE_OBS, "1")
    vax_out, _ = _metered_compile(gg)
    r32_out, snapshot = _metered_compile(gg, r32_gg)
    for target, out in (("vax", vax_out), ("r32", r32_out)):
        counts = rule_frequencies(snapshot, target=target)
        total = sum(r.reductions for r in out.function_results.values())
        assert sum(counts.values()) == total, target
