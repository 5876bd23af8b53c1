"""The runtime block-recovery ladder (section 6.2.2, made dynamic).

A grammar built with ``rescue_bridges=False`` lacks the bridge
productions the paper added to stop scaled-index commitments from
blocking, so :data:`TINY_BLOCKER` genuinely blocks at runtime — the
ladder must rescue it (hoist tier) with unchanged semantics, or degrade
further on request.
"""

import dataclasses

import pytest

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.codegen.recovery import (
    FailedFunction, compile_with_recovery,
)
from repro.compile import compile_program
from repro.diag import CompileError, codes
from repro.frontend.lower import compile_c
from repro.frontend.parser import parse
from repro.fuzz.chaos import TINY_BLOCKER
from repro.matcher.engine import SyntacticBlock
from repro.result_cache import ResultCache, table_fingerprint
from repro.tables.slr import construct_tables


@pytest.fixture(scope="module")
def debridged():
    """A generator whose grammar omits the rescue bridge productions."""
    return GrahamGlanvilleCodeGenerator(rescue_bridges=False, cache=False)


@pytest.fixture()
def scratch_gen(vax_bundle):
    """A generator with private tables, safe to monkeypatch."""
    tables = construct_tables(vax_bundle.grammar)
    tables.packed().runtime()
    return GrahamGlanvilleCodeGenerator(bundle=vax_bundle, tables=tables)


def blocker_forest():
    return compile_c(TINY_BLOCKER).forest("f")


def crash_packed(gen, monkeypatch):
    """Make *gen*'s packed matcher raise a non-block exception — what
    corrupt or miscoded tables look like — while the dict loop works."""
    original = gen.compile

    def crashing(forest, trace=None, engine=None):
        if engine == "dict":
            return original(forest, trace=trace, engine=engine)
        raise RuntimeError("packed matcher exploded")

    monkeypatch.setattr(gen, "compile", crashing)


class TestDeBridgedBlocks:
    def test_debridged_grammar_blocks(self, debridged):
        with pytest.raises(SyntacticBlock) as info:
            debridged.compile(blocker_forest())
        exc = info.value
        # rich context for the diagnostics layer
        assert exc.position >= 0
        assert exc.state_stack
        context = exc.context()
        assert context["state"] == exc.state
        assert context["state_stack"] == list(exc.state_stack)

    def test_bridged_grammar_does_not_block(self, gg):
        result = gg.compile(blocker_forest())
        assert result.instruction_count > 0


class TestHoistTier:
    def test_ladder_recovers_via_hoisting(self, debridged):
        outcome = compile_with_recovery(debridged, blocker_forest())
        assert outcome.tier == "hoist"
        assert outcome.ok and outcome.recovered
        recorded = {d.code for d in outcome.diagnostics}
        assert codes.GG_BLOCK_SYN in recorded
        assert codes.RECOVER_FORCE in recorded
        force = next(
            d for d in outcome.diagnostics if d.code == codes.RECOVER_FORCE
        )
        assert len(force.context["hoisted"]) >= 1

    def test_hoist_recovery_preserves_semantics(self, gg, debridged):
        rescued = compile_program(
            TINY_BLOCKER, generator=debridged, resilient=True
        )
        assert rescued.ok
        assert rescued.tiers["f"] == "hoist"
        assert rescued.diagnostics.has(codes.RECOVER_FORCE)

        reference = compile_program(TINY_BLOCKER, generator=gg)
        for assembly in (reference, rescued):
            vax = assembly.simulator()
            assert vax.call("f", [7, 9]) == 2 + 7 * 9
            assert vax.read_memory(vax.address_of("g"), 4) == 65

    def test_hoist_temps_use_reserved_frame_area(self, debridged):
        # hoisted operands get pre-assigned slots below the ordinary temp
        # area, so regeneration can never double-book a frame offset
        outcome = compile_with_recovery(debridged, blocker_forest())
        text = outcome.result.assembly
        assert "-3072(fp)" in text or "-3076(fp)" in text


class TestCorruptTables:
    def test_packed_runtime_is_immutable(self, scratch_gen):
        """Nothing in the process can rewrite the matrices the matcher
        reads, so no per-compile integrity check is needed."""
        runtime = scratch_gen.tables.packed().runtime()
        for field in dataclasses.fields(runtime):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(runtime, field.name, getattr(runtime, field.name))
        for words in (
            runtime.action_words, runtime.default_words,
            runtime.goto_words, runtime.pool_single,
        ):
            assert isinstance(words, tuple)
            with pytest.raises(TypeError):
                words[0] = 0

    def test_corrupt_packed_rescued_by_dict_tier(
        self, scratch_gen, monkeypatch
    ):
        crash_packed(scratch_gen, monkeypatch)
        outcome = compile_with_recovery(scratch_gen, blocker_forest())
        assert outcome.tier == "dict"
        assert outcome.recovered
        recorded = {d.code for d in outcome.diagnostics}
        assert codes.GG_TABLE_CORRUPT in recorded
        assert codes.RECOVER_DICT in recorded

    def test_packed_crash_contained_without_checksum(
        self, gg, scratch_gen, monkeypatch
    ):
        # no checksum guards the runtime any more: a crashing packed
        # matcher is caught on the one compile path, the dict tier
        # produces the engine-identical text, and a strict compile
        # names the crash
        crash_packed(scratch_gen, monkeypatch)
        rescued = compile_program(
            TINY_BLOCKER, generator=scratch_gen, resilient=True
        )
        assert rescued.tiers == {"f": "dict"}
        assert rescued.text == compile_program(TINY_BLOCKER, generator=gg).text
        with pytest.raises(CompileError, match=codes.GG_TABLE_CORRUPT):
            compile_program(TINY_BLOCKER, generator=scratch_gen)


class TestLowerRungs:
    def test_pcc_degrade_when_hoisting_disabled(self, debridged):
        outcome = compile_with_recovery(
            debridged, blocker_forest(), max_hoists=0
        )
        assert outcome.tier == "pcc"
        assert outcome.recovered
        assert any(
            d.code == codes.RECOVER_PCC for d in outcome.diagnostics
        )
        assert outcome.result.assembly.strip()

    def test_failed_function_when_every_rung_fails(
        self, debridged, monkeypatch
    ):
        import repro.codegen.recovery as recovery

        def refuse(forest):
            raise RuntimeError("pcc refused")

        monkeypatch.setattr(recovery, "pcc_compile", refuse)
        outcome = compile_with_recovery(
            debridged, blocker_forest(), max_hoists=0
        )
        assert outcome.tier == "failed"
        assert not outcome.ok
        assert isinstance(outcome.result, FailedFunction)
        assert not outcome.result.ok
        # the stand-in assembly is pure comment, so the program still
        # assembles around the hole
        assert all(
            line.startswith("#")
            for line in outcome.result.assembly.splitlines()
        )
        assert any(
            d.code == codes.FN_FAILED for d in outcome.diagnostics
        )

    def test_healthy_function_stays_on_packed_tier(self, gg):
        forest = compile_c("int h(int x) { return x + 1; }").forest("h")
        outcome = compile_with_recovery(gg, forest)
        assert outcome.tier == "packed"
        assert not outcome.recovered
        assert outcome.diagnostics == []


@pytest.mark.parametrize("engine", ["packed", "dict"])
def test_healthy_compile_reports_the_generators_engine(
    engine, vax_bundle, vax_tables
):
    """The first rung labels a healthy result with the engine that
    produced it — on the ladder, in ``tiers`` and in the result-cache
    entry a resilient incremental compile stores."""
    gen = GrahamGlanvilleCodeGenerator(
        bundle=vax_bundle, tables=vax_tables, engine=engine
    )
    source = "int g; int f(int x){ g = x + 1; return g; }"
    outcome = compile_with_recovery(gen, compile_c(source).forest("f"))
    assert outcome.tier == engine
    assert not outcome.recovered
    assert outcome.diagnostics == []

    cache = ResultCache(table_fingerprint(gen), engine)
    out = compile_program(
        source, generator=gen, resilient=True, result_cache=cache
    )
    assert out.tiers == {"f": engine}
    entry = cache.get(cache.keys_for(parse(source))["f"])
    assert entry["tier"] == engine
