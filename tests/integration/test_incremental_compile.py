"""Incremental compilation through the content-addressed result cache.

The batch driver now shares the compile server's per-function result
cache: a warm recompile of unchanged source must skip the dynamic phase
entirely (byte-identical output, tier ``cache``), a one-function edit
must recompile exactly one function, and — the stale-result hazard —
assembly produced by a recovery-ladder rescue must never be stored or
served, so a later healthy compile of the same source always gets
fresh, healthy code.
"""

import pytest

import repro.compile as compile_mod
from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import (
    CachedFunction, compile_program, incremental_result_cache,
    reset_result_caches,
)
from repro.diag import codes
from repro.frontend.parser import parse
from repro.fuzz.chaos import TINY_BLOCKER
from repro.result_cache import ResultCache
from repro.tables.slr import construct_tables
from repro.tools.cli import main as cli_main
from repro.workers import FaultPlan, inject
from repro.workloads.programs import ALL_PROGRAMS

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}
MULTI_SOURCE = "\n".join(
    _BY_NAME[name].source for name in ("gcd", "fib", "bits", "poly_eval")
)
SMALL = (
    "int g;\n"
    "int f(int x) { g = x + 1; return g; }\n"
    "int h(int y) { return y * 2; }\n"
    "int k(int z) { return z - 3; }\n"
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Process-wide result caches and the parse memo must not leak
    between tests (or into other test files)."""
    reset_result_caches()
    yield
    reset_result_caches()


class TestWarmSkip:
    def test_warm_recompile_skips_every_function(self, gg):
        cold = compile_program(MULTI_SOURCE, generator=gg, incremental=True)
        functions = len(cold.source_program.order)
        assert (cold.cache_hits, cold.cache_misses) == (0, functions)
        warm = compile_program(MULTI_SOURCE, generator=gg, incremental=True)
        assert (warm.cache_hits, warm.cache_misses) == (functions, 0)
        assert warm.text == cold.text
        assert set(warm.tiers.values()) == {"cache"}
        assert all(
            isinstance(r, CachedFunction)
            for r in warm.function_results.values()
        )
        # no compile ran, so no compile time may be claimed
        assert warm.cpu_seconds == 0.0
        assert warm.instruction_count == cold.instruction_count
        assert list(warm.function_results) == list(cold.function_results)

    def test_one_function_edit_recompiles_exactly_one(self, gg):
        compile_program(SMALL, generator=gg, incremental=True)
        edited = SMALL.replace("y * 2", "y * 20")
        out = compile_program(edited, generator=gg, incremental=True)
        assert (out.cache_hits, out.cache_misses) == (2, 1)
        assert out.tiers["f"] == "cache"
        assert out.tiers["k"] == "cache"
        # the miss went through the ladder like every compile
        assert out.tiers["h"] == "packed"
        assert out.text == compile_program(edited, generator=gg).text

    def test_whitespace_churn_still_hits(self, gg):
        """Function identity is the canonical unparse, not raw text."""
        compile_program(SMALL, generator=gg, incremental=True)
        reformatted = SMALL.replace(
            "int h(int y) { return y * 2; }",
            "int h(int y)\n{\n        return y * 2;\n}",
        )
        out = compile_program(reformatted, generator=gg, incremental=True)
        assert out.cache_misses == 0

    def test_warm_process_compile_never_touches_the_pool(
        self, gg, dispatched_jobs
    ):
        cold = compile_program(
            MULTI_SOURCE, generator=gg, incremental=True,
            jobs=2, parallel="process",
        )
        dispatched_cold = len(dispatched_jobs)
        assert dispatched_cold > 0
        # only the misses were dispatched: every function, when cold
        assert sorted(n for _, batch in dispatched_jobs for n in batch) \
            == sorted(cold.source_program.order)
        warm = compile_program(
            MULTI_SOURCE, generator=gg, incremental=True,
            jobs=2, parallel="process",
        )
        assert len(dispatched_jobs) == dispatched_cold
        assert warm.cache_misses == 0

    def test_single_miss_compiles_in_parent_not_pool(
        self, gg, dispatched_jobs
    ):
        compile_program(
            MULTI_SOURCE, generator=gg, incremental=True,
            jobs=2, parallel="process",
        )
        dispatched_cold = len(dispatched_jobs)
        edited = MULTI_SOURCE.replace("a % b", "b % a")
        assert edited != MULTI_SOURCE
        out = compile_program(
            edited, generator=gg, incremental=True,
            jobs=2, parallel="process",
        )
        # one pending function is below the parallel threshold: it
        # compiles serially in the parent, no dispatch round trip
        assert len(dispatched_jobs) == dispatched_cold
        assert out.cache_misses == 1
        assert out.text == compile_program(edited, generator=gg).text

    def test_only_the_misses_are_dispatched(self, gg, dispatched_jobs):
        compile_program(MULTI_SOURCE, generator=gg, incremental=True)
        edited = MULTI_SOURCE.replace("a % b", "b % a").replace(
            "n < 2", "n < 3"
        )
        out = compile_program(
            edited, generator=gg, incremental=True, jobs=2,
        )
        assert out.cache_misses == 2
        assert sorted(n for _, batch in dispatched_jobs for n in batch) \
            == sorted(n for n, tier in out.tiers.items() if tier != "cache")
        assert out.text == compile_program(edited, generator=gg).text


class TestEnablement:
    def test_off_by_default(self, gg):
        out = compile_program(SMALL, generator=gg)
        assert (out.cache_hits, out.cache_misses) == (0, 0)
        again = compile_program(SMALL, generator=gg)
        assert (again.cache_hits, again.cache_misses) == (0, 0)

    def test_env_var_enables(self, gg, monkeypatch):
        monkeypatch.setenv(compile_mod.ENV_INCREMENTAL, "1")
        compile_program(SMALL, generator=gg)
        warm = compile_program(SMALL, generator=gg)
        assert warm.cache_hits == 3

    def test_explicit_false_overrides_env_and_dir(
        self, gg, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(compile_mod.ENV_INCREMENTAL, "1")
        out = compile_program(
            SMALL, generator=gg, incremental=False,
            result_cache_dir=str(tmp_path),
        )
        assert (out.cache_hits, out.cache_misses) == (0, 0)

    def test_cache_dir_implies_incremental(self, gg, tmp_path):
        cold = compile_program(
            SMALL, generator=gg, result_cache_dir=str(tmp_path)
        )
        assert cold.cache_misses == 3

    def test_foreign_result_cache_rejected(self, gg):
        cache = ResultCache("0" * 64, gg.engine)
        with pytest.raises(ValueError, match="result_cache"):
            compile_program(SMALL, generator=gg, result_cache=cache)


class TestPersistence:
    def test_cache_dir_survives_process_restart(self, gg, tmp_path):
        directory = str(tmp_path / "results")
        compile_program(SMALL, generator=gg, result_cache_dir=directory)
        reference = compile_program(SMALL, generator=gg).text
        # a new process has no memory tier: simulated by dropping the
        # process-wide caches, leaving only the envelopes on disk
        reset_result_caches()
        warm = compile_program(
            SMALL, generator=gg, result_cache_dir=directory
        )
        assert warm.cache_misses == 0
        assert warm.text == reference


class TestRescuePoisoning:
    def test_injected_rescued_entry_is_refused_and_replaced(self, gg):
        cache = incremental_result_cache(gg)
        keys = cache.keys_for(parse(SMALL))
        cache.put(
            keys["h"], "h", "\t.text\nPOISON\n", tier="pcc", rescued=True
        )
        out = compile_program(SMALL, generator=gg, incremental=True)
        assert "POISON" not in out.text
        assert out.cache_misses == 3  # the rescued entry did not count
        assert out.text == compile_program(SMALL, generator=gg).text
        # the fresh healthy result overwrote the poisoned entry
        entry = cache.get(keys["h"])
        assert entry is not None and entry["rescued"] is False

    def test_rescue_is_not_stored_across_corruption_cycle(
        self, vax_bundle, tmp_path, monkeypatch
    ):
        """The hazard end to end: crashing packed matcher -> compile
        (ladder rescue) -> repair -> recompile.  The rescue must not
        have seeded the cache, so the recompile is a fresh healthy
        compile — and only *that* result becomes cacheable."""
        tables = construct_tables(vax_bundle.grammar)
        gen = GrahamGlanvilleCodeGenerator(bundle=vax_bundle, tables=tables)
        directory = str(tmp_path / "results")
        healthy_text = compile_program(TINY_BLOCKER, generator=gen).text

        original = gen.compile

        def crashing(forest, trace=None, engine=None):
            if engine == "dict":
                return original(forest, trace=trace, engine=engine)
            raise RuntimeError("packed matcher exploded")

        monkeypatch.setattr(gen, "compile", crashing)
        rescued = compile_program(
            TINY_BLOCKER, generator=gen, resilient=True,
            incremental=True, result_cache_dir=directory,
        )
        assert rescued.tiers["f"] == "dict"
        assert rescued.diagnostics.has(codes.GG_TABLE_CORRUPT)
        assert rescued.cache_hits == 0

        monkeypatch.undo()  # repair the packed matcher
        fresh = compile_program(
            TINY_BLOCKER, generator=gen, resilient=True,
            incremental=True, result_cache_dir=directory,
        )
        # the rescue was never stored: this is a miss, not a stale hit
        assert (fresh.cache_hits, fresh.cache_misses) == (0, 1)
        assert fresh.tiers["f"] == "packed"
        assert not len(fresh.diagnostics)
        assert fresh.text == healthy_text

        warm = compile_program(
            TINY_BLOCKER, generator=gen, resilient=True,
            incremental=True, result_cache_dir=directory,
        )
        assert warm.tiers["f"] == "cache"
        assert warm.text == healthy_text

    def test_worker_containment_recovery_is_not_stored(self, gg):
        """A function recovered in the parent after its worker died on
        every attempt gets WORKER-* diagnostics — conservative store
        gate: not cached."""
        with inject(FaultPlan("kill", functions=("h",))):
            out = compile_program(
                SMALL, generator=gg, resilient=True, incremental=True,
                jobs=2, parallel="process",
            )
        assert out.ok
        assert out.diagnostics.has(codes.WORKER_CRASH)
        # the WORKER-CRASH diagnostics name the functions of the batch
        # whose worker died; those are conservatively not stored, while
        # the other functions compiled healthily on their workers and
        # *are* cacheable
        flagged = {
            d.function for d in out.diagnostics.records() if d.function
        }
        assert flagged  # containment really did flag something
        again = compile_program(SMALL, generator=gg, incremental=True)
        assert again.cache_hits == 3 - len(flagged)
        for name in flagged:
            assert again.tiers.get(name) != "cache"
        assert again.text == compile_program(SMALL, generator=gg).text


class TestCli:
    def test_incremental_flags_round_trip(self, tmp_path, capsys):
        source = tmp_path / "prog.c"
        source.write_text(SMALL)
        cache_dir = tmp_path / "results"
        assert cli_main([
            "--incremental", "--result-cache-dir", str(cache_dir),
            str(source),
        ]) == 0
        cold_text = capsys.readouterr().out
        reset_result_caches()  # force the disk tier
        assert cli_main([
            "--incremental", "--result-cache-dir", str(cache_dir),
            str(source),
        ]) == 0
        assert capsys.readouterr().out == cold_text

    def test_no_incremental_flag(self, tmp_path, capsys):
        source = tmp_path / "prog.c"
        source.write_text(SMALL)
        assert cli_main(["--no-incremental", str(source)]) == 0
        capsys.readouterr()
