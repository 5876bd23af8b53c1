"""The chaos harness: injected pipeline faults must never be silent.

The process-pool scenarios (worker-kill/worker-hang) are exercised by
``tests/integration/test_resilient_compile.py`` and by the CI chaos-smoke
job; here we keep to the in-process scenarios so the suite stays fast,
plus one kill that must reach keep-alive workers started beforehand.
"""

import pytest

import repro.compile as compile_mod
from repro.compile import compile_program
from repro.fuzz.chaos import (
    ChaosCase, ChaosReport, SCENARIOS, TINY_BLOCKER, run_chaos,
)

FAST_SCENARIOS = ["de-bridge", "table-corrupt", "cache-corrupt"]


@pytest.fixture(scope="module")
def report():
    return run_chaos(seed=0, cases_per_scenario=1, scenarios=FAST_SCENARIOS)


class TestCampaign:
    def test_invariant_holds(self, report):
        assert report.ok
        assert report.silent_miscompiles == []
        assert report.uncontained == []

    def test_every_scenario_ran_the_known_blocker(self, report):
        assert len(report.cases) == len(FAST_SCENARIOS)
        assert {c.scenario for c in report.cases} == set(FAST_SCENARIOS)
        assert all(c.case == 0 for c in report.cases)

    def test_de_bridge_actually_blocked_and_recovered(self, report):
        case = next(c for c in report.cases if c.scenario == "de-bridge")
        assert case.verdict == "recovered"
        assert case.codes.get("GG-BLOCK-SYN", 0) >= 1
        assert case.tiers.get("f") in ("hoist", "pcc")

    def test_table_corrupt_refused_at_load(self, report):
        case = next(c for c in report.cases if c.scenario == "table-corrupt")
        assert case.verdict == "recovered"
        assert case.codes.get("CACHE-CORRUPT", 0) == 1
        assert case.tiers == {"f": "packed"}

    def test_cache_corrupt_quarantined_and_recovered(self, report):
        case = next(c for c in report.cases if c.scenario == "cache-corrupt")
        assert case.verdict in ("clean", "recovered")
        # a corrupted entry must surface as a diagnostic, never silence
        if case.verdict == "recovered":
            assert case.codes.get("CACHE-CORRUPT", 0) >= 1

    def test_summary_lines(self, report):
        lines = report.summary_lines()
        assert lines[0].startswith("chaos: seed 0")
        assert lines[-1] == "chaos: zero silent miscompilations"

    def test_deterministic_for_a_seed(self, report):
        again = run_chaos(
            seed=0, cases_per_scenario=1, scenarios=["de-bridge"]
        )
        case = next(c for c in report.cases if c.scenario == "de-bridge")
        repeat = again.cases[0]
        assert (repeat.verdict, repeat.tiers, repeat.codes) \
            == (case.verdict, case.tiers, case.codes)


def test_kill_reaches_a_keepalive_pool_created_earlier(fresh_pool):
    """Workers read the environment they were forked with: a kill armed
    after the keep-alive exists fires only because the harness retires
    it around the fault."""
    pools = []

    def warm_pool_before_case_1(line):
        # case 0 (one function, no pool) has already retired the pool
        # on its way out; make a live one right before case 1 arms
        if line.endswith("case 1 ..."):
            compile_program(
                "int a(int x) { return x; }\nint b(int y) { return y; }\n",
                jobs=2,
            )
            pools.append(compile_mod._KEEPALIVE)

    report = run_chaos(
        seed=0, cases_per_scenario=2, scenarios=["worker-kill"],
        progress=warm_pool_before_case_1,
    )
    assert pools and pools[0] is not None
    case = report.cases[1]
    assert case.verdict == "recovered"
    assert case.codes.get("WORKER-CRASH", 0) >= 1


class TestHarnessPieces:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_chaos(scenarios=["meteor-strike"])

    def test_scenarios_registry_complete(self):
        assert set(FAST_SCENARIOS) <= set(SCENARIOS)
        assert "worker-kill" in SCENARIOS and "worker-hang" in SCENARIOS

    def test_verdict_classification(self):
        assert ChaosCase("s", 0, "recovered").ok
        assert ChaosCase("s", 0, "failed-clean").ok
        assert not ChaosCase("s", 0, "silent-miscompile").ok
        assert not ChaosCase("s", 0, "uncontained").ok
        bad = ChaosReport(seed=1, cases=[
            ChaosCase("s", 0, "silent-miscompile", detail="boom")
        ])
        assert not bad.ok
        assert any("INVARIANT VIOLATED" in l for l in bad.summary_lines())

    def test_tiny_blocker_is_well_formed(self):
        from repro.frontend.lower import compile_c

        program = compile_c(TINY_BLOCKER)
        assert program.order == ["f"]
        assert "g" in program.globals
