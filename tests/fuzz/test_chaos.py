"""The chaos harness: injected faults must never be silent.

One registry holds every scenario of both owners of the worker
substrate; one judge holds them to one invariant.  Here we run the fast
in-process batch scenarios, the cheapest service scenario (malformed
frames against a live server), and the batch ``worker-kill`` scenario
against a keep-alive started beforehand.  The judge's fail paths — a
worker fault that never fired, a kill storm that killed nothing or
halved throughput — are fed fixed outputs and measurements, so nothing
here is timed.  ``ggcc chaos --seed 0 --cases 2`` (the CI chaos-smoke
job) runs the whole registry.
"""

import pytest

import repro.compile as compile_mod
from repro.compile import compile_program
from repro.fuzz.chaos import (
    BAD_VERDICTS, ChaosCase, ChaosReport, SCENARIOS, STORM_MIN_RATIO,
    TINY_BLOCKER, judge, judge_storm, run_chaos,
)
from repro.server.loadgen import LoadReport

FAST_SCENARIOS = ["de-bridge", "table-corrupt", "cache-corrupt"]


@pytest.fixture(scope="module")
def report():
    return run_chaos(seed=0, cases_per_scenario=1, scenarios=FAST_SCENARIOS)


@pytest.fixture(scope="module")
def serve_report():
    return run_chaos(
        seed=0, cases_per_scenario=1, scenarios=["malformed-frames"],
    )


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
        assert lines[-1] == (
            "chaos: zero silent miscompilations, zero unanswered requests"
        )

    def test_deterministic_for_a_seed(self, report):
        again = run_chaos(
            seed=0, cases_per_scenario=1, scenarios=["de-bridge"]
        )
        case = next(c for c in report.cases if c.scenario == "de-bridge")
        repeat = again.cases[0]
        assert (repeat.verdict, repeat.tiers, repeat.codes) \
            == (case.verdict, case.tiers, case.codes)


def test_kill_reaches_a_keepalive_pool_created_earlier(fresh_pool):
    """A plan armed after the keep-alive exists reaches its workers: the
    harness never retires the keep-alive, and every case's kill fires
    in the workers that were already running."""
    compile_program(
        "int a(int x) { return x; }\nint b(int y) { return y; }\n", jobs=2,
    )
    pool = compile_mod._KEEPALIVE
    report = run_chaos(
        seed=0, cases_per_scenario=2, scenarios=["worker-kill"],
    )
    assert compile_mod._KEEPALIVE is pool
    assert [case.verdict for case in report.cases] == ["recovered"] * 2
    for case in report.cases:
        assert case.codes.get("WORKER-CRASH", 0) >= 1
    assert pool.supervisor.crashes >= 4  # two attempts per case


# ---------------------------------------------------- service scenarios
def test_scenario_names_cover_the_fault_taxonomy():
    assert set(SCENARIOS) == {
        "table-corrupt", "cache-corrupt", "de-bridge",
        "worker-kill", "worker-hang",
        "serve-worker-kill", "serve-worker-hang", "serve-cache-corrupt",
        "malformed-frames", "slow-client", "cache-readonly",
        "kill-storm",
    }


def test_campaign_invariants_hold(serve_report):
    assert isinstance(serve_report, ChaosReport)
    assert serve_report.ok
    assert serve_report.silent_miscompiles == []
    assert serve_report.unanswered == []
    assert serve_report.uncontained == []


def test_cases_are_judged_not_just_run(serve_report):
    assert serve_report.cases
    for case in serve_report.cases:
        assert case.scenario == "malformed-frames"
        assert case.verdict in ("clean", "failed-clean", "recovered")
    # the well-formed request after the barrage went through the judge
    assert serve_report.cases[-1].verdict == "clean"


def test_summary_states_the_invariant(serve_report):
    text = "\n".join(serve_report.summary_lines())
    assert "zero silent miscompilations, zero unanswered requests" in text


# ----------------------------------------------------------------- judge
class TestJudge:
    def test_one_judge_for_an_assembly_and_a_reply(self, gg):
        assembly = compile_program(TINY_BLOCKER, generator=gg)
        reply = {
            "ok": True, "assembly": assembly.text, "functions": ["f"],
            "failed": [], "tiers": dict(assembly.tiers), "diagnostics": [],
        }
        assert judge("s", 0, TINY_BLOCKER, assembly).verdict == "clean"
        assert judge("s", 0, TINY_BLOCKER, reply).verdict == "clean"

    def test_a_worker_fault_that_never_fired_fails(self, gg):
        # one function compiles serially: no worker is ever touched
        assembly = compile_program(TINY_BLOCKER, generator=gg, jobs=2)
        case = judge("worker-kill", 0, TINY_BLOCKER, assembly, fired=False)
        assert case.verdict == "unfired"
        assert not case.ok

    def test_unanswered_and_unstructured_replies_fail(self):
        assert judge("s", 0, TINY_BLOCKER, None).verdict == "unanswered"
        typed = {"ok": False, "error": {"type": "WORKER-CRASH"}}
        assert judge("s", 0, TINY_BLOCKER, typed).verdict == "failed-clean"
        bare = {"ok": False}
        assert judge("s", 0, TINY_BLOCKER, bare).verdict == "uncontained"

    def test_a_wrong_answer_is_a_silent_miscompile(self, gg):
        wrong = compile_program(
            TINY_BLOCKER.replace("2 + x*y", "3 + x*y"), generator=gg
        )
        case = judge("s", 0, TINY_BLOCKER, {
            "ok": True, "assembly": wrong.text, "tiers": {"f": "packed"},
        })
        assert case.verdict == "silent-miscompile"
        assert not case.ok


def _load(requests, seconds, dropped=0, errors=0, mismatches=0):
    return LoadReport(
        requests=requests, seconds=seconds, dropped_connections=dropped,
        errors=errors, id_mismatches=mismatches,
    )


class TestStormJudge:
    def test_a_storm_that_holds_throughput_passes(self):
        case = judge_storm("kill-storm", _load(10, 1.0), _load(8, 1.0), 2)
        assert case.verdict == "recovered" and case.ok

    def test_a_ratio_below_the_gate_fails(self):
        slow = _load(int(10 * STORM_MIN_RATIO) - 1, 1.0)
        case = judge_storm("kill-storm", _load(10, 1.0), slow, 3)
        assert case.verdict == "degraded"
        assert not case.ok

    def test_a_storm_that_killed_nothing_fails(self):
        case = judge_storm("kill-storm", _load(10, 1.0), _load(10, 1.0), 0)
        assert case.verdict == "unfired"
        assert not case.ok

    def test_a_dropped_connection_fails(self):
        case = judge_storm(
            "kill-storm", _load(10, 1.0), _load(9, 1.0, dropped=1), 2
        )
        assert case.verdict == "unanswered"

    def test_error_replies_do_not_count_as_throughput(self):
        # as fast as before, but every reply under the storm an error
        errors = _load(10, 1.0, errors=10)
        case = judge_storm("kill-storm", _load(10, 1.0), errors, 2)
        assert case.verdict == "degraded"
        assert not case.ok

    def test_a_reply_under_another_id_fails_in_either_phase(self):
        crossed = _load(10, 1.0, mismatches=1)
        for phases in ((_load(10, 1.0), crossed), (crossed, _load(10, 1.0))):
            case = judge_storm("kill-storm", *phases, 2)
            assert case.verdict == "unanswered"
            assert not case.ok


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
        for verdict in BAD_VERDICTS:
            assert not ChaosCase("s", 0, verdict).ok
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
