"""Profile report, timing invariants, and cross-process metric merging."""

import json

import pytest

from repro.obs import install_recorder, uninstall_recorder
from repro.obs.metrics import REGISTRY
from repro.obs.profile import (
    FunctionProfile, ProfileReport, profile_program, resolve_profile_source,
)
from repro.obs.spans import validate_trace_events

SOURCE = """
int square(int a) { return a * a; }
int clamp(int a, int b) { if (a > b) { return b; } return a; }
int triangle(int n) {
    int i; int s;
    s = 0; i = 1;
    while (i <= n) { s = s + i; i = i + 1; }
    return s;
}
"""


@pytest.fixture
def report_and_assembly():
    return profile_program(SOURCE, label="<test>")


class TestReport:
    def test_invariants_hold(self, report_and_assembly):
        report, _ = report_and_assembly
        assert report.ok
        assert report.violations == []
        assert len(report.functions) == 3
        for fn in report.functions:
            for phase in ("transform", "matching", "semantics", "output"):
                assert fn.times[phase] >= 0.0
            assert fn.times["total"] <= fn.times["wall"] + 1e-6

    def test_static_and_cache_sections(self, report_and_assembly):
        report, _ = report_and_assembly
        assert report.static["seconds"] > 0
        assert report.static["table_source"] in ("cache", "built")
        cache = report.static["cache"]
        assert set(cache) >= {
            "hit", "load_seconds", "build_seconds", "store_seconds",
        }

    def test_metrics_snapshot_included(self, report_and_assembly):
        report, _ = report_and_assembly
        counters = report.metrics["counters"]
        assert counters["compile.functions"] == 3
        assert counters["matcher.shifts"] > 0
        assert counters["matcher.reductions"] > counters["matcher.shifts"]

    def test_program_wall_vs_cpu(self, report_and_assembly):
        report, assembly = report_and_assembly
        assert report.program["wall_seconds"] == pytest.approx(
            assembly.seconds
        )
        assert report.program["cpu_seconds"] == pytest.approx(
            assembly.cpu_seconds
        )
        # serial: summed per-function time can never exceed the wall
        assert assembly.cpu_seconds <= assembly.seconds + 1e-6

    def test_json_round_trip(self, report_and_assembly):
        report, _ = report_and_assembly
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert len(payload["functions"]) == 3

    def test_human_rendering(self, report_and_assembly):
        report, _ = report_and_assembly
        text = report.format_human()
        assert "triangle" in text
        assert "invariants: ok" in text
        assert "matching" in text

    def test_registry_state_restored(self):
        REGISTRY.reset()
        was_enabled = REGISTRY.enabled
        REGISTRY.enabled = False
        try:
            report, _ = profile_program(SOURCE, label="<t>")
            assert REGISTRY.enabled is False
            # the profile still measured, even with the registry off
            assert report.metrics["counters"]["compile.functions"] == 3
        finally:
            REGISTRY.enabled = was_enabled
            REGISTRY.reset()


class TestViolationDetection:
    def test_negative_phase_is_flagged(self):
        report = ProfileReport(
            source="<x>", backend="gg", jobs=1,
        )
        from repro.obs.profile import _check_invariants

        bad = FunctionProfile(name="f", times={
            "transform": 0.0, "matching": -0.001, "semantics": 0.0,
            "output": 0.0, "total": 0.01, "wall": 0.02,
        })
        problems = _check_invariants(bad)
        assert any("negative matching" in p for p in problems)
        report.violations.extend(problems)
        assert not report.ok

    def test_phase_sum_exceeding_wall_is_flagged(self):
        from repro.obs.profile import _check_invariants

        bad = FunctionProfile(name="f", times={
            "transform": 0.0, "matching": 0.02, "semantics": 0.0,
            "output": 0.0, "total": 0.02, "wall": 0.01,
        })
        assert any("exceeds wall" in p for p in _check_invariants(bad))


class TestProcessPoolMerge:
    def test_worker_metrics_merge_into_report(self):
        report, assembly = profile_program(
            SOURCE, label="<proc>", jobs=2,
        )
        assert report.ok
        # all 3 functions were counted despite compiling in child
        # processes: the per-task deltas merged into one snapshot
        assert report.metrics["counters"]["compile.functions"] == 3
        assert report.metrics["counters"]["matcher.shifts"] > 0
        # per-function times were measured inside the workers
        assert assembly.cpu_seconds > 0

    def test_worker_spans_land_on_their_own_timeline(self):
        recorder = install_recorder()
        try:
            profile_program(SOURCE, label="<proc>", jobs=2)
        finally:
            uninstall_recorder()
        trace = recorder.to_chrome_trace()
        assert validate_trace_events(trace) == []
        pids = {
            e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert len(pids) >= 2  # parent + at least one worker
        worker_spans = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] != recorder.pid
        ]
        assert any(e["name"] == "phase.matching" for e in worker_spans)

    def test_worker_spans_share_the_parent_time_base(self, fresh_pool):
        """Absorbed worker records are rebased onto the parent's epoch:
        every worker ``compile`` span lies inside the parent's
        ``compile_program`` span."""
        from repro.compile import compile_program

        recorder = install_recorder()
        try:
            compile_program(SOURCE, jobs=2)
        finally:
            uninstall_recorder()
        trace = recorder.to_chrome_trace()
        assert validate_trace_events(trace) == []
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        (outer,) = [e for e in events if e["name"] == "compile_program"]
        compiles = [e for e in events
                    if e["name"] == "compile" and e["pid"] != recorder.pid]
        assert len(compiles) == 3
        for event in compiles:
            assert event["ts"] >= outer["ts"], event
            assert event["ts"] + event["dur"] <= \
                outer["ts"] + outer["dur"], event

    def test_resilient_process_path_merges_too(self):
        report, _ = profile_program(
            SOURCE, label="<res>", jobs=2, resilient=True,
        )
        assert report.ok
        counters = report.metrics["counters"]
        assert counters["compile.functions"] == 3
        assert counters["recovery.tier.packed"] == 3


class TestSourceResolution:
    def test_c_file(self, tmp_path):
        path = tmp_path / "p.c"
        path.write_text("int f() { return 1; }\n")
        source, label = resolve_profile_source(str(path))
        assert "return 1" in source and label.endswith("p.c")

    def test_extension_probing(self, tmp_path):
        (tmp_path / "p.c").write_text("int f() { return 2; }\n")
        source, _ = resolve_profile_source(str(tmp_path / "p"))
        assert "return 2" in source

    def test_example_module_with_SOURCE(self, tmp_path):
        module = tmp_path / "demo.py"
        module.write_text('SOURCE = "int f() { return 3; }"\n')
        source, label = resolve_profile_source(str(tmp_path / "demo"))
        assert "return 3" in source and label.endswith("demo.py")

    def test_module_without_SOURCE_rejected(self, tmp_path):
        (tmp_path / "bad.py").write_text("x = 1\n")
        with pytest.raises(ValueError, match="no module-level SOURCE"):
            resolve_profile_source(str(tmp_path / "bad.py"))

    def test_missing_target(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_profile_source(str(tmp_path / "nope"))

    def test_quickstart_example_resolves(self):
        source, label = resolve_profile_source("examples/quickstart")
        assert "sum_of_squares" in source
        assert label == "examples/quickstart.py"
