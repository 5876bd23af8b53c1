"""The ``ggcc profile`` subcommand and ``--trace-json`` flag."""

import json

import pytest

from repro.obs.spans import current_recorder, validate_trace_events
from repro.tools.cli import main

SOURCE = """
int dbl(int a) { return a + a; }
int mix(int a, int b) { return a * b - a; }
"""


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


class TestProfileCommand:
    def test_human_report(self, c_file, capsys):
        assert main(["profile", c_file]) == 0
        out = capsys.readouterr().out
        assert "dbl" in out and "mix" in out
        assert "invariants: ok" in out
        assert "matching" in out

    def test_json_report(self, c_file, capsys):
        assert main(["profile", c_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert {fn["name"] for fn in payload["functions"]} == {"dbl", "mix"}
        for fn in payload["functions"]:
            times = fn["times"]
            for phase in ("transform", "matching", "semantics", "output"):
                assert times[phase] >= 0
            assert times["total"] <= times["wall"] + 1e-6
        assert payload["metrics"]["counters"]["compile.functions"] == 2

    def test_profile_with_trace(self, c_file, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        code = main(["profile", c_file, "--trace-json", trace_path])
        assert code == 0
        with open(trace_path) as handle:
            trace = json.load(handle)
        assert validate_trace_events(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "phase.matching" in names
        assert "static.tables" in names
        assert current_recorder() is None  # no recorder leaked

    def test_profile_jobs_process(self, c_file, capsys):
        code = main(["profile", c_file, "--json", "--jobs", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["metrics"]["counters"]["compile.functions"] == 2
        assert payload["program"]["cpu_seconds"] > 0

    def test_missing_source(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "ghost")]) == 2
        assert "no profile target" in capsys.readouterr().err


class TestTraceJsonFlag:
    def test_main_compile_writes_trace(self, c_file, tmp_path, capsys):
        trace_path = str(tmp_path / "t.json")
        assert main([c_file, "--trace-json", trace_path]) == 0
        captured = capsys.readouterr()
        assert "dbl:" in captured.out  # assembly still on stdout
        assert "trace written" in captured.err
        with open(trace_path) as handle:
            trace = json.load(handle)
        assert validate_trace_events(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"frontend.lower", "compile_program", "compile",
                "phase.matching"} <= names
        assert current_recorder() is None

    def test_trace_written_even_on_compile_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int f( {")
        trace_path = str(tmp_path / "t.json")
        assert main([str(bad), "--trace-json", trace_path]) == 1
        with open(trace_path) as handle:
            trace = json.load(handle)
        assert validate_trace_events(trace) == []
        assert current_recorder() is None
