"""CLI surface of the resilient pipeline: exit codes, --diag-json, chaos."""

import json

import pytest

from repro.fuzz.chaos import TINY_BLOCKER
from repro.tools.cli import main


@pytest.fixture()
def blocker(tmp_path):
    path = tmp_path / "blocker.c"
    path.write_text(TINY_BLOCKER)
    return str(path)


@pytest.fixture()
def clean(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text("int f(int x) { return x + 1; }\n")
    return str(path)


class TestResilientFlag:
    def test_block_without_resilient_is_exit_1(self, blocker, capsys):
        code = main(["--no-rescue-bridges", blocker])
        captured = capsys.readouterr()
        assert code == 1
        # strictness is a check on the one path's result: the rescue's
        # first diagnostic becomes the error
        assert "ggcc: error: CompileError: GG-BLOCK-SYN" in captured.err
        # the one-line summary is still structured, not a traceback
        assert "diagnostics:" in captured.err

    def test_block_with_resilient_recovers_exit_0(self, blocker, capsys):
        code = main(["--no-rescue-bridges", "--resilient", blocker])
        captured = capsys.readouterr()
        assert code == 0
        assert "_f:" in captured.out
        # the rescue is reported on stderr
        assert "GG-BLOCK-SYN" in captured.err
        assert "RECOVER-FORCE" in captured.err or "RECOVER-PCC" in captured.err

    def test_resilient_run_executes_rescued_code(self, blocker, capsys):
        code = main([
            "--no-rescue-bridges", "--resilient", blocker,
            "--run", "f", "--args", "7,9",
        ])
        assert code == 0
        assert "f(7, 9) = 65" in capsys.readouterr().out


class TestDiagJson:
    def test_diag_json_is_machine_readable(self, blocker, capsys):
        code = main([
            "--no-rescue-bridges", "--resilient", "--diag-json", blocker,
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["ok"] is True
        assert payload["counts"].get("GG-BLOCK-SYN", 0) >= 1
        functions = {d["function"] for d in payload["diagnostics"]}
        assert "f" in functions
        # assembly must not pollute the JSON stream
        assert "_f:" not in captured.out

    def test_diag_json_clean_program_is_empty(self, clean, capsys):
        code = main(["--resilient", "--diag-json", clean])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["diagnostics"] == []
        assert payload["counts"] == {}

    def test_diag_json_with_output_file(self, blocker, tmp_path, capsys):
        target = tmp_path / "out.s"
        code = main([
            "--no-rescue-bridges", "--resilient", "--diag-json",
            "-o", str(target), blocker,
        ])
        assert code == 0
        json.loads(capsys.readouterr().out)
        assert "_f:" in target.read_text()


class TestFailedFunctions:
    def test_unfixable_function_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.codegen.recovery as recovery
        import repro.compile as compile_module

        real_ladder = compile_module.compile_with_recovery
        monkeypatch.setattr(
            compile_module, "compile_with_recovery",
            lambda gen, forest, **kw: real_ladder(
                gen, forest, max_hoists=0, **{
                    k: v for k, v in kw.items() if k != "max_hoists"
                }
            ),
        )

        def refuse(forest):
            raise RuntimeError("pcc refused")

        monkeypatch.setattr(recovery, "pcc_compile", refuse)

        path = tmp_path / "doomed.c"
        path.write_text(TINY_BLOCKER + "int ok(int x) { return x; }\n")
        code = main(["--no-rescue-bridges", "--resilient", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "1 function(s) failed: f" in captured.err
        assert "FN-FAILED" in captured.err
        # the healthy sibling's assembly still came out
        assert "_ok:" in captured.out


class TestChaosSubcommand:
    def test_chaos_smoke(self, capsys):
        code = main([
            "chaos", "--seed", "0", "--cases", "1",
            "--scenario", "de-bridge",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "zero silent miscompilations" in captured.out

    def test_chaos_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenario", "meteor-strike"])
