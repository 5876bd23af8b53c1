"""The one compile path: containment, timeouts, recovery, strictness.

Every ``compile_program`` runs the recovery ladder and contains worker
failures; it must never let one bad function — blocked, crashed worker,
hung worker, or unfixable — take down the rest of the program, and must
leave a structured trail in ``assembly.diagnostics``.  ``resilient``
only decides whether a rescued function is accepted or raised as a
:class:`~repro.diag.CompileError`.
"""

import pytest

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.codegen.recovery import FailedFunction
from repro.compile import compile_program
from repro.diag import CompileError, codes
from repro.fuzz.chaos import TINY_BLOCKER
from repro.workers import FaultPlan, inject
from repro.workloads.programs import PROGRAMS_BY_NAME

MULTI_SOURCE = "\n".join(
    PROGRAMS_BY_NAME[name].source for name in ("gcd", "fib", "bits")
)


class TestResilientHappyPath:
    def test_serial_matches_plain_compile(self, gg):
        plain = compile_program(MULTI_SOURCE, generator=gg)
        resilient = compile_program(
            MULTI_SOURCE, generator=gg, resilient=True
        )
        assert resilient.text == plain.text
        assert resilient.ok and not resilient.failed
        assert set(resilient.tiers.values()) == {"packed"}
        assert len(resilient.diagnostics) == 0

    def test_process_pool_matches_serial(self, gg):
        serial = compile_program(MULTI_SOURCE, generator=gg, resilient=True)
        pooled = compile_program(
            MULTI_SOURCE, generator=gg, resilient=True, jobs=2,
        )
        assert pooled.text == serial.text
        assert pooled.tiers == serial.tiers
        assert len(pooled.diagnostics) == 0

    def test_resilient_pcc_backend(self):
        assembly = compile_program(
            MULTI_SOURCE, backend="pcc", resilient=True
        )
        assert assembly.ok
        vax = assembly.simulator()
        assert vax.call("gcd", [12, 18]) == 6


@pytest.fixture(scope="module")
def debridged():
    return GrahamGlanvilleCodeGenerator(rescue_bridges=False, cache=False)


class TestOnePath:
    """The serial and pool paths are one path: the same ladder, the
    same result, the same strictness check."""

    SOURCE = TINY_BLOCKER + "int ok(int a, int b) { return a + b; }\n"

    def test_resilient_identical_at_jobs_1_and_2(self, debridged, fresh_pool):
        serial = compile_program(
            self.SOURCE, generator=debridged, resilient=True, jobs=1
        )
        pooled = compile_program(
            self.SOURCE, generator=debridged, resilient=True, jobs=2
        )
        assert serial.tiers == {"f": "hoist", "ok": "packed"}
        assert pooled.text == serial.text
        assert pooled.tiers == serial.tiers
        assert [d.to_dict() for d in pooled.diagnostics] == [
            d.to_dict() for d in serial.diagnostics
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_compile_raises_the_block(
        self, debridged, jobs, fresh_pool
    ):
        with pytest.raises(CompileError) as info:
            compile_program(self.SOURCE, generator=debridged, jobs=jobs)
        assert info.value.diagnostic.code == codes.GG_BLOCK_SYN
        assert info.value.diagnostic.function == "f"
        assert str(info.value).startswith("GG-BLOCK-SYN: ")


class TestBlockedFunctionRecovery:
    def test_debridged_program_recovers_and_runs(self):
        gen = GrahamGlanvilleCodeGenerator(
            rescue_bridges=False, cache=False
        )
        assembly = compile_program(
            TINY_BLOCKER, generator=gen, resilient=True
        )
        assert assembly.ok
        assert assembly.tiers["f"] == "hoist"
        assert assembly.diagnostics.has(codes.GG_BLOCK_SYN)
        assert assembly.diagnostics.has(codes.RECOVER_FORCE)
        vax = assembly.simulator()
        assert vax.call("f", [14, 4]) == 58


class TestFailedFunctionContainment:
    SOURCE = TINY_BLOCKER + "int ok(int x) { return x + 1; }\n"

    def test_one_failure_does_not_sink_the_program(self, monkeypatch):
        import repro.codegen.recovery as recovery
        import repro.compile as compile_module

        real_ladder = compile_module.compile_with_recovery

        def ladder_without_hoisting(gen, forest, **kwargs):
            kwargs["max_hoists"] = 0
            return real_ladder(gen, forest, **kwargs)

        def pcc_refuses_f(forest):
            raise RuntimeError(f"pcc refused {forest.name}")

        monkeypatch.setattr(
            compile_module, "compile_with_recovery", ladder_without_hoisting
        )
        monkeypatch.setattr(recovery, "pcc_compile", pcc_refuses_f)

        gen = GrahamGlanvilleCodeGenerator(
            rescue_bridges=False, cache=False
        )
        assembly = compile_program(self.SOURCE, generator=gen, resilient=True)

        assert assembly.failed == ["f"]
        assert not assembly.ok
        assert isinstance(assembly.function_results["f"], FailedFunction)
        # the healthy sibling still compiled and the program still
        # assembles around the comment-block hole
        assert assembly.tiers["ok"] != "failed"
        assert "# function f: compilation failed" in assembly.text
        vax = assembly.simulator()
        assert vax.call("ok", [41]) == 42
        # the failure is named by an error diagnostic
        failed_diags = assembly.diagnostics.by_code(codes.FN_FAILED)
        assert any(d.function == "f" for d in failed_diags)


@pytest.mark.usefixtures("fresh_pool")
class TestProcessContainment:
    def test_killed_worker_recovered_in_parent(self, gg):
        with inject(FaultPlan("kill", functions=("fib",))):
            assembly = compile_program(
                MULTI_SOURCE, generator=gg, resilient=True,
                jobs=2, parallel="process",
            )
        assert assembly.ok
        assert assembly.diagnostics.has(codes.WORKER_CRASH)
        serial = compile_program(MULTI_SOURCE, generator=gg)
        assert assembly.text == serial.text

    def test_hung_worker_times_out_and_recovers(self, gg, monkeypatch):
        import repro.compile as compile_module

        # The pool forks after this patch, so only the parent's calls
        # reach this list: the functions it recompiled itself.
        in_parent = []
        real_ladder = compile_module.compile_with_recovery

        def recording_ladder(gen, forest, **kwargs):
            in_parent.append(forest.name)
            return real_ladder(gen, forest, **kwargs)

        monkeypatch.setattr(
            compile_module, "compile_with_recovery", recording_ladder
        )
        with inject(FaultPlan("hang", functions=("gcd",))):
            assembly = compile_program(
                MULTI_SOURCE, generator=gg, resilient=True,
                jobs=2, parallel="process", timeout=2.0,
            )
        assert assembly.ok
        timeouts = assembly.diagnostics.by_code(codes.WORKER_TIMEOUT)
        assert any(d.function == "gcd" for d in timeouts)
        # fib and bits finished on the other worker before gcd's batch
        # timed out: they keep the worker's results
        assert in_parent == ["gcd"]
        assert {d.function for d in assembly.diagnostics} == {"gcd"}
        vax = assembly.simulator()
        assert vax.call("gcd", [48, 36]) == 12
