"""The R32 target end to end: compile, execute, agree, stay distinct.

The retargetability claim is only proven by running the second machine
through the *same* pipeline entry points as the first: ``--target r32``
assembly must execute to the same results the IR interpreter computes,
every matcher engine must emit byte-identical assembly per target, and
the single-target conveniences (PCC backend, three-way oracle) must
refuse or narrow rather than silently emit VAX code for an R32 request.
"""

import pytest

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import compile_program, run_program
from repro.fuzz.oracle import pipelines_for, run_oracle
from repro.targets import resolve_target

#: Touches calls, globals, unsigned division, narrow-type widening,
#: logical connectives, C-semantics remainder and doubles — the
#: features whose lowering most plausibly differs between machines.
SOURCE = """
int g;
unsigned int u;
double d;
char c;

int mix(int a, int b, int x) {
    return a * b - x;
}

int main() {
    int t;
    g = 7;
    c = 5;
    u = 19;
    u = u / 6;
    d = 4.5;
    d = d + d;
    t = mix(g, c + 3, 2);  /* 7 * 8 - 2 = 54 */
    if (t > 50 && u == 3) {
        t = t + 5;
    }
    return t - (-5 % 3) - 2;   /* 59 - (-2) - 2 = 59 */
}
"""


class TestExecution:
    def test_r32_assembly_executes_to_the_interpreted_result(self, r32_gg):
        assembly = compile_program(SOURCE, generator=r32_gg, target="r32")
        assert assembly.ok
        cpu = assembly.simulator()
        assert cpu.call("main", []) == 59
        assert cpu.get_global("u") == 3
        assert cpu.get_float_global("d") == pytest.approx(9.0)

    def test_run_program_threads_the_target(self, r32_gg):
        result = run_program(
            "int f(int a) { return a * 3 + 1; }", "f", (13,),
            generator=r32_gg, target="r32",
        )
        assert result == 40

    def test_r32_oracle_smoke_zero_divergences(self, r32_gg):
        report = run_oracle(SOURCE, gg_generator=r32_gg, target="r32")
        assert report.divergence is None, report.detail
        assert "pcc" not in report.observations  # two-way off-VAX
        assert {"interp", "gg"} <= set(report.observations)

    def test_vax_oracle_stays_three_way(self, gg):
        source = "int f() { return 6 * 7; }"
        report = run_oracle(source, gg_generator=gg, target="vax")
        assert report.divergence is None, report.detail
        assert "pcc" in report.observations

    def test_pipelines_narrow_with_the_target(self):
        assert pipelines_for(resolve_target("vax")) == \
            ("interp", "gg", "pcc")
        assert pipelines_for(resolve_target("r32")) == ("interp", "gg")


class TestEngineByteIdentity:
    @pytest.mark.parametrize("name", ["vax", "r32"])
    def test_every_engine_emits_identical_bytes(self, name, gg, r32_gg):
        shared = gg if name == "vax" else r32_gg
        texts = set()
        for engine in ("packed", "dict"):
            generator = GrahamGlanvilleCodeGenerator(
                target=name, bundle=shared.bundle, tables=shared.tables,
                engine=engine,
            )
            assembly = compile_program(
                SOURCE, generator=generator, target=name
            )
            assert assembly.ok
            texts.add(assembly.text)
        assert len(texts) == 1

    def test_targets_emit_genuinely_different_assembly(self, gg, r32_gg):
        source = "int f(int a, int b) { return a + b; }"
        vax_text = compile_program(source, generator=gg).text
        r32_text = compile_program(
            source, generator=r32_gg, target="r32"
        ).text
        assert vax_text != r32_text
        assert "addl3" in vax_text and "addl3" not in r32_text
        assert "add.l" in r32_text and "add.l" not in vax_text


class TestSingleTargetAssumptionsRemoved:
    def test_generator_and_target_must_agree(self, gg):
        with pytest.raises(ValueError, match="target"):
            compile_program("int f() { return 1; }",
                            generator=gg, target="r32")

    def test_pcc_backend_refuses_non_vax_targets(self):
        with pytest.raises(ValueError, match="VAX assembly only"):
            compile_program("int f() { return 1; }",
                            backend="pcc", target="r32")

    def test_pcc_backend_still_serves_vax(self):
        assembly = compile_program(
            "int f() { return 2 + 3; }", backend="pcc", target="vax"
        )
        assert assembly.ok
        assert assembly.simulator().call("f", []) == 5


#: A ``?:`` value held in a phase-1 register under a 3-use hint, after
#: a call: a first reservation of that register spends its uses, a
#: second one arrives before the statement boundary, and the boundary
#: must not release the second.  The stale release once let the next
#: statement load a parameter into the reserved register.
REHINTED = """
int g0;
int f2(int p0, int p1) { return 0; }
int f3(int p0, int p1) {
    int x;
    x = f2(g0, 67);
    x = ((0 + (27 * (94 + (p1 + p0)))) - (0 ? 42 : 13));
    return x;
}
"""


def test_a_rereserved_phase1_register_outlives_the_boundary(r32_gg):
    report = run_oracle(REHINTED, gg_generator=r32_gg)
    assert report.ok, (report.divergence, report.detail)
    out = compile_program(REHINTED, generator=r32_gg)
    assert out.simulator().call("f3", [5, 7]) == 27 * (94 + 12) - 13
