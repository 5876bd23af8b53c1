"""Unit tests for the PCC-style baseline code generator."""

import pytest

from repro.ir import (
    Cond, Forest, MachineType, assign, cbranch, cmp, const, div, minus,
    mod, mul, name, plus,
)
from repro.pcc import PccCodeGenerator, pcc_compile

L = MachineType.LONG


def compile_one(tree):
    result = pcc_compile(Forest([tree], name="t"))
    return [line.strip() for line in result.unit.body_lines
            if not line.endswith(":")]


class TestTemplates:
    def test_simple_move(self):
        assert compile_one(assign(name("a", L), name("b", L))) == ["movl _b,_a"]

    def test_clear(self):
        assert compile_one(assign(name("a", L), const(0, L))) == ["clrl _a"]

    def test_three_address_into_memory(self):
        lines = compile_one(assign(name("a", L),
                                   plus(name("b", L), name("c", L), L)))
        assert lines == ["addl3 _b,_c,_a"]

    def test_two_address_when_dest_matches(self):
        lines = compile_one(assign(name("a", L),
                                   plus(name("b", L), name("a", L), L)))
        assert lines == ["addl2 _b,_a"]

    def test_inc_template(self):
        lines = compile_one(assign(name("a", L),
                                   plus(const(1, L), name("a", L), L)))
        assert lines == ["incl _a"]

    def test_dec_via_sub_to_add_canonicalization(self):
        lines = compile_one(assign(name("a", L),
                                   minus(name("a", L), const(1, L), L)))
        # 1b turns a-1 into (-1)+a; no dec template fires on that shape,
        # but the add must still be two-address
        assert lines in (["decl _a"], ["addl2 $-1,_a"])

    def test_compare_and_branch(self):
        lines = compile_one(cbranch(
            cmp(Cond.LT, name("x", L), name("y", L)), "L1"))
        assert lines == ["cmpl _x,_y", "jlss L1"]

    def test_tst(self):
        lines = compile_one(cbranch(
            cmp(Cond.NE, name("x", L), const(0, L)), "L1"))
        assert lines == ["tstl _x", "jneq L1"]

    def test_mod_expansion(self):
        lines = compile_one(assign(name("a", L),
                                   mod(name("b", L), name("c", L), L)))
        assert any(line.startswith("divl3") for line in lines)
        assert any(line.startswith("mull2") for line in lines)
        assert any(line.startswith("subl3") for line in lines)

    def test_no_indexed_mode(self):
        """PCC (as modelled) has no displacement-indexed template: array
        stores go through explicit address arithmetic."""
        from repro.ir import dreg, indir

        address = plus(plus(const(-20), dreg("fp"), L),
                       mul(const(4, L), dreg("r6", L), L), L)
        lines = compile_one(assign(indir(L, address), name("x", L)))
        assert not any("[" in line for line in lines)
        assert len(lines) >= 3


class TestRegisterDiscipline:
    def test_registers_recycled_between_statements(self):
        forest = Forest([
            assign(name("a", L), mul(plus(name("b", L), name("c", L), L),
                                     name("d", L), L)),
            assign(name("e", L), mul(plus(name("f", L), name("g", L), L),
                                     name("h", L), L)),
        ], name="t")
        result = pcc_compile(forest)
        text = result.unit.listing()
        # both statements should use r0 (freed at the boundary)
        assert text.count("r0") >= 2
        assert "r4" not in text

    def test_result_metadata(self):
        result = pcc_compile(Forest([assign(name("a", L), const(1, L))],
                                    name="t"))
        assert result.statements == 1
        assert result.instruction_count == 1
        assert result.seconds >= 0
        assert "_t:" in result.assembly


def test_an_and_of_deep_operands_fits_the_registers():
    """``a & b`` with both operands in registers used to hold them and
    the complemented mask while allocating a fourth register: a deep
    tree on each side then ran the six allocatable registers out.  The
    mask now becomes the result."""
    from repro.compile import compile_program
    from repro.fuzz.oracle import run_oracle

    source = (
        "int g0; int g2; int arr0[16];\n"
        "int f1(int p0, int p1) { register int i; int j; int z;\n"
        "  z = 0; i = 0; j = 3;\n"
        "  arr0[i] = ((j << 5) & (((g0 & g2) | (z - z)) - "
        "((p0 * 21) & (83 % 10))));\n"
        "  return arr0[i]; }\n"
    )
    out = compile_program(source, backend="pcc")
    assert out.ok
    assert run_oracle(source).ok
    assert out.simulator().call("f1", [5, 0]) == (3 << 5) & -((5 * 21) & 3)
