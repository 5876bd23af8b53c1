"""Unit tests for the shift/reduce pattern-matching engine."""

import pytest

from repro.grammar import read_grammar
from repro.ir import Cond, MachineType, assign, cbranch, cmp, const, name, plus
from repro.matcher import (
    Matcher, SemanticActions, SyntacticBlock, Tracer, format_trace, void,
)
from repro.tables import construct_tables

L = MachineType.LONG

TEXT = """
%start stmt
stmt <- Assign.l lval.l rval.l :: emit "movl %3,%2"
reg.l <- Plus.l rval.l rval.l :: emit "addl3 %2,%3,%0"
lval.l <- Name.l :: encap
rval.l <- lval.l
rval.l <- reg.l
rval.l <- Const.l :: encap
"""


@pytest.fixture(scope="module")
def matcher():
    return Matcher(construct_tables(read_grammar(TEXT)))


def simple_tree():
    return assign(name("a", L), plus(const(3, L), name("b", L), L))


class TestMatching:
    def test_accepts_valid_tree(self, matcher):
        result = matcher.match_tree(simple_tree())
        assert len(result.reductions) == 7

    def test_reduction_order_is_bottom_up(self, matcher):
        result = matcher.match_tree(simple_tree())
        rendered = [str(p) for p in result.reductions]
        assert rendered[0].startswith("lval.l <- Name.l")
        assert rendered[-1].startswith("stmt <-")

    def test_chain_reductions_counted(self, matcher):
        result = matcher.match_tree(simple_tree())
        # chains here: rval.l <- lval.l (operand b) and rval.l <- reg.l;
        # rval.l <- Const.l and lval.l <- Name.l have terminal RHS
        assert result.chain_reductions == 2
        assert result.chain_reductions == sum(
            1 for p in result.reductions if p.is_chain
        )

    def test_syntactic_block_raises(self, matcher):
        # Dreg.l is not in this toy grammar
        from repro.ir import dreg

        bad = assign(name("a", L), dreg("r6", L))
        with pytest.raises(SyntacticBlock) as info:
            matcher.match_tree(bad)
        assert "state" in str(info.value)

    def test_trace_matches_appendix_format(self, matcher):
        tracer = Tracer()
        matcher.match_tree(simple_tree(), tracer)
        text = format_trace(tracer)
        assert "Action" in text and "On What" in text
        assert "shift" in text and "reduce" in text and "accept" in text
        assert tracer.shifts() == simple_tree().size()


class TestSemanticsHooks:
    def test_on_reduce_note_lands_in_trace(self):
        class Noting(SemanticActions):
            def on_reduce(self, production, kids):
                return void(), f"note:{production.lhs}"

        matcher = Matcher(construct_tables(read_grammar(TEXT)), Noting())
        tracer = Tracer()
        matcher.match_tree(simple_tree(), tracer)
        assert any("note:stmt" in e.semantic for e in tracer.entries)

    def test_descriptor_flow(self):
        class Tagging(SemanticActions):
            def on_shift(self, token):
                d = void()
                d.text = token.symbol
                return d

            def on_reduce(self, production, kids):
                d = void()
                d.text = "+".join(k.text for k in kids)
                return d

        matcher = Matcher(construct_tables(read_grammar(TEXT)), Tagging())
        result = matcher.match_tree(simple_tree())
        assert "Assign.l" in result.descriptor.text


class TestPackedPath:
    """The packed integer fast path must mirror the dict loop exactly."""

    def test_same_reductions_as_dict(self):
        tables = construct_tables(read_grammar(TEXT))
        fast = Matcher(tables, engine="packed").match_tree(simple_tree())
        slow = Matcher(tables, engine="dict").match_tree(simple_tree())
        assert [p.index for p in fast.reductions] == [
            p.index for p in slow.reductions
        ]
        assert fast.chain_reductions == slow.chain_reductions

    def test_packed_syntactic_block(self):
        from repro.ir import dreg

        matcher = Matcher(construct_tables(read_grammar(TEXT)),
                          engine="packed")
        bad = assign(name("a", L), dreg("r6", L))
        with pytest.raises(SyntacticBlock) as info:
            matcher.match_tree(bad)
        assert "state" in str(info.value)

    def test_tracer_falls_back_to_dict_loop(self):
        """Tracing needs the per-entry hooks of the dict loop; a traced
        match must still record every shift."""
        matcher = Matcher(construct_tables(read_grammar(TEXT)),
                          engine="packed")
        tracer = Tracer()
        matcher.match_tree(simple_tree(), tracer)
        assert tracer.shifts() == simple_tree().size()

    def test_packed_descriptor_flow(self):
        class Tagging(SemanticActions):
            def on_shift(self, token):
                d = void()
                d.text = token.symbol
                return d

            def on_reduce(self, production, kids):
                d = void()
                d.text = "+".join(k.text for k in kids)
                return d

        matcher = Matcher(construct_tables(read_grammar(TEXT)), Tagging(),
                          engine="packed")
        result = matcher.match_tree(simple_tree())
        assert "Assign.l" in result.descriptor.text

    def test_packed_tie_resolution_calls_choose(self):
        calls = []

        class Choosy(SemanticActions):
            def choose(self, productions, kids):
                calls.append(tuple(p.index for p in productions))
                return productions[0]

        grammar = read_grammar("""
%start stmt
stmt <- Expr.l rval.l
stmt <- Expr.l other.l
rval.l <- Const.l :: encap
other.l <- Const.l :: encap
""")
        from repro.ir import Node, Op

        matcher = Matcher(construct_tables(grammar), Choosy(),
                          engine="packed")
        matcher.match_tree(Node(Op.EXPR, L, [const(3, L)]))
        assert calls, "expected a runtime tie"


class TestTieResolution:
    TIE = """
%start stmt
stmt <- Expr.l rval.l :: glue
stmt <- Expr.b bval.b :: glue
rval.l <- con.l
bval.b <- con.b
con.l <- con.b :: glue
con.b <- Const.b :: encap
con.l <- Const.l :: encap
"""

    def test_goto_filters_ties(self):
        """con.b complete under Expr.b: only bval viable; under Expr.l the
        widening chain is: goto feasibility decides, no semantics needed."""
        from repro.ir import Node, Op, expr_stmt

        tables = construct_tables(read_grammar(self.TIE, check=False))
        matcher = Matcher(tables)
        byte_tree = Node(Op.EXPR, MachineType.BYTE,
                         [const(3, MachineType.BYTE)])
        result = matcher.match_tokens(
            __import__("repro.ir", fromlist=["linearize"]).linearize(byte_tree)
        )
        assert any(p.lhs == "bval.b" for p in result.reductions)

    def test_choose_called_on_real_tie(self):
        calls = []

        class Choosy(SemanticActions):
            def choose(self, productions, kids):
                calls.append(tuple(p.index for p in productions))
                return productions[0]

        grammar = read_grammar("""
%start stmt
stmt <- Expr.l rval.l
stmt <- Expr.l other.l
rval.l <- Const.l :: encap
other.l <- Const.l :: encap
""")
        from repro.ir import Node, Op

        tables = construct_tables(grammar)
        matcher = Matcher(tables, Choosy())
        tree = Node(Op.EXPR, L, [const(3, L)])
        matcher.match_tree(tree)
        assert calls, "expected a runtime tie"
