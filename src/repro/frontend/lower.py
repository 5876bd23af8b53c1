"""Lowering: C-subset AST to PCC-style IR forests.

This plays the part of the PCC first pass: symbol resolution, frame
layout, type computation, and the translation into generic-operator
expression trees.  It deliberately leaves conversions implicit wherever
the real front ends did ("the front ends rarely generate the conversion
operators", section 6.4) — phase 1b and the grammar cope.

One :class:`FunctionLowerer` lowers one routine, on either of two
schedules.  :func:`lower_program` (and :func:`compile_c`) lowers every
routine up front and keeps the forests — what the interpreter, the
oracle and the benchmark's layer-by-layer replay want.  The compile path
(:func:`repro.compile.compile_program`, its pool workers and the compile
service) wraps the AST in an on-demand :class:`CompiledProgram` instead:
a routine is lowered when its forest is asked for and the forest is not
kept, so an incremental compile lowers only its cache misses and a
clean build holds one routine's IR at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.ops import Cond, Op
from ..ir.tree import Forest, LabelDef, Node
from ..ir.types import MachineType, integer_promote
from ..targets.base import Machine
from ..targets.registry import resolve_target
from . import cast
from .cast import CType


class LowerError(Exception):
    """A semantic error: undeclared name, bad lvalue, type misuse."""


_REL_CONDS = {
    "==": Cond.EQ, "!=": Cond.NE,
    "<": Cond.LT, "<=": Cond.LE, ">": Cond.GT, ">=": Cond.GE,
}
_UNSIGNED_CONDS = {
    Cond.LT: Cond.LTU, Cond.LE: Cond.LEU,
    Cond.GT: Cond.GTU, Cond.GE: Cond.GEU,
}
_BINOPS = {
    "+": Op.PLUS, "-": Op.MINUS, "*": Op.MUL, "/": Op.DIV, "%": Op.MOD,
    "&": Op.AND, "|": Op.OR, "^": Op.XOR, "<<": Op.LSH, ">>": Op.RSH,
}


@dataclass
class Symbol:
    name: str
    ty: CType
    kind: str               # "global" | "local" | "param" | "register"
    offset: int = 0         # frame/arg offset for local/param
    register: str = ""      # for register variables


class CompiledProgram:
    """All routines of one source file, plus global-data layout.

    ``order`` names the routines in source order and ``globals`` maps
    each global to its C type.  :meth:`forest` gives one routine's IR.
    Made directly from an AST, the program is *on demand*: every
    :meth:`forest` call lowers the routine afresh and keeps nothing.
    :func:`lower_program` returns one whose forests were all lowered
    once, up front.  :attr:`forests` holds every forest either way.
    """

    def __init__(self, program: cast.Program, machine: Machine) -> None:
        self.globals: Dict[str, CType] = {}
        self._symbols: Dict[str, Symbol] = {}
        for decl in program.globals:
            self._symbols[decl.name] = Symbol(decl.name, decl.ty, "global")
            self.globals[decl.name] = decl.ty
        self.order: List[str] = [func.name for func in program.functions]
        self._functions = {func.name: func for func in program.functions}
        self._machine = machine
        self._forests: Optional[Dict[str, Forest]] = None

    def lower(self, func: cast.FuncDef) -> Forest:
        """Lower *func* against this program's globals and machine."""
        return FunctionLowerer(func, self._symbols, self._machine).lower()

    def forest(self, name: str) -> Forest:
        if self._forests is None:
            return self.lower(self._functions[name])
        return self._forests[name]

    @property
    def forests(self) -> Dict[str, Forest]:
        """Every routine's forest by name (lowered now, on demand)."""
        if self._forests is None:
            return {name: self.lower(func)
                    for name, func in self._functions.items()}
        return self._forests

    def node_count(self, name: str) -> int:
        """AST nodes in routine *name*: its size, known without
        lowering it."""
        return cast.node_count(self._functions[name])


class FunctionLowerer:
    def __init__(
        self,
        func: cast.FuncDef,
        globals_: Dict[str, Symbol],
        machine: Machine,
    ) -> None:
        self.func = func
        self.machine = machine
        self.scope: Dict[str, Symbol] = dict(globals_)
        self.forest = Forest(name=func.name)
        self._frame_offset = 0
        self._break_stack: List[str] = []
        self._continue_stack: List[str] = []
        self._register_vars = [r for r in ("r11", "r10", "r9", "r8", "r7", "r6")]

    # ------------------------------------------------------------ frames
    def _declare_params(self, params) -> None:
        # VAX calls convention: 4(ap) is the first argument; integers and
        # pointers occupy one longword each, doubles two
        offset = 4
        for param in params:
            self.scope[param.name] = Symbol(param.name, param.ty, "param",
                                            offset=offset)
            size = param.ty.machine_type.size
            offset += max(4, size if param.ty.machine_type.is_float else 4)

    def _declare_local(self, decl: cast.VarDecl) -> None:
        if decl.register and decl.ty.is_scalar and self._register_vars:
            register = self._register_vars.pop(0)
            self.scope[decl.name] = Symbol(decl.name, decl.ty, "register",
                                           register=register)
            return
        size = decl.ty.size()
        align = min(4, max(1, decl.ty.machine_type.size))
        self._frame_offset += size
        self._frame_offset += (-self._frame_offset) % align
        self.scope[decl.name] = Symbol(decl.name, decl.ty, "local",
                                       offset=-self._frame_offset)

    # ------------------------------------------------------------ driver
    def lower(self) -> Forest:
        self._declare_params(self.func.params)
        self._lower_block(self.func.body)
        return self.forest

    def _lower_block(self, block: cast.Block) -> None:
        for decl in block.decls:
            self._declare_local(decl)
        for stmt in block.stmts:
            self._lower_stmt(stmt)

    # -------------------------------------------------------- statements
    def _lower_stmt(self, stmt: cast.Stmt) -> None:
        if isinstance(stmt, cast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, cast.ExprStmt):
            if stmt.expr is None:
                return
            tree, _ = self._rvalue(stmt.expr)
            self.forest.add(Node(Op.EXPR, tree.ty, [tree]))
        elif isinstance(stmt, cast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, cast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, cast.DoWhile):
            self._lower_do(stmt)
        elif isinstance(stmt, cast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, cast.Return):
            if stmt.value is None:
                value = Node(Op.CONST, MachineType.LONG, value=0)
                self.forest.add(Node(Op.RETURN, MachineType.LONG, [value]))
            else:
                tree, ty = self._rvalue(stmt.value)
                # the value travels in r0 at the declared return width;
                # a narrower value widens through the grammar's chains
                ret_ty = self.func.return_type
                ret_mt = MachineType.LONG if ret_ty.is_void \
                    else ret_ty.machine_type
                self.forest.add(Node(Op.RETURN, ret_mt, [tree]))
        elif isinstance(stmt, cast.Goto):
            self._jump(f"U{self.func.name}_{stmt.label}")
        elif isinstance(stmt, cast.Labeled):
            self.forest.add(LabelDef(f"U{self.func.name}_{stmt.label}"))
            self._lower_stmt(stmt.stmt)
        elif isinstance(stmt, cast.Break):
            if not self._break_stack:
                raise LowerError(f"line {stmt.line}: break outside a loop")
            self._jump(self._break_stack[-1])
        elif isinstance(stmt, cast.Continue):
            if not self._continue_stack:
                raise LowerError(f"line {stmt.line}: continue outside a loop")
            self._jump(self._continue_stack[-1])
        else:
            raise LowerError(f"unhandled statement {type(stmt).__name__}")

    def _jump(self, label: str) -> None:
        self.forest.add(
            Node(Op.JUMP, MachineType.LONG,
                 [Node(Op.LABEL, MachineType.LONG, value=label)])
        )

    def _branch_if_false(self, cond: cast.Expr, target: str) -> None:
        tree, _ = self._rvalue(cond)
        negated = Node(Op.NOT, MachineType.LONG, [tree])
        self.forest.add(
            Node(Op.CBRANCH, MachineType.LONG,
                 [negated, Node(Op.LABEL, MachineType.LONG, value=target)])
        )

    def _lower_if(self, stmt: cast.If) -> None:
        else_label = self.forest.new_label()
        self._branch_if_false(stmt.cond, else_label)
        self._lower_stmt(stmt.then)
        if stmt.other is not None:
            end_label = self.forest.new_label()
            self._jump(end_label)
            self.forest.add(LabelDef(else_label))
            self._lower_stmt(stmt.other)
            self.forest.add(LabelDef(end_label))
        else:
            self.forest.add(LabelDef(else_label))

    def _lower_while(self, stmt: cast.While) -> None:
        top = self.forest.new_label()
        end = self.forest.new_label()
        self.forest.add(LabelDef(top))
        self._branch_if_false(stmt.cond, end)
        self._break_stack.append(end)
        self._continue_stack.append(top)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._jump(top)
        self.forest.add(LabelDef(end))

    def _lower_do(self, stmt: cast.DoWhile) -> None:
        top = self.forest.new_label()
        end = self.forest.new_label()
        step = self.forest.new_label()
        self.forest.add(LabelDef(top))
        self._break_stack.append(end)
        self._continue_stack.append(step)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self.forest.add(LabelDef(step))
        tree, _ = self._rvalue(stmt.cond)
        self.forest.add(
            Node(Op.CBRANCH, MachineType.LONG,
                 [tree, Node(Op.LABEL, MachineType.LONG, value=top)])
        )
        self.forest.add(LabelDef(end))

    def _lower_for(self, stmt: cast.For) -> None:
        top = self.forest.new_label()
        step_label = self.forest.new_label()
        end = self.forest.new_label()
        if stmt.init is not None:
            tree, _ = self._rvalue(stmt.init)
            self.forest.add(Node(Op.EXPR, tree.ty, [tree]))
        self.forest.add(LabelDef(top))
        if stmt.cond is not None:
            self._branch_if_false(stmt.cond, end)
        self._break_stack.append(end)
        self._continue_stack.append(step_label)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self.forest.add(LabelDef(step_label))
        if stmt.step is not None:
            tree, _ = self._rvalue(stmt.step)
            self.forest.add(Node(Op.EXPR, tree.ty, [tree]))
        self._jump(top)
        self.forest.add(LabelDef(end))

    # --------------------------------------------------------- expressions
    def _symbol(self, name: str, line: int) -> Symbol:
        try:
            return self.scope[name]
        except KeyError:
            raise LowerError(f"line {line}: undeclared identifier {name!r}") from None

    def _rvalue(self, expr: cast.Expr) -> Tuple[Node, CType]:
        """Lower an expression for its value: (IR tree, C type)."""
        if isinstance(expr, cast.IntLit):
            return Node(Op.CONST, expr.ty, value=expr.value), CType(expr.ty)
        if isinstance(expr, cast.FloatLit):
            return Node(Op.CONST, expr.ty, value=expr.value), CType(expr.ty)
        if isinstance(expr, cast.Ident):
            symbol = self._symbol(expr.name, expr.line)
            if symbol.ty.array is not None:
                return self._address_of_symbol(symbol), CType(symbol.ty.base,
                                                              symbol.ty.pointer + 1)
            return self._load_symbol(symbol), symbol.ty
        if isinstance(expr, cast.Unary):
            return self._unary(expr)
        if isinstance(expr, cast.Postfix):
            return self._incdec(expr.operand, expr.op, post=True)
        if isinstance(expr, cast.Binary):
            return self._binary(expr)
        if isinstance(expr, cast.Assign):
            return self._assign(expr)
        if isinstance(expr, cast.Ternary):
            cond, _ = self._rvalue(expr.cond)
            then, then_ty = self._rvalue(expr.then)
            other, other_ty = self._rvalue(expr.other)
            ty = self._merge_types(then_ty, other_ty)
            return Node(Op.SELECT, ty.machine_type, [cond, then, other]), ty
        if isinstance(expr, cast.Index):
            address, element = self._index_address(expr)
            return Node(Op.INDIR, element.machine_type, [address]), element
        if isinstance(expr, cast.CallExpr):
            args = [self._rvalue(a)[0] for a in expr.args]
            return (Node(Op.CALL, MachineType.LONG, args, value=expr.callee),
                    CType(MachineType.LONG))
        if isinstance(expr, cast.Cast):
            inner, inner_ty = self._rvalue(expr.operand)
            target = expr.ty.machine_type
            if target is inner.ty:
                return inner, expr.ty
            if expr.ty.is_pointer or inner_ty.is_pointer:
                inner.ty = target  # pointer reinterpretation is free
                return inner, expr.ty
            return Node(Op.CONV, target, [inner]), expr.ty
        raise LowerError(f"unhandled expression {type(expr).__name__}")

    def _merge_types(self, left: CType, right: CType) -> CType:
        if left.is_pointer:
            return left
        if right.is_pointer:
            return right
        return CType(integer_promote(left.machine_type, right.machine_type))

    # --------------------------------------------------------------- unary
    def _unary(self, expr: cast.Unary) -> Tuple[Node, CType]:
        if expr.op in ("++pre", "--pre"):
            return self._incdec(expr.operand, expr.op[:2], post=False)
        if expr.op == "&":
            address, ty = self._address(expr.operand)
            return address, CType(ty.base, ty.pointer + 1)
        if expr.op == "*":
            pointer, ty = self._rvalue(expr.operand)
            element = ty.element()
            return Node(Op.INDIR, element.machine_type, [pointer]), element
        operand, ty = self._rvalue(expr.operand)
        if expr.op == "-":
            return Node(Op.NEG, ty.machine_type, [operand]), ty
        if expr.op == "~":
            return Node(Op.COMPL, ty.machine_type, [operand]), ty
        if expr.op == "!":
            return (Node(Op.NOT, MachineType.LONG, [operand]),
                    CType(MachineType.LONG))
        raise LowerError(f"unhandled unary {expr.op!r}")

    def _incdec(self, target: cast.Expr, op: str, post: bool) -> Tuple[Node, CType]:
        lvalue, ty = self._lvalue(target)
        step = ty.element_size() if ty.is_pointer else 1
        table = {
            ("++", True): Op.POSTINC, ("--", True): Op.POSTDEC,
            ("++", False): Op.PREINC, ("--", False): Op.PREDEC,
        }
        ir_op = table[(op, post)]
        amount = Node(Op.CONST, MachineType.LONG, value=step)
        return Node(ir_op, ty.machine_type, [lvalue, amount]), ty

    # -------------------------------------------------------------- binary
    def _binary(self, expr: cast.Binary) -> Tuple[Node, CType]:
        if expr.op in ("&&", "||"):
            left, _ = self._rvalue(expr.left)
            right, _ = self._rvalue(expr.right)
            op = Op.ANDAND if expr.op == "&&" else Op.OROR
            return (Node(op, MachineType.LONG, [left, right]),
                    CType(MachineType.LONG))
        if expr.op in _REL_CONDS:
            left, left_ty = self._rvalue(expr.left)
            right, right_ty = self._rvalue(expr.right)
            promoted = integer_promote(left.ty, right.ty)
            cond = _REL_CONDS[expr.op]
            if (not promoted.signed or left_ty.is_pointer or right_ty.is_pointer):
                cond = _UNSIGNED_CONDS.get(cond, cond)
            return (Node(Op.CMP, promoted, [left, right], cond=cond),
                    CType(MachineType.LONG))

        left, left_ty = self._rvalue(expr.left)
        right, right_ty = self._rvalue(expr.right)

        # pointer arithmetic
        if expr.op == "+" and left_ty.is_pointer:
            return self._pointer_add(left, left_ty, right), left_ty
        if expr.op == "+" and right_ty.is_pointer:
            return self._pointer_add(right, right_ty, left), right_ty
        if expr.op == "-" and left_ty.is_pointer and right_ty.is_pointer:
            diff = Node(Op.MINUS, MachineType.LONG, [left, right])
            size = Node(Op.CONST, MachineType.LONG, value=left_ty.element_size())
            return (Node(Op.DIV, MachineType.LONG, [diff, size]),
                    CType(MachineType.LONG))
        if expr.op == "-" and left_ty.is_pointer:
            scaled = self._scale(right, left_ty.element_size())
            return (Node(Op.MINUS, left.ty, [left, scaled])), left_ty

        ir_op = _BINOPS[expr.op]
        if expr.op in ("<<", ">>"):
            ty = CType(self._promote_int(left.ty))
            return Node(ir_op, ty.machine_type, [left, right]), ty
        promoted = self._promote_int(integer_promote(left.ty, right.ty))
        return Node(ir_op, promoted, [left, right]), CType(promoted)

    @staticmethod
    def _promote_int(ty: MachineType) -> MachineType:
        """C's integer promotions: sub-int operands compute as int."""
        if ty.is_integer and ty.size < 4:
            return MachineType.LONG if ty.signed else MachineType.ULONG
        return ty

    def _pointer_add(self, pointer: Node, ty: CType, index: Node) -> Node:
        return Node(Op.PLUS, pointer.ty,
                    [pointer, self._scale(index, ty.element_size())])

    @staticmethod
    def _scale(index: Node, size: int) -> Node:
        if size == 1:
            return index
        if index.op is Op.CONST and isinstance(index.value, int):
            return Node(Op.CONST, MachineType.LONG, value=index.value * size)
        factor = Node(Op.CONST, MachineType.LONG, value=size)
        return Node(Op.MUL, MachineType.LONG, [factor, index])

    # ---------------------------------------------------------- assignment
    def _assign(self, expr: cast.Assign) -> Tuple[Node, CType]:
        if expr.op == "=":
            lvalue, ty = self._lvalue(expr.target)
            value, value_ty = self._rvalue(expr.value)
            if ty.is_pointer and not value_ty.is_pointer:
                value.ty = ty.machine_type
            return Node(Op.ASSIGN, ty.machine_type, [lvalue, value]), ty

        # compound assignment: a op= b  ==>  a = a op b, with the lvalue
        # cloned (simple lvalues) or its address captured in a temporary
        # (complex lvalues), the section 6.5 transformation.
        op_text = expr.op[:-1]
        lvalue, ty = self._lvalue(expr.target)
        if self._is_simple_lvalue(lvalue):
            read = lvalue.clone()
        else:
            address = lvalue.kids[0]
            temp = Node(Op.TEMP, MachineType.ULONG, value=self.forest.new_temp())
            self.forest.add(Node(Op.ASSIGN, MachineType.ULONG,
                                 [temp, address]))
            lvalue = Node(Op.INDIR, ty.machine_type, [temp.clone()])
            read = lvalue.clone()
        value, value_ty = self._rvalue(expr.value)
        if ty.is_pointer and op_text in ("+", "-"):
            value = self._scale(value, ty.element_size())
        ir_op = _BINOPS[op_text]
        combined = Node(ir_op, ty.machine_type, [read, value])
        return Node(Op.ASSIGN, ty.machine_type, [lvalue, combined]), ty

    @staticmethod
    def _is_simple_lvalue(lvalue: Node) -> bool:
        if lvalue.op in (Op.NAME, Op.TEMP, Op.DREG, Op.REG):
            return True
        if lvalue.op is Op.INDIR:
            address = lvalue.kids[0]
            if address.op in (Op.DREG, Op.REG, Op.NAME, Op.TEMP):
                return True
            if (address.op is Op.PLUS
                    and address.kids[0].op is Op.CONST
                    and address.kids[1].op is Op.DREG):
                return True
        return False

    # -------------------------------------------------------------- places
    def _load_symbol(self, symbol: Symbol) -> Node:
        mt = symbol.ty.machine_type
        if symbol.kind == "global":
            return Node(Op.NAME, mt, value=symbol.name)
        if symbol.kind == "register":
            return Node(Op.DREG, mt, value=symbol.register)
        return Node(Op.INDIR, mt, [self._frame_address(symbol)])

    def _frame_address(self, symbol: Symbol) -> Node:
        base = self.machine.frame_pointer if symbol.kind == "local" else self.machine.arg_pointer
        return Node(Op.PLUS, MachineType.LONG, [
            Node(Op.CONST, MachineType.LONG, value=symbol.offset),
            Node(Op.DREG, MachineType.LONG, value=base),
        ])

    def _address_of_symbol(self, symbol: Symbol) -> Node:
        if symbol.kind == "global":
            return Node(Op.ADDROF, MachineType.ULONG,
                        [Node(Op.NAME, symbol.ty.machine_type, value=symbol.name)])
        if symbol.kind == "register":
            raise LowerError(f"cannot take the address of register variable "
                             f"{symbol.name!r}")
        return self._frame_address(symbol)

    def _lvalue(self, expr: cast.Expr) -> Tuple[Node, CType]:
        if isinstance(expr, cast.Ident):
            symbol = self._symbol(expr.name, expr.line)
            if symbol.ty.array is not None:
                raise LowerError(f"line {expr.line}: array {expr.name!r} is "
                                 "not assignable")
            return self._load_symbol(symbol), symbol.ty
        if isinstance(expr, cast.Unary) and expr.op == "*":
            pointer, ty = self._rvalue(expr.operand)
            element = ty.element()
            return Node(Op.INDIR, element.machine_type, [pointer]), element
        if isinstance(expr, cast.Index):
            address, element = self._index_address(expr)
            return Node(Op.INDIR, element.machine_type, [address]), element
        raise LowerError(f"line {expr.line}: not an lvalue: "
                         f"{type(expr).__name__}")

    def _address(self, expr: cast.Expr) -> Tuple[Node, CType]:
        if isinstance(expr, cast.Ident):
            symbol = self._symbol(expr.name, expr.line)
            return self._address_of_symbol(symbol), symbol.ty
        if isinstance(expr, cast.Unary) and expr.op == "*":
            pointer, ty = self._rvalue(expr.operand)
            return pointer, ty.element()
        if isinstance(expr, cast.Index):
            address, element = self._index_address(expr)
            return address, element
        raise LowerError(f"line {expr.line}: cannot take this address")

    def _index_address(self, expr: cast.Index) -> Tuple[Node, CType]:
        base, base_ty = self._rvalue(expr.base)
        if not base_ty.is_pointer:
            raise LowerError(f"line {expr.line}: indexing a non-pointer")
        index, _ = self._rvalue(expr.index)
        element = base_ty.element()
        scaled = self._scale(index, element.machine_type.size)
        return (Node(Op.PLUS, MachineType.LONG, [base, scaled]), element)


def lower_program(
    program: cast.Program, machine: Optional[Machine] = None
) -> CompiledProgram:
    """Lower a parsed program into IR forests plus global layout, every
    routine now and in source order.

    ``machine`` defaults to the session's resolved target (``REPRO_TARGET``
    or the registry default), never to a hard-wired machine.
    """
    if machine is None:
        machine = resolve_target(None).machine
    compiled = CompiledProgram(program, machine)
    forests: Dict[str, Forest] = {}
    for func in program.functions:
        forests[func.name] = compiled.lower(func)
    compiled._forests = forests
    return compiled


def compile_c(source: str, machine: Optional[Machine] = None) -> CompiledProgram:
    """Parse and lower C-subset source in one call."""
    from .parser import parse

    return lower_program(parse(source), machine)
