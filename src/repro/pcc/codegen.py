"""The PCC-style second pass: an ad hoc, hand-written template matcher.

This is the baseline the paper compares against: "assembly code ...
driven by a somewhat ad hoc pattern matcher using patterns taken from a
hand generated table" (section 2).  The structure follows the real PCC:
a goal-directed recursive walk (``order``/``match`` in PCC terms) that
either finds a template whose operand shapes match the tree as it stands,
or rewrites the tree (evaluates an operand into a register) and retries.

Both code generators share the phase-1a/1b front lowering so the
comparison isolates the *instruction selection* strategies, exactly as in
the paper where both consumed the same intermediate forests.  Evaluation
ordering uses classic Sethi-Ullman numbering (PCC's ``sucomp``).

Deliberate fidelity to PCC's VAX templates of the era:

* two- and three-operand arithmetic, including memory destinations;
* ``inc``/``dec``/``clr``/``tst`` special templates;
* NO displacement-indexed addressing, NO autoincrement, NO ``moval``
  address arithmetic — index computations go through explicit multiplies
  and adds.  These are the spots where the table-driven generator's
  maximal munch wins, producing the paper's "as good or better in almost
  all cases".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..codegen.controlflow import make_control_flow_explicit
from ..codegen.expand import expand_operators
from ..codegen.ordering import su_number
from ..codegen.output import AssemblyUnit
from ..ir.ops import Cond, Op
from ..ir.tree import Forest, LabelDef, Node
from ..ir.types import MachineType
from ..vax.machine import VAX, VaxMachine
from .shapes import Shape, is_addressable, node_shape

_BRANCH = {cond: f"j{cond.value}" for cond in Cond}

_OP3 = {
    Op.PLUS: "add", Op.MINUS: "sub", Op.MUL: "mul", Op.DIV: "div",
    Op.OR: "bis", Op.XOR: "xor",
}


class PccError(RuntimeError):
    """The ad hoc matcher ran out of rewrites — PCC's famous
    "compiler error: no match for op ..." failure mode."""


@dataclass
class PccResult:
    unit: AssemblyUnit
    seconds: float
    statements: int = 0

    @property
    def assembly(self) -> str:
        return self.unit.text()

    @property
    def instruction_count(self) -> int:
        return self.unit.instruction_count


class PccCodeGenerator:
    """A fresh instance per routine keeps register state simple."""

    def __init__(self, machine: VaxMachine = VAX) -> None:
        self.machine = machine
        self.unit: AssemblyUnit = AssemblyUnit(name="")
        self._free: List[str] = []
        self._lru: List[str] = []
        self._temp_counter = 0
        # phase-1 (Reghint) reservations: register -> remaining uses
        self._reserved: Dict[str, int] = {}
        self._pending_release: List[str] = []

    # --------------------------------------------------------------- API
    def compile(self, forest: Forest) -> PccResult:
        started = time.perf_counter()
        work = forest.clone()
        work = make_control_flow_explicit(work, self.machine)
        work = expand_operators(work)

        from ..codegen.driver import assign_temp_slots

        assign_temp_slots(work)
        self.unit = AssemblyUnit(name=forest.name)
        self._free = list(self.machine.allocatable)
        self._lru = []
        statements = 0
        for item in work.items:
            if isinstance(item, LabelDef):
                self.unit.body_lines.append(f"{item.name}:")
                continue
            statements += 1
            self._statement(item)
            # expression boundary: scratch dies, but phase-1 reservations
            # holding truth values across statements survive
            for register in self._pending_release:
                self._reserved.pop(register, None)
            self._pending_release.clear()
            self._free = [r for r in self.machine.allocatable
                          if r not in self._reserved]
            self._lru = []
        return PccResult(
            unit=self.unit,
            seconds=time.perf_counter() - started,
            statements=statements,
        )

    # ------------------------------------------------------------ emit
    def _emit(self, line: str) -> None:
        self.unit.body_lines.append(f"\t{line}")

    # -------------------------------------------------------- registers
    def _alloc(self, avoid: Tuple[str, ...] = ()) -> str:
        for register in self._free:
            if register not in avoid:
                self._free.remove(register)
                self._lru.append(register)
                return register
        raise PccError("out of registers (sucomp should prevent this)")

    def _free_reg(self, operand: str) -> None:
        register = operand.strip("()")
        if register in self._lru:
            self._lru.remove(register)
            self._free.insert(0, register)
            self._free.sort(key=self.machine.allocatable.index)
        elif register in self._pending_release:
            # a phase-1 reservation whose promised uses are all spent:
            # hand it back mid-statement.  Waiting for the statement
            # boundary starves deep expressions — three live Reghints
            # would leave only three scratch registers for the whole tree.
            self._pending_release.remove(register)
            self._reserved.pop(register, None)
            self._free.append(register)
            self._free.sort(key=self.machine.allocatable.index)

    def _is_scratch(self, operand: str) -> bool:
        return operand in self._lru

    # -------------------------------------------------------- statements
    def _statement(self, tree: Node) -> None:
        op = tree.op
        if op in (Op.ASSIGN, Op.RASSIGN):
            dest, src = (tree.kids if op is Op.ASSIGN else reversed(tree.kids))
            self._assign(dest, src, tree.ty)
        elif op is Op.CBRANCH:
            self._cbranch(tree)
        elif op is Op.JUMP:
            self._emit(f"jbr {tree.kids[0].value}")
        elif op is Op.ARG:
            operand = self._expr(tree.kids[0])
            if tree.ty.is_float:
                self._emit(f"mov{tree.ty.suffix} {operand},-(sp)")
            else:
                self._emit(f"pushl {operand}")
            self._free_reg(operand)
        elif op is Op.CALL:
            argc = tree.kids[0].value if tree.kids else 0
            self._emit(f"calls ${argc},_{tree.value}")
        elif op is Op.RETURN:
            operand = self._expr(tree.kids[0])
            if operand != "r0":
                self._emit(f"mov{tree.ty.suffix} {operand},r0")
            self._emit("ret")
        elif op is Op.EXPR:
            if not tree.kids:
                return
            operand = self._expr(tree.kids[0])
            self._free_reg(operand)
        elif op is Op.REGHINT:
            register = str(tree.kids[0].value)
            uses = tree.value if isinstance(tree.value, int) and tree.value > 0 else 1
            self._reserved[register] = uses
            if register in self._free:
                self._free.remove(register)
        else:
            raise PccError(f"no match for statement op {op.name}")

    def _assign(self, dest: Node, src: Node, ty: MachineType) -> None:
        # PCC has no autoincrement templates: expand *p++ = v into a
        # store through (rN) followed by an explicit pointer bump
        post_bump = None
        if dest.op is Op.INDIR and dest.kids[0].op in (Op.POSTINC, Op.PREDEC):
            inner = dest.kids[0]
            register = str(inner.kids[0].value)
            step = inner.kids[1].value
            if inner.op is Op.PREDEC:
                self._emit(f"subl2 ${step},{register}")
            else:
                post_bump = f"addl2 ${step},{register}"
            dest = Node(Op.INDIR, dest.ty,
                        [Node(Op.DREG, MachineType.LONG, value=register)])
        self._assign_inner(dest, src, ty)
        if post_bump is not None:
            self._emit(post_bump)

    def _assign_inner(self, dest: Node, src: Node, ty: MachineType) -> None:
        suffix = ty.suffix

        if src.op is Op.CALL:
            # Emit the call before rendering the destination: condensing
            # a computed destination loads an address register, and the
            # callee may clobber any allocatable register.  r0 carries
            # the return value while the address forms, so it is
            # withheld from the scratch pool for the duration.
            argc = src.kids[0].value if src.kids else 0
            self._emit(f"calls ${argc},_{src.value}")
            had_r0 = "r0" in self._free
            if had_r0:
                self._free.remove("r0")
            dest_text = self._lvalue(dest)
            if had_r0:
                self._free.insert(0, "r0")
                self._free.sort(key=self.machine.allocatable.index)
            self._emit(f"mov{suffix} r0,{dest_text}")
            return

        dest_text = self._lvalue(dest)

        # template: op3 directly into memory when both operands addressable
        if src.op in _OP3 and src.ty.suffix == suffix:
            left, right = src.kids
            if (
                is_addressable(left) and is_addressable(right)
                and left.ty.suffix == suffix and right.ty.suffix == suffix
            ):
                l_text = self._operand(left)
                r_text = self._operand(right)
                # inc/dec/2-op special templates first (PCC had these)
                if src.op is Op.PLUS and l_text == "$1" and r_text == dest_text:
                    self._emit(f"inc{suffix} {dest_text}")
                elif src.op is Op.PLUS and r_text == "$1" and l_text == dest_text:
                    self._emit(f"inc{suffix} {dest_text}")
                elif src.op is Op.MINUS and r_text == "$1" and l_text == dest_text:
                    self._emit(f"dec{suffix} {dest_text}")
                elif src.op in (Op.PLUS, Op.MUL, Op.OR, Op.XOR) and r_text == dest_text:
                    self._two_op(src.op, suffix, l_text, dest_text)
                elif src.op in (Op.PLUS, Op.MUL, Op.OR, Op.XOR, Op.MINUS, Op.DIV) \
                        and l_text == dest_text:
                    self._two_op(src.op, suffix, r_text, dest_text)
                else:
                    self._three_op(src.op, suffix, l_text, r_text, dest_text)
                self._free_reg(l_text)
                self._free_reg(r_text)
                return

        operand = self._expr(src, want=ty)
        if operand == dest_text:
            return
        if src.op is Op.CONST and src.value == 0:
            self._emit(f"clr{suffix} {dest_text}")
        elif src.op is Op.PLUS and self._inc_template(src, dest_text, suffix):
            pass
        else:
            self._emit(f"mov{suffix} {operand},{dest_text}")
        self._free_reg(operand)

    def _inc_template(self, src: Node, dest_text: str, suffix: str) -> bool:
        """PCC's inc/dec special templates for a = a +/- 1."""
        left, right = src.kids
        if (
            left.op is Op.CONST and left.value == 1
            and self._operand_if_addressable(right) == dest_text
        ):
            self._emit(f"inc{suffix} {dest_text}")
            return True
        return False

    def _cbranch(self, tree: Node) -> None:
        test, label = tree.kids
        cond = test.cond or Cond.NE
        left, right = test.kids
        if test.op is Op.RCMP:
            left, right = right, left
        suffix = test.ty.suffix
        l_text = self._expr(left, want=test.ty)
        if right.op is Op.CONST and right.value == 0:
            self._emit(f"tst{suffix} {l_text}")
        else:
            r_text = self._expr(right, want=test.ty)
            self._emit(f"cmp{suffix} {l_text},{r_text}")
            self._free_reg(r_text)
        self._free_reg(l_text)
        self._emit(f"{_BRANCH[cond]} {label.value}")

    # ------------------------------------------------------- expressions
    def _expr(self, node: Node, want: Optional[MachineType] = None) -> str:
        """Evaluate *node*, returning the assembler operand holding it,
        widened to *want* when the context needs a wider datum."""
        text = self._expr_raw(node, want)
        if (
            want is not None
            and node.ty.kind is want.kind
            and node.ty.size < want.size
            and node.op is not Op.CONST  # immediates extend for free
        ):
            return self._widen(text, node.ty, want)
        return text

    def _expr_raw(self, node: Node, want: Optional[MachineType] = None) -> str:
        """The rewrite loop: if the node is addressable, use it in place;
        otherwise compute it (operands first, Sethi-Ullman heavier side
        first) into a register."""
        text = self._operand_if_addressable(node)
        if text is not None:
            return text

        op = node.op
        suffix = node.ty.suffix

        if op is Op.INDIR:
            inner = node.kids[0]
            if inner.op in (Op.POSTINC, Op.PREDEC):
                # expand the autoincrement read: load, then bump
                register = str(inner.kids[0].value)
                step = inner.kids[1].value
                if inner.op is Op.PREDEC:
                    self._emit(f"subl2 ${step},{register}")
                scratch = self._alloc()
                self._emit(f"mov{suffix} ({register}),{scratch}")
                if inner.op is Op.POSTINC:
                    self._emit(f"addl2 ${step},{register}")
                return scratch
            address = self._expr(inner)
            register = self._to_register(address, MachineType.LONG)
            return f"({register})"

        if op is Op.CONV:
            inner = node.kids[0]
            source = self._expr(inner)
            dest = self._alloc()
            self._emit(f"cvt{inner.ty.suffix}{suffix} {source},{dest}")
            self._free_reg(source)
            return dest

        if op in (Op.NEG, Op.COMPL):
            source = self._expr(node.kids[0])
            dest = self._alloc()
            mnemonic = "mneg" if op is Op.NEG else "mcom"
            self._emit(f"{mnemonic}{suffix} {source},{dest}")
            self._free_reg(source)
            return dest

        if op in _OP3 or op in (Op.RMINUS, Op.RDIV):
            return self._binary(node)

        if op in (Op.LSH, Op.RSH):
            return self._shift(node)

        if op is Op.MOD:
            return self._mod(node)

        if op is Op.AND:
            return self._and(node)

        if op in (Op.ASSIGN, Op.RASSIGN):
            dest, src = (node.kids if op is Op.ASSIGN else reversed(node.kids))
            self._assign(dest, src, node.ty)
            return self._lvalue(dest)

        raise PccError(f"no match for op {op.name}")

    def _binary(self, node: Node) -> str:
        op = node.op
        left, right = node.kids
        if op in (Op.RMINUS, Op.RDIV):
            op = op.unreversed
            left, right = right, left
        # sucomp: evaluate the register-hungrier side first
        if su_number(right) > su_number(left):
            r_text = self._expr(right, want=node.ty)
            l_text = self._expr(left, want=node.ty)
        else:
            l_text = self._expr(left, want=node.ty)
            r_text = self._expr(right, want=node.ty)
        suffix = node.ty.suffix

        if node.ty.is_integer and not node.ty.signed and op is Op.DIV:
            return self._unsigned_div(l_text, r_text)

        # two-operand template when one side already sits in a scratch reg
        if self._is_scratch(l_text) and op in (Op.PLUS, Op.MUL, Op.OR, Op.XOR):
            self._two_op(op, suffix, r_text, l_text)
            self._free_reg(r_text)
            return l_text
        if self._is_scratch(l_text) and op in (Op.MINUS, Op.DIV):
            self._two_op(op, suffix, r_text, l_text)
            self._free_reg(r_text)
            return l_text
        if self._is_scratch(r_text) and op in (Op.PLUS, Op.MUL, Op.OR, Op.XOR):
            self._two_op(op, suffix, l_text, r_text)
            self._free_reg(l_text)
            return r_text

        dest = self._alloc()
        self._three_op(op, suffix, l_text, r_text, dest)
        self._free_reg(l_text)
        self._free_reg(r_text)
        return dest

    def _three_op(self, op: Op, suffix: str, left: str, right: str, dest: str) -> None:
        base = _OP3[op]
        if op in (Op.MINUS, Op.DIV):
            self._emit(f"{base}{suffix}3 {right},{left},{dest}")
        else:
            self._emit(f"{base}{suffix}3 {left},{right},{dest}")

    def _two_op(self, op: Op, suffix: str, source: str, dest: str) -> None:
        base = _OP3[op]
        self._emit(f"{base}{suffix}2 {source},{dest}")

    def _shift(self, node: Node) -> str:
        source = self._expr(node.kids[0], want=MachineType.LONG)
        count = node.kids[1]
        dest = self._alloc()
        if count.op is Op.CONST:
            value = count.value if node.op is Op.LSH else -count.value
            self._emit(f"ashl ${value},{source},{dest}")
        else:
            count_text = self._expr(count)
            if node.op is Op.RSH:
                negated = self._alloc()
                self._emit(f"mnegl {count_text},{negated}")
                self._free_reg(count_text)
                count_text = negated
            self._emit(f"ashl {count_text},{source},{dest}")
            self._free_reg(count_text)
        self._free_reg(source)
        return dest

    def _mod(self, node: Node) -> str:
        left = self._expr(node.kids[0], want=MachineType.LONG)
        right = self._expr(node.kids[1], want=MachineType.LONG)
        if not node.ty.signed:
            return self._library_call("_urem", left, right)
        # PCC emitted the div/mul/sub expansion for %
        quotient = self._alloc()
        self._emit(f"divl3 {right},{left},{quotient}")
        self._emit(f"mull2 {right},{quotient}")
        dest = self._alloc()
        self._emit(f"subl3 {quotient},{left},{dest}")
        self._free_reg(quotient)
        self._free_reg(left)
        self._free_reg(right)
        return dest

    def _unsigned_div(self, left: str, right: str) -> str:
        return self._library_call("_udiv", left, right)

    def _library_call(self, callee: str, left: str, right: str) -> str:
        self._emit(f"pushl {right}")
        self._emit(f"pushl {left}")
        self._emit(f"calls $2,{callee}")
        self._free_reg(left)
        self._free_reg(right)
        dest = self._alloc(avoid=("r0",))
        self._emit(f"movl r0,{dest}")
        return dest

    def _and(self, node: Node) -> str:
        left, right = node.kids
        suffix = node.ty.suffix
        if left.op is Op.CONST:
            other = self._expr(right, want=node.ty)
            dest = self._alloc()
            self._emit(f"bic{suffix}3 ${~left.value},{other},{dest}")
            self._free_reg(other)
            return dest
        l_text = self._expr(left, want=node.ty)
        r_text = self._expr(right, want=node.ty)
        mask = self._alloc()
        self._emit(f"mcom{suffix} {r_text},{mask}")
        # The complemented mask becomes the result: holding the right
        # operand, the left operand and the mask while allocating a
        # fourth register runs a deep tree out of registers.
        self._free_reg(r_text)
        self._emit(f"bic{suffix}3 {mask},{l_text},{mask}")
        self._free_reg(l_text)
        return mask

    # ----------------------------------------------------------- operands
    def _operand_if_addressable(self, node: Node) -> Optional[str]:
        shape = node_shape(node)
        if Shape.SAREG in shape or Shape.SNAME in shape or Shape.SCON in shape:
            return self._operand(node)
        if Shape.SOREG in shape:
            return self._operand(node)
        return None

    def _operand(self, node: Node) -> str:
        op = node.op
        if op is Op.REG:
            register = str(node.value)
            if register in self._reserved:
                self._reserved[register] -= 1
                if self._reserved[register] <= 0:
                    self._pending_release.append(register)
            return register
        if op is Op.DREG:
            return str(node.value)
        if op is Op.NAME:
            return f"_{node.value}"
        if op is Op.TEMP:
            return str(node.value)
        if op is Op.CONST:
            return f"${node.value}"
        if op is Op.ADDROF and node.kids[0].op is Op.NAME:
            return f"$_{node.kids[0].value}"
        if op is Op.INDIR:
            address = node.kids[0]
            if address.op in (Op.REG, Op.DREG):
                return f"({address.value})"
            if address.op is Op.PLUS:
                left, right = address.kids
                if left.op is Op.CONST and right.op in (Op.REG, Op.DREG):
                    return f"{left.value}({right.value})"
                if right.op is Op.CONST and left.op in (Op.REG, Op.DREG):
                    return f"{right.value}({left.value})"
        raise PccError(f"not addressable: {node.op.name}")

    def _lvalue(self, node: Node) -> str:
        if node.op in (Op.NAME, Op.TEMP, Op.REG, Op.DREG):
            return self._operand(node)
        if node.op is Op.INDIR:
            text = self._operand_if_addressable(node)
            if text is not None:
                return text
            address = self._expr(node.kids[0])
            register = self._to_register(address, MachineType.LONG)
            return f"({register})"
        raise PccError(f"not an lvalue: {node.op.name}")

    def _to_register(self, operand: str, ty: MachineType) -> str:
        if operand in self.machine.allocatable or operand in self.machine.dedicated:
            return operand
        register = self._alloc()
        self._emit(f"mov{ty.suffix} {operand},{register}")
        self._free_reg(operand)
        return register

    def _widen(self, operand: str, src: MachineType, dst: MachineType) -> str:
        register = self._alloc()
        if not src.signed:
            movz = {(1, 2): "movzbw", (1, 4): "movzbl", (2, 4): "movzwl"}
            mnemonic = movz.get((src.size, dst.size))
            if mnemonic:
                self._emit(f"{mnemonic} {operand},{register}")
                self._free_reg(operand)
                return register
        self._emit(f"cvt{src.suffix}{dst.suffix} {operand},{register}")
        self._free_reg(operand)
        return register


def pcc_compile(forest: Forest, machine: VaxMachine = VAX) -> PccResult:
    """Compile one routine with the PCC-style baseline."""
    return PccCodeGenerator(machine).compile(forest)
