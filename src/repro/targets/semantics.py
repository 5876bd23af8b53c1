"""Target-independent semantic-action machinery.

Every target's semantic routines share the same skeleton: descriptors
ride the parse stack, reductions dispatch on the production's semantic
tag, the register manager hands out the machine's allocatable bank, and
phase-1 register reservations are released at statement boundaries.
:class:`BaseSemantics` is that skeleton; a target subclass contributes
only the emitting handlers (``_h_<tag-head>`` methods) and its
machine-specific idioms — the paper's "machine specific routines
hand-coded in C" boundary, drawn as a Python class boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..grammar.production import Production
from ..grammar.symbols import type_suffix
from ..ir.linearize import Token
from ..ir.ops import Op
from ..ir.types import MachineType, type_for_suffix
from ..matcher.descriptors import (
    Descriptor, DKind, dregdesc, imm, labeldesc, mem, regdesc, void,
)
from ..matcher.engine import SemanticActions
from .base import Machine, TargetSemanticError
from .registers import RegisterManager


@dataclass
class CodeBuffer:
    """Accumulates emitted assembly and bookkeeping counters."""

    lines: List[str] = field(default_factory=list)
    instruction_count: int = 0

    def emit(self, line: str) -> None:
        self.lines.append(f"\t{line}")
        self.instruction_count += 1

    def label(self, name: str) -> None:
        self.lines.append(f"{name}:")

    def comment(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


class BaseSemantics(SemanticActions):
    """Shared attribute evaluator: shifts build descriptors, reductions
    dispatch to ``_h_<head>`` handlers, ties resolve by (cost, index)."""

    #: The exception a subclass raises for unrealizable reductions; the
    #: recovery ladder catches the shared base class.
    error: Type[TargetSemanticError] = TargetSemanticError

    def __init__(
        self,
        machine: Machine,
        buffer: Optional[CodeBuffer] = None,
        new_temp: Optional[Callable[[], str]] = None,
    ) -> None:
        self.machine = machine
        self.buffer = buffer or CodeBuffer()
        self._temp_counter = 0
        self.new_temp = new_temp or self._default_temp
        self.registers = RegisterManager(
            machine, emit=self.buffer.emit, new_temp=self.new_temp
        )
        #: phase-1 register reservations still awaiting their uses
        self._reg_uses: Dict[str, int] = {}
        #: reservations whose uses are exhausted, released at the next
        #: statement boundary (releasing mid-statement could hand the
        #: register out before the instruction reading it is emitted)
        self._pending_release: List[str] = []
        #: virtual registers (spill/pseudo temporaries) we invented
        self.virtual_registers: List[str] = []

    def _default_temp(self) -> str:
        self._temp_counter += 1
        name = f"S{self._temp_counter}"
        self.virtual_registers.append(name)
        return name

    # ------------------------------------------------------------- shifts
    def on_shift(self, token: Token) -> Descriptor:
        node = token.node
        op = node.op
        ty = node.ty
        # Signedness is a semantic attribute: the grammar suffix cannot
        # carry it (section 6.4), so every descriptor records the exact
        # node type's signedness for the movz/udiv decisions downstream.
        if op is Op.NAME:
            return replace(mem(f"_{node.value}", ty), signed=ty.signed)
        if op is Op.TEMP:
            return replace(mem(str(node.value), ty), signed=ty.signed)
        if op is Op.DREG:
            return replace(dregdesc(str(node.value), ty), signed=ty.signed)
        if op is Op.REG:
            descriptor = replace(regdesc(str(node.value), ty), signed=ty.signed)
            self._note_reg_use(str(node.value))
            return descriptor
        if op is Op.CONST:
            return replace(imm(node.value, ty), signed=ty.signed)
        if op is Op.LABEL:
            return labeldesc(str(node.value))
        # Operator terminals: carry the attributes the reduction will need
        # (condition for Cmp, callee name for Call, signedness).
        return Descriptor(
            DKind.OPCLASS, ty, value=node.value, cond=node.cond,
            signed=ty.signed,
        )

    # ------------------------------------------------------------ reduces
    def on_reduce(
        self, production: Production, kids: Sequence[Descriptor]
    ) -> Tuple[Descriptor, str]:
        tag = production.semantic
        if tag is None:
            # untagged glue: pass the single attribute through
            return (kids[0] if kids else void()), ""
        head, _, rest = tag.partition(".")
        handler = getattr(self, f"_h_{head}", None)
        if handler is None:
            raise self.error(f"no semantic handler for tag {tag!r}")
        result = handler(production, list(kids), rest)
        if isinstance(result, tuple):
            return result
        return result, ""

    def choose(
        self, productions: Sequence[Production], kids: Sequence[Descriptor]
    ) -> Production:
        """Resolve a runtime reduce/reduce tie: cheapest first, then the
        grammar-order priority (constant widenings precede cvt loads)."""
        return min(productions, key=lambda p: (p.cost, p.index))

    # ----------------------------------------------------------- helpers
    def _result_type(self, production: Production) -> MachineType:
        suffix = type_suffix(production.lhs)
        return type_for_suffix(suffix) if suffix else MachineType.LONG

    def _use(self, descriptor: Descriptor) -> str:
        """Operand text for one use, consuming a pending side effect."""
        text = descriptor.text
        if descriptor.after_text is not None and not descriptor.side_effected:
            descriptor.side_effected = True
            descriptor.text = descriptor.after_text
        return text

    def _free_all(self, kids: Sequence[Descriptor]) -> None:
        self.registers.free_sources(tuple(kids))

    def _alloc(
        self,
        ty: MachineType,
        sources: Sequence[Descriptor] = (),
        avoid: Tuple[str, ...] = (),
    ) -> Descriptor:
        descriptor = Descriptor(DKind.REG, ty)
        register = self.registers.allocate(
            ty, descriptor, reclaim_from=tuple(sources), avoid=avoid
        )
        descriptor.text = register
        descriptor.register = register
        return descriptor

    def _note_reg_use(self, register: str) -> None:
        if register in self._reg_uses:
            self._reg_uses[register] -= 1
            if self._reg_uses[register] <= 0:
                del self._reg_uses[register]
                self._pending_release.append(register)

    def statement_boundary(self) -> None:
        """Called by the driver between statement trees: phase-1 registers
        whose uses are exhausted become allocatable again."""
        for register in self._pending_release:
            self.registers.release_reservation(register)
        self._pending_release.clear()

    # ================================================ shared encapsulation
    def _h_con(self, production, kids, rest):
        return kids[0]

    def _h_conw(self, production, kids, rest):
        # constant widening: free retype (a byte literal is a long literal)
        return replace(kids[0], ty=self._result_type(production))

    def _h_regleaf(self, production, kids, rest):
        return kids[0]

    def _h_chain(self, production, kids, rest):
        return kids[0]

    def _h_drop(self, production, kids, rest):
        self._free_all(kids)
        return void(), "discard value"

    def _h_reghint(self, production, kids, rest):
        register = kids[1].register
        hint = kids[0].value
        uses = hint if isinstance(hint, int) and hint > 0 else 1
        # An earlier reservation of this register may have spent its uses
        # in this statement; its release at the next boundary must not
        # free the reservation made here.
        if register in self._pending_release:
            self._pending_release.remove(register)
        self.registers.reserve(register)
        self._reg_uses[register] = uses
        return void(), f"phase-1 register {register} ({uses} uses)"
