"""AST node definitions for the C subset.

Deliberately small and flat: the parser builds these, the lowerer turns
them into IR forests.  Types are :class:`CType` — a machine type plus
pointer/array structure.  Nodes are slotted dataclasses: a unit's AST is
tens of thousands of them, and a per-instance ``__dict__`` would cost
more memory than the fields themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

from ..ir.types import MachineType


@dataclass(frozen=True)
class CType:
    """A C-subset type: base machine type, pointer depth, array length."""

    base: MachineType
    pointer: int = 0           # levels of indirection
    array: Optional[int] = None  # element count for top-level arrays
    is_void: bool = False

    @property
    def is_pointer(self) -> bool:
        return self.pointer > 0

    @property
    def is_scalar(self) -> bool:
        return self.array is None and not self.is_void

    @property
    def machine_type(self) -> MachineType:
        """The machine type a value of this C type occupies."""
        if self.is_pointer:
            return MachineType.ULONG
        return self.base

    def element(self) -> "CType":
        """The type obtained by indexing or dereferencing once."""
        if self.array is not None:
            return CType(self.base, self.pointer)
        if self.pointer > 0:
            return CType(self.base, self.pointer - 1)
        raise TypeError(f"cannot dereference {self}")

    def element_size(self) -> int:
        inner = self.element()
        return inner.machine_type.size

    def size(self) -> int:
        if self.array is not None:
            return self.array * CType(self.base, self.pointer).machine_type.size
        return self.machine_type.size

    def __str__(self) -> str:
        text = "void" if self.is_void else self.base.name.lower()
        text += "*" * self.pointer
        if self.array is not None:
            text += f"[{self.array}]"
        return text


VOID = CType(MachineType.LONG, is_void=True)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(slots=True)
class Expr:
    line: int = 0


@dataclass(slots=True)
class IntLit(Expr):
    value: int = 0
    ty: MachineType = MachineType.LONG


@dataclass(slots=True)
class FloatLit(Expr):
    value: float = 0.0
    ty: MachineType = MachineType.DOUBLE


@dataclass(slots=True)
class Ident(Expr):
    name: str = ""


@dataclass(slots=True)
class Unary(Expr):
    op: str = ""          # - ~ ! & * ++pre --pre
    operand: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Postfix(Expr):
    op: str = ""          # ++ --
    operand: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Binary(Expr):
    op: str = ""
    left: Expr = None     # type: ignore[assignment]
    right: Expr = None    # type: ignore[assignment]


@dataclass(slots=True)
class Assign(Expr):
    op: str = "="         # = += -= ...
    target: Expr = None   # type: ignore[assignment]
    value: Expr = None    # type: ignore[assignment]


@dataclass(slots=True)
class Ternary(Expr):
    cond: Expr = None     # type: ignore[assignment]
    then: Expr = None     # type: ignore[assignment]
    other: Expr = None    # type: ignore[assignment]


@dataclass(slots=True)
class Index(Expr):
    base: Expr = None     # type: ignore[assignment]
    index: Expr = None    # type: ignore[assignment]


@dataclass(slots=True)
class CallExpr(Expr):
    callee: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass(slots=True)
class Cast(Expr):
    ty: CType = None      # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Statements and declarations
# --------------------------------------------------------------------------

@dataclass(slots=True)
class Stmt:
    line: int = 0


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass(slots=True)
class If(Stmt):
    cond: Expr = None          # type: ignore[assignment]
    then: Stmt = None          # type: ignore[assignment]
    other: Optional[Stmt] = None


@dataclass(slots=True)
class While(Stmt):
    cond: Expr = None          # type: ignore[assignment]
    body: Stmt = None          # type: ignore[assignment]


@dataclass(slots=True)
class DoWhile(Stmt):
    body: Stmt = None          # type: ignore[assignment]
    cond: Expr = None          # type: ignore[assignment]


@dataclass(slots=True)
class For(Stmt):
    init: Optional[Expr] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None          # type: ignore[assignment]


@dataclass(slots=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(slots=True)
class Goto(Stmt):
    label: str = ""


@dataclass(slots=True)
class Labeled(Stmt):
    label: str = ""
    stmt: Stmt = None          # type: ignore[assignment]


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


@dataclass(slots=True)
class Block(Stmt):
    decls: List["VarDecl"] = field(default_factory=list)
    stmts: List[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class VarDecl:
    name: str
    ty: CType
    register: bool = False
    line: int = 0


@dataclass(slots=True)
class Param:
    name: str
    ty: CType


@dataclass(slots=True)
class FuncDef:
    name: str
    return_type: CType
    params: List[Param]
    body: Block
    line: int = 0


@dataclass(slots=True)
class Program:
    globals: List[VarDecl] = field(default_factory=list)
    functions: List[FuncDef] = field(default_factory=list)


_NODE_TYPES = (Expr, Stmt, VarDecl, Param, FuncDef, Program)


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def node_count(node) -> int:
    """Nodes in the AST under *node*, itself included: a routine's size,
    known without lowering it."""
    count = 1
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, list):
            for item in value:
                count += node_count(item)
        elif isinstance(value, _NODE_TYPES):
            count += node_count(value)
    return count
