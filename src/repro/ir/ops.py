"""Generic IR operators (the terminal alphabet of the machine grammar).

Figure 1 of the paper lists the terminal symbols used in its examples
(``Assign``, ``Plus``, ``Mul``, ``Cbranch``, ``Cmp``, ``Indir``, ``Name``,
``Dreg``, the special constants ``Zero .. Eight``, ``Const`` and ``Label``).
This module defines the complete operator set of our PCC-style intermediate
representation: the Figure-1 operators, the additional operators a real C
front end produces (logical connectives, increments, calls, conversions),
and the *reversed* operators that phase 1c introduces when it swaps the
operands of a non-commutative operator (section 5.1.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class OpClass(enum.Enum):
    """Coarse operator classification used by the tree transformers."""

    LEAF = "leaf"
    UNARY = "unary"
    BINARY = "binary"
    STMT = "stmt"        # statement-level: branches, jumps, returns
    CONTROL = "control"  # phase-1a fodder: &&, ||, ?:, calls


@dataclass(frozen=True)
class _OpInfo:
    symbol: str
    arity: int               # -1 means variable (calls)
    klass: OpClass
    commutative: bool = False
    reverse_of: Optional[str] = None  # set on Rxxx operators


class Op(enum.Enum):
    """A generic IR operator.

    ``symbol`` is the terminal-symbol base name used in the machine grammar
    (before the type-suffix is attached by linearization), matching the
    paper's convention that terminals begin with an upper-case letter.
    """

    # ------------------------------------------------------------- leaves
    NAME = _OpInfo("Name", 0, OpClass.LEAF)       # global variable
    CONST = _OpInfo("Const", 0, OpClass.LEAF)     # integer/float literal
    ZERO = _OpInfo("Zero", 0, OpClass.LEAF)       # special constant 0
    ONE = _OpInfo("One", 0, OpClass.LEAF)         # special constant 1
    TWO = _OpInfo("Two", 0, OpClass.LEAF)         # special constant 2
    FOUR = _OpInfo("Four", 0, OpClass.LEAF)       # special constant 4
    EIGHT = _OpInfo("Eight", 0, OpClass.LEAF)     # special constant 8
    DREG = _OpInfo("Dreg", 0, OpClass.LEAF)       # dedicated register
    REG = _OpInfo("Reg", 0, OpClass.LEAF)         # phase-1-assigned register
    TEMP = _OpInfo("Temp", 0, OpClass.LEAF)       # compiler temporary (vreg)
    LABEL = _OpInfo("Label", 0, OpClass.LEAF)     # branch target

    # -------------------------------------------------------------- unary
    INDIR = _OpInfo("Indir", 1, OpClass.UNARY)    # memory fetch
    NEG = _OpInfo("Neg", 1, OpClass.UNARY)        # arithmetic negate
    COMPL = _OpInfo("Compl", 1, OpClass.UNARY)    # bitwise complement
    CONV = _OpInfo("Conv", 1, OpClass.UNARY)      # data-type conversion
    ADDROF = _OpInfo("Addrof", 1, OpClass.UNARY)  # address-of
    NOT = _OpInfo("Not", 1, OpClass.CONTROL)      # logical !, rewritten in 1a

    # ------------------------------------------------------------- binary
    ASSIGN = _OpInfo("Assign", 2, OpClass.BINARY)
    PLUS = _OpInfo("Plus", 2, OpClass.BINARY, commutative=True)
    MINUS = _OpInfo("Minus", 2, OpClass.BINARY)
    MUL = _OpInfo("Mul", 2, OpClass.BINARY, commutative=True)
    DIV = _OpInfo("Div", 2, OpClass.BINARY)
    MOD = _OpInfo("Mod", 2, OpClass.BINARY)
    AND = _OpInfo("And", 2, OpClass.BINARY, commutative=True)
    OR = _OpInfo("Or", 2, OpClass.BINARY, commutative=True)
    XOR = _OpInfo("Xor", 2, OpClass.BINARY, commutative=True)
    LSH = _OpInfo("Lsh", 2, OpClass.BINARY)
    RSH = _OpInfo("Rsh", 2, OpClass.BINARY)
    CMP = _OpInfo("Cmp", 2, OpClass.BINARY)       # condition in node.cond

    # increments/decrements carry (lvalue, amount) kids like PCC's INCR/DECR
    POSTINC = _OpInfo("Postinc", 2, OpClass.BINARY)
    POSTDEC = _OpInfo("Postdec", 2, OpClass.BINARY)
    PREINC = _OpInfo("Preinc", 2, OpClass.BINARY)
    PREDEC = _OpInfo("Predec", 2, OpClass.BINARY)

    # ----------------------------------------- reversed operators (s 5.1.3)
    # Introduced by the phase-1c ordering heuristic when it swaps the
    # subtrees of a non-commutative operator; they tell phase 3 to order the
    # computed values properly.
    RASSIGN = _OpInfo("Rassign", 2, OpClass.BINARY, reverse_of="Assign")
    RMINUS = _OpInfo("Rminus", 2, OpClass.BINARY, reverse_of="Minus")
    RDIV = _OpInfo("Rdiv", 2, OpClass.BINARY, reverse_of="Div")
    RMOD = _OpInfo("Rmod", 2, OpClass.BINARY, reverse_of="Mod")
    RLSH = _OpInfo("Rlsh", 2, OpClass.BINARY, reverse_of="Lsh")
    RRSH = _OpInfo("Rrsh", 2, OpClass.BINARY, reverse_of="Rsh")
    RCMP = _OpInfo("Rcmp", 2, OpClass.BINARY, reverse_of="Cmp")

    # ---------------------------------------------------------- statements
    CBRANCH = _OpInfo("Cbranch", 2, OpClass.STMT)  # (test, Label)
    JUMP = _OpInfo("Jump", 1, OpClass.STMT)        # (Label)
    ARG = _OpInfo("Arg", 1, OpClass.STMT)          # push one call argument
    RETURN = _OpInfo("Return", 1, OpClass.STMT)    # (value) or 0 kids
    EXPR = _OpInfo("Expr", 1, OpClass.STMT)        # evaluate for effect

    # ------------------------------------------------------------- control
    # These never reach the pattern matcher: phase 1a rewrites them away.
    ANDAND = _OpInfo("Andand", 2, OpClass.CONTROL)
    OROR = _OpInfo("Oror", 2, OpClass.CONTROL)
    SELECT = _OpInfo("Select", 3, OpClass.CONTROL)  # cond ? a : b
    CALL = _OpInfo("Call", -1, OpClass.CONTROL)     # value = callee name

    # ------------------------------------------------------------ special
    # Phase 1 emits these to communicate its register assignments to the
    # phase-3 register manager (section 5.3.3): the grammar has dedicated
    # productions matching them.
    REGHINT = _OpInfo("Reghint", 1, OpClass.STMT)

    # ------------------------------------------------------------ attributes
    # Plain member attributes, set once when the member is made: the
    # arity check in ``Node.__init__`` and every tree walk read them per
    # node, and an enum property goes through ``.value`` on each read.
    #: Terminal-symbol base name (no type suffix).
    symbol: str
    #: Kids the operator takes; -1 means any number (calls).
    arity: int
    klass: OpClass
    commutative: bool
    is_leaf: bool
    #: True for the Rxxx operators introduced by phase 1c.
    is_reversed: bool
    #: The plain operator an Rxxx operator stands for (self otherwise).
    unreversed: "Op"
    #: The Rxxx twin of a non-commutative operator, if one exists.
    reversed_form: Optional["Op"]

    def __init__(self, info: _OpInfo) -> None:
        self.symbol = info.symbol
        self.arity = info.arity
        self.klass = info.klass
        self.commutative = info.commutative
        self.is_leaf = info.arity == 0
        self.is_reversed = info.reverse_of is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Op.{self.name}"


_BY_SYMBOL = {op.symbol: op for op in Op}
for _op in Op:
    _op.unreversed = _BY_SYMBOL.get(_op.value.reverse_of, _op)
    _op.reversed_form = None
for _op in Op:
    if _op.is_reversed:
        _op.unreversed.reversed_form = _op
del _op

#: Special-constant operators, keyed by value.  The paper turns the constants
#: 0, 1, 2, 4 and 8 into their own terminal symbols because of the role they
#: play in comparisons and address construction (sections 6.3 and 6.4).
SPECIAL_CONSTS = {
    0: Op.ZERO,
    1: Op.ONE,
    2: Op.TWO,
    4: Op.FOUR,
    8: Op.EIGHT,
}

SPECIAL_CONST_VALUES = {op: v for v, op in SPECIAL_CONSTS.items()}


def op_for_symbol(symbol: str) -> Op:
    """Look an operator up by its terminal-symbol base name."""
    try:
        return _BY_SYMBOL[symbol]
    except KeyError:
        raise ValueError(f"unknown operator symbol {symbol!r}") from None


class Cond(enum.Enum):
    """Comparison conditions carried by ``Cmp`` nodes.

    The condition is a semantic attribute of the node rather than a separate
    operator, matching the paper's description of conditional branches
    (section 6.1): the *pattern* is ``Branch Cmp reg Zero Label`` and the
    particular condition selects the branch mnemonic (``jeql``, ``jneq``...).
    """

    EQ = "eql"
    NE = "neq"
    LT = "lss"
    LE = "leq"
    GT = "gtr"
    GE = "geq"
    LTU = "lssu"
    LEU = "lequ"
    GTU = "gtru"
    GEU = "gequ"

    @property
    def mnemonic_suffix(self) -> str:
        """VAX branch mnemonic suffix, e.g. ``eql`` for ``jeql``."""
        return self.value

    @property
    def negated(self) -> "Cond":
        return _NEGATE[self]

    @property
    def swapped(self) -> "Cond":
        """The condition equivalent to this one with operands exchanged."""
        return _SWAP[self]

    @property
    def is_unsigned(self) -> bool:
        return self in (Cond.LTU, Cond.LEU, Cond.GTU, Cond.GEU)


_NEGATE = {
    Cond.EQ: Cond.NE, Cond.NE: Cond.EQ,
    Cond.LT: Cond.GE, Cond.GE: Cond.LT,
    Cond.LE: Cond.GT, Cond.GT: Cond.LE,
    Cond.LTU: Cond.GEU, Cond.GEU: Cond.LTU,
    Cond.LEU: Cond.GTU, Cond.GTU: Cond.LEU,
}

_SWAP = {
    Cond.EQ: Cond.EQ, Cond.NE: Cond.NE,
    Cond.LT: Cond.GT, Cond.GT: Cond.LT,
    Cond.LE: Cond.GE, Cond.GE: Cond.LE,
    Cond.LTU: Cond.GTU, Cond.GTU: Cond.LTU,
    Cond.LEU: Cond.GEU, Cond.GEU: Cond.LEU,
}
