"""Machine data types for the expression-tree IR.

The paper's code generator works on expression trees whose operators are
"generic operators attributed with the data type of the resulting value"
(section 6.4).  The VAX types that matter to the grammar are the four
integer sizes (byte, word, long, quad) plus the two floating sizes, and
signedness is an attribute that the paper's authors handled semantically
(and, they admit, buggily).  We model each (size, kind, signedness)
combination as one :class:`MachineType`.

Type *suffix characters* (``b``, ``w``, ``l``, ``q``, ``f``, ``d``) are the
same ones the paper's macro preprocessor splices into replicated grammar
symbols such as ``Plus_l`` or ``dx_b``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TypeKind(enum.Enum):
    """Broad classification of a machine type."""

    INT = "int"
    FLOAT = "float"


@dataclass(frozen=True)
class _TypeInfo:
    suffix: str
    size: int
    kind: TypeKind
    signed: bool


class MachineType(enum.Enum):
    """A VAX machine data type, as seen by the machine-description grammar.

    Members carry the assembler suffix character, the size in bytes, the
    broad kind (integer or float) and signedness.  The unsigned integer
    types share suffix characters with their signed twins because the VAX
    addressing hardware and most instructions do not distinguish them; the
    distinction is a semantic attribute, exactly as in the paper.
    """

    BYTE = _TypeInfo("b", 1, TypeKind.INT, True)
    WORD = _TypeInfo("w", 2, TypeKind.INT, True)
    LONG = _TypeInfo("l", 4, TypeKind.INT, True)
    QUAD = _TypeInfo("q", 8, TypeKind.INT, True)
    UBYTE = _TypeInfo("b", 1, TypeKind.INT, False)
    UWORD = _TypeInfo("w", 2, TypeKind.INT, False)
    ULONG = _TypeInfo("l", 4, TypeKind.INT, False)
    UQUAD = _TypeInfo("q", 8, TypeKind.INT, False)
    FLOAT = _TypeInfo("f", 4, TypeKind.FLOAT, True)
    DOUBLE = _TypeInfo("d", 8, TypeKind.FLOAT, True)

    # Plain member attributes, set once when the member is made: tree
    # walks and the matcher read them per node, and an enum property
    # goes through ``.value`` on each read.
    #: Single-character grammar/assembler suffix (``b w l q f d``).
    suffix: str
    #: Size in bytes.
    size: int
    kind: TypeKind
    signed: bool
    is_integer: bool
    is_float: bool

    def __init__(self, info: _TypeInfo) -> None:
        self.suffix = info.suffix
        self.size = info.size
        self.kind = info.kind
        self.signed = info.signed
        self.is_integer = info.kind is TypeKind.INT
        self.is_float = info.kind is TypeKind.FLOAT

    def with_signedness(self, signed: bool) -> "MachineType":
        """The same-size integer type with the requested signedness."""
        if self.is_float:
            return self
        return _BY_SIZE_SIGNED[(self.size, signed)]

    def min_value(self) -> int:
        """Smallest representable value (integers only)."""
        if not self.is_integer:
            raise TypeError(f"{self.name} is not an integer type")
        if not self.signed:
            return 0
        return -(1 << (8 * self.size - 1))

    def max_value(self) -> int:
        """Largest representable value (integers only)."""
        if not self.is_integer:
            raise TypeError(f"{self.name} is not an integer type")
        if self.signed:
            return (1 << (8 * self.size - 1)) - 1
        return (1 << (8 * self.size)) - 1

    def wrap(self, value: int) -> int:
        """Truncate *value* to this integer type, respecting signedness."""
        if not self.is_integer:
            raise TypeError(f"{self.name} is not an integer type")
        mask = (1 << (8 * self.size)) - 1
        value &= mask
        if self.signed and value > self.max_value():
            value -= mask + 1
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MachineType.{self.name}"


_BY_SIZE_SIGNED = {
    (1, True): MachineType.BYTE,
    (2, True): MachineType.WORD,
    (4, True): MachineType.LONG,
    (8, True): MachineType.QUAD,
    (1, False): MachineType.UBYTE,
    (2, False): MachineType.UWORD,
    (4, False): MachineType.ULONG,
    (8, False): MachineType.UQUAD,
}

#: The four integer sizes the paper's type replicator expands (class "Y").
INTEGER_TYPES = (
    MachineType.BYTE,
    MachineType.WORD,
    MachineType.LONG,
    MachineType.QUAD,
)

#: Floating types, replicated for the instructions that support them.
FLOAT_TYPES = (MachineType.FLOAT, MachineType.DOUBLE)

#: All distinct grammar types (suffix-distinct; unsigned twins share suffix).
GRAMMAR_TYPES = INTEGER_TYPES + FLOAT_TYPES

_BY_SUFFIX = {t.suffix: t for t in GRAMMAR_TYPES}


def type_for_suffix(suffix: str) -> MachineType:
    """Map a grammar suffix character back to its (signed) machine type."""
    try:
        return _BY_SUFFIX[suffix]
    except KeyError:
        raise ValueError(f"unknown type suffix {suffix!r}") from None


def integer_promote(left: MachineType, right: MachineType) -> MachineType:
    """The usual-arithmetic-conversions result of two operand types.

    Mirrors what the PCC front end does before handing trees to the second
    pass: the wider size wins; unsigned wins at equal size; floats dominate
    integers; DOUBLE dominates FLOAT.
    """
    if left.is_float or right.is_float:
        if MachineType.DOUBLE in (left, right):
            return MachineType.DOUBLE
        return MachineType.FLOAT
    if left.size != right.size:
        wide = left if left.size > right.size else right
        return wide
    signed = left.signed and right.signed
    return left.with_signedness(signed)


def smallest_literal_type(value: int) -> MachineType:
    """The narrowest signed integer type holding *value*.

    The Berkeley Pascal front end in the appendix types the constant 27 as a
    *byte* constant; this helper reproduces that behaviour for our front end
    and builders.
    """
    for ty in INTEGER_TYPES:
        if ty.min_value() <= value <= ty.max_value():
            return ty
    raise OverflowError(f"literal {value} does not fit any integer type")
