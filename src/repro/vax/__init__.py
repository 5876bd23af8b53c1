"""The VAX-11 target: machine model, description grammar, instruction
table and semantic actions.  The register manager is machine-independent
and lives in :mod:`repro.targets.registers`."""

from .grammar_gen import (
    VaxGrammarBundle, build_vax_grammar, conversion_productions,
    vax_grammar_text,
)
from .insttable import (
    Cluster, INSTRUCTION_TABLE, RANGE_IDIOMS, Selection, Variant,
    build_instruction_table, figure3_entry, select_variant,
)
from .machine import VAX, VaxMachine
from .semantics import CodeBuffer, VaxSemanticError, VaxSemantics

__all__ = [
    "VAX", "VaxMachine",
    "build_vax_grammar", "vax_grammar_text", "conversion_productions",
    "VaxGrammarBundle",
    "INSTRUCTION_TABLE", "build_instruction_table", "figure3_entry",
    "Cluster", "Variant", "Selection", "select_variant", "RANGE_IDIOMS",
    "VaxSemantics", "VaxSemanticError", "CodeBuffer",
]
