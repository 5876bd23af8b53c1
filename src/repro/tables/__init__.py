"""The table constructor — static half of the Graham-Glanville system.

``construct_tables`` turns a machine-description grammar into the parse
tables that drive the instruction pattern matcher, applying the paper's
disambiguation rules (shift-preferred, maximal munch) and its safety
checks (chain-rule loop rejection, syntactic-block notification).
"""

from .actions import (
    Accept, Action, ConflictKind, ConflictRecord, Reduce, Shift,
)
from .blocking import (
    BlockReport, find_blocks, operand_starter_terminals, summarize_blocks,
)
from .cache import (
    CACHE_VERSION, CacheOutcome, TableCache, cache_enabled, cached_build,
    default_cache_dir, table_cache_key,
)
from .encode import (
    PackedRuntime, PackedTables, SizeReport, measure_tables, pack_tables,
)
from .lr0 import Automaton, Item, Kernel, build_automaton
from .naive import build_automaton_naive
from .slr import (
    ParseTables, TableConstructionError, TableStats, construct_tables,
)

__all__ = [
    "Shift", "Reduce", "Accept", "Action", "ConflictKind", "ConflictRecord",
    "Automaton", "Item", "Kernel", "build_automaton", "build_automaton_naive",
    "ParseTables", "TableStats", "TableConstructionError", "construct_tables",
    "find_blocks", "BlockReport", "summarize_blocks",
    "operand_starter_terminals",
    "PackedRuntime", "PackedTables", "SizeReport", "pack_tables",
    "measure_tables",
    "CACHE_VERSION", "CacheOutcome", "TableCache", "cache_enabled",
    "cached_build", "default_cache_dir", "table_cache_key",
]
