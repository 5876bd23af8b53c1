"""Packed table encoding and size accounting.

The paper complains that the CGGWS "produced tables that were too large"
and that the matcher "spent too much time ... unpacking the description
tables"; experiment E4 reports table growth (+60% from reversed
operators).  This module gives tables a concrete packed form so those
sizes mean something: symbols are interned to dense integers, each state's
action row becomes a sorted array of (symbol, action) pairs with an
optional *default reduce* squeezed out, and the whole thing reports its
size in entries and in bytes.

The packed form is also the matcher's *live* representation: alongside the
rows it carries the per-production metadata (interned LHS ids, RHS
lengths) the shift/reduce loop needs, so one token stream can be interned
once and then parsed entirely on integer comparisons — no per-step string
hashing against the dict tables.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .actions import Accept, Action, Reduce, Shift
from .slr import ParseTables

# Action words are packed as (tag, argument) integer pairs.
TAG_SHIFT = 0
TAG_REDUCE = 1       # argument indexes the reduce-set pool
TAG_ACCEPT = 2


@dataclass
class PackedTables:
    """A compact, array-based rendering of :class:`ParseTables`.

    ``action_rows[s]`` is a sorted list of ``(symbol_id, tag, argument)``
    triples; ``default_reduce[s]`` (-1 when absent) is applied when a
    symbol misses the row, which is how row compression removes the most
    common reduce from each row.  ``goto_rows[s]`` is the same for
    non-terminals, shifts only.  ``reduce_pool`` holds the (possibly
    ambiguous) reduce sets.

    ``prod_lhs_id[p]`` / ``prod_rhs_len[p]`` mirror the (augmented)
    grammar's productions so a reduce step never touches a Production
    object just to pop the stack and take the goto.  They are grammar-side
    metadata, not table entries, and do not count toward
    :attr:`entry_count` / :attr:`byte_size` (the E4 size metrics).
    """

    symbol_ids: Dict[str, int]
    action_rows: List[List[Tuple[int, int, int]]]
    default_reduce: List[int]
    goto_rows: List[List[Tuple[int, int]]]
    reduce_pool: List[Tuple[int, ...]]
    prod_lhs_id: List[int] = field(default_factory=list)
    prod_rhs_len: List[int] = field(default_factory=list)
    _runtime: Optional["PackedRuntime"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def entry_count(self) -> int:
        return (
            sum(len(row) for row in self.action_rows)
            + sum(len(row) for row in self.goto_rows)
            + sum(1 for d in self.default_reduce if d >= 0)
        )

    @property
    def byte_size(self) -> int:
        """Size assuming 16-bit symbol ids and arguments, 8-bit tags."""
        action_bytes = sum(len(row) for row in self.action_rows) * 5
        goto_bytes = sum(len(row) for row in self.goto_rows) * 4
        default_bytes = len(self.default_reduce) * 2
        pool_bytes = sum(len(s) for s in self.reduce_pool) * 2
        return action_bytes + goto_bytes + default_bytes + pool_bytes

    def lookup_action(self, state: int, symbol: str) -> Optional[Tuple[int, int]]:
        """Binary-search the packed row; returns (tag, argument) or the
        default reduce or None."""
        symbol_id = self.symbol_ids.get(symbol)
        if symbol_id is None:
            default = self.default_reduce[state]
            return (TAG_REDUCE, default) if default >= 0 else None
        row = self.action_rows[state]
        lo, hi = 0, len(row)
        while lo < hi:
            mid = (lo + hi) // 2
            if row[mid][0] < symbol_id:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(row) and row[lo][0] == symbol_id:
            return row[lo][1], row[lo][2]
        default = self.default_reduce[state]
        return (TAG_REDUCE, default) if default >= 0 else None

    # -------------------------------------------------- integer fast path
    def intern_stream(self, symbols: Sequence[str]) -> List[int]:
        """Intern a token-symbol stream once; unknown symbols become -1
        (they can only hit a row's default reduce or the error action)."""
        get = self.symbol_ids.get
        return [get(symbol, -1) for symbol in symbols]

    def lookup_action_id(self, state: int, symbol_id: int) -> Tuple[int, int]:
        """Like :meth:`lookup_action` but takes an interned id and returns
        ``(-1, -1)`` for the error action instead of None."""
        if symbol_id >= 0:
            row = self.action_rows[state]
            lo, hi = 0, len(row)
            while lo < hi:
                mid = (lo + hi) >> 1
                if row[mid][0] < symbol_id:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < len(row) and row[lo][0] == symbol_id:
                entry = row[lo]
                return entry[1], entry[2]
        default = self.default_reduce[state]
        return (TAG_REDUCE, default) if default >= 0 else (-1, -1)

    def lookup_goto_id(self, state: int, symbol_id: int) -> int:
        """Binary-search the packed goto row; -1 when there is no goto."""
        row = self.goto_rows[state]
        lo, hi = 0, len(row)
        while lo < hi:
            mid = (lo + hi) >> 1
            if row[mid][0] < symbol_id:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(row) and row[lo][0] == symbol_id:
            return row[lo][1]
        return -1

    def runtime(self) -> "PackedRuntime":
        """The dense-row expansion driving the matcher, built once and
        memoized.  This is the one deliberate unpack-per-process: the
        paper's complaint is about unpacking *per lookup*, so we expand
        the compressed rows into flat ``state x symbol`` int arrays a
        single time and index them ever after."""
        if self._runtime is None:
            self._runtime = PackedRuntime.from_packed(self)
        return self._runtime

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_runtime"] = None  # dense expansion is rebuilt, not stored
        return state


@dataclass
class PackedRuntime:
    """Flat integer matrices derived from :class:`PackedTables`.

    ``action_words[state * nsymbols + symbol_id]`` is ``-1`` for the error
    action or ``(argument << 2) | tag`` with each row's default reduce
    already folded into every unmentioned symbol.  ``default_words[state]``
    answers for symbols outside the grammar (interned to -1).
    ``goto_words`` is the same matrix for gotos (targets, -1 when absent);
    ``pool_single[i]`` is the lone production of reduce-pool entry *i* or
    -1 when the entry is an ambiguous tie.  Runtime-only: never pickled
    into the table cache, never counted by the E4 size metrics.
    """

    nsymbols: int
    action_words: List[int]
    default_words: List[int]
    goto_words: List[int]
    pool_single: List[int]
    checksum: int = -1

    def compute_checksum(self) -> int:
        """CRC-32 over the flat matrices (cheap: one bytes() pass each).

        Stamped at expansion time; :meth:`verify_integrity` recomputes it
        so the resilient pipeline can detect in-memory corruption of the
        dense rows *before* they silently select wrong instructions —
        corrupt action words often still parse, just wrongly.
        """
        crc = 0
        for words in (
            self.action_words, self.default_words,
            self.goto_words, self.pool_single,
        ):
            crc = zlib.crc32(
                b"".join(
                    w.to_bytes(4, "little", signed=True) for w in words
                ),
                crc,
            )
        return zlib.crc32(self.nsymbols.to_bytes(4, "little"), crc)

    def verify_integrity(self) -> bool:
        """True when the matrices still match their expansion-time CRC."""
        if self.checksum < 0:
            return True  # never stamped (hand-built in tests)
        return self.compute_checksum() == self.checksum

    @classmethod
    def from_packed(cls, packed: "PackedTables") -> "PackedRuntime":
        nsymbols = len(packed.symbol_ids)
        states = len(packed.action_rows)
        action_words = [-1] * (states * nsymbols)
        goto_words = [-1] * (states * nsymbols)
        default_words = [-1] * states

        for state in range(states):
            base = state * nsymbols
            default = packed.default_reduce[state]
            if default >= 0:
                word = (default << 2) | TAG_REDUCE
                default_words[state] = word
                for offset in range(nsymbols):
                    action_words[base + offset] = word
            for symbol_id, tag, argument in packed.action_rows[state]:
                action_words[base + symbol_id] = (argument << 2) | tag
            for symbol_id, target in packed.goto_rows[state]:
                goto_words[base + symbol_id] = target

        pool_single = [
            productions[0] if len(productions) == 1 else -1
            for productions in packed.reduce_pool
        ]
        runtime = cls(
            nsymbols, action_words, default_words, goto_words, pool_single
        )
        runtime.checksum = runtime.compute_checksum()
        return runtime


def pack_tables(tables: ParseTables, compress_rows: bool = True) -> PackedTables:
    """Intern symbols and pack every action/goto row.

    With ``compress_rows``, the most frequent reduce action of each row
    becomes that row's default, and its explicit entries are dropped.
    Correctness is preserved for the matcher because a default reduce on a
    symbol the row never mentioned either leads to further progress or to
    an error discovered one step later — the standard LR row-compression
    argument; error *reporting* just gets slightly later, never wrong code.
    """
    symbol_ids: Dict[str, int] = {}

    def intern(symbol: str) -> int:
        if symbol not in symbol_ids:
            symbol_ids[symbol] = len(symbol_ids)
        return symbol_ids[symbol]

    reduce_pool: List[Tuple[int, ...]] = []
    pool_index: Dict[Tuple[int, ...], int] = {}

    def intern_reduce(productions: Tuple[int, ...]) -> int:
        if productions not in pool_index:
            pool_index[productions] = len(reduce_pool)
            reduce_pool.append(productions)
        return pool_index[productions]

    action_rows: List[List[Tuple[int, int, int]]] = []
    default_reduce: List[int] = []
    goto_rows: List[List[Tuple[int, int]]] = []

    for state in range(len(tables.actions)):
        entries: List[Tuple[int, int, int]] = []
        reduce_counts: Dict[int, int] = {}
        for symbol, action in tables.actions[state].items():
            if isinstance(action, Reduce):
                pooled = intern_reduce(action.productions)
                reduce_counts[pooled] = reduce_counts.get(pooled, 0) + 1

        default = -1
        if compress_rows and reduce_counts:
            default = max(reduce_counts, key=lambda k: reduce_counts[k])

        for symbol, action in tables.actions[state].items():
            encoded = _encode(action, intern_reduce)
            if encoded[0] == TAG_REDUCE and encoded[1] == default:
                continue
            entries.append((intern(symbol), encoded[0], encoded[1]))
        entries.sort()
        action_rows.append(entries)
        default_reduce.append(default)

        gotos = sorted(
            (intern(symbol), target)
            for symbol, target in tables.gotos[state].items()
        )
        goto_rows.append(gotos)

    prod_lhs_id = [intern(p.lhs) for p in tables.grammar.productions]
    prod_rhs_len = [len(p.rhs) for p in tables.grammar.productions]

    return PackedTables(
        symbol_ids, action_rows, default_reduce, goto_rows, reduce_pool,
        prod_lhs_id, prod_rhs_len,
    )


def _encode(action: Action, intern_reduce) -> Tuple[int, int]:
    if isinstance(action, Shift):
        return TAG_SHIFT, action.state
    if isinstance(action, Reduce):
        return TAG_REDUCE, intern_reduce(action.productions)
    if isinstance(action, Accept):
        return TAG_ACCEPT, 0
    raise TypeError(f"unknown action {action!r}")


@dataclass(frozen=True)
class SizeReport:
    """Uncompressed vs compressed sizes, the E4 'size of the tables' metric."""

    states: int
    dense_entries: int       # states x symbols, the flat-matrix baseline
    sparse_entries: int      # explicit actions + gotos, no compression
    packed_entries: int      # after default-reduce row compression
    packed_bytes: int

    def __str__(self) -> str:
        return (
            f"{self.states} states; dense {self.dense_entries} entries, "
            f"sparse {self.sparse_entries}, packed {self.packed_entries} "
            f"({self.packed_bytes} bytes)"
        )


def measure_tables(tables: ParseTables) -> SizeReport:
    symbols = len(tables.grammar.terminals) + len(tables.grammar.nonterminals)
    packed = pack_tables(tables)
    return SizeReport(
        states=len(tables.actions),
        dense_entries=len(tables.actions) * symbols,
        sparse_entries=tables.stats.total_entries,
        packed_entries=packed.entry_count,
        packed_bytes=packed.byte_size,
    )
