"""Per-function content-addressed *result* cache.

The table cache (:mod:`repro.tables.cache`) makes the static phase
near-free; this cache does the same for the dynamic phase on repeat
traffic.  It started life inside the compile service and now also backs
the batch driver's incremental mode (:func:`repro.compile.compile_program`
with ``incremental=True``): both probe the same keys, so a unit warmed
by one is warm for the other.  The key is content-addressed end to end::

    sha256(version | target | table fingerprint | engine | peephole |
           canonical globals | canonical function source)

so a warm entry is valid by construction: any change to the target, to
the constructed tables (grammar edits, packing changes — via the
packed-content fingerprint), to the matcher engine, to the peephole
toggle, or to the function's own source splits the key space and
misses.  The target name is an *explicit* key component, not inferred
from the tables: two machine descriptions must never alias, even if
their packed tables ever hashed identically.  The value is
the function's emitted assembly text plus compact stats (instruction
count, the compile seconds it saved — which keeps ``cpu_seconds``
accounting honest — and the recovery-ladder tier that produced it).

A recovery-ladder *rescue* (operand hoisting, PCC fallback) is a valid
answer for the compile that produced it but must never be served to a
later *healthy* compile of the same source.  Every writer therefore
stores through one gate, :meth:`ResultCache.put_healthy`, which refuses
any function the engine did not compile on its own.  Entries flagged
``rescued=True`` are the defense-in-depth for entries written by older
code or other processes, and :func:`entry_healthy` is the probe-side
check behind :meth:`ResultCache.get` and :meth:`ResultCache.probe`, the
one hit/miss rule — and hit/miss count — the batch driver and the
compile service share.

Function identity is the *canonical* source — the unparser's rendering
of the parsed AST, prefixed by the unit's global declarations (globals
change frame-free addressing and sizes, so they are part of a
function's meaning) — not the raw request text, so whitespace and
comment churn still hit.

Two tiers: a bounded in-memory LRU (every server gets one) and an
optional persistent directory reusing the checksummed v2 envelope
machinery of :class:`repro.tables.cache.TableCache` under the
``result`` kind.  Persistent entries get the same integrity treatment
as table pickles: a flipped byte is detected before unpickling and the
entry is quarantined (``*.quarantined``); a payload that deserializes
but fails semantic validation (wrong key, missing assembly) is
explicitly rejected through the same quarantine path rather than
re-trusted.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .frontend import cast
from .frontend.unparse import declarator, unparse
from .obs.metrics import REGISTRY as METRICS
from .tables.cache import TableCache, cache_enabled

#: Bump when the cached payload shape or the key derivation changes;
#: old persistent entries become plain misses.  v2 added the compact
#: stats (``instructions``, ``tier``, ``rescued``) to every entry.
#: v3 added the target name to the table fingerprint: two targets whose
#: packed tables happened to hash alike (or a future refactor that
#: shares tables) must never serve each other's assembly.
RESULT_VERSION = 3

#: Envelope namespace inside the shared cache directory
#: (``<key>.result.pickle``).
RESULT_KIND = "result"

#: In-memory LRU capacity, entries.  An entry is one function's
#: assembly text — small — so this bounds memory at a few megabytes.
DEFAULT_MEMORY_ENTRIES = 4096


def table_fingerprint(generator: Any) -> str:
    """Content identity of everything static a result depends on.

    The full packed-table content (symbols, action rows, defaults,
    gotos, reduce pools and production metadata) plus the generator
    options that change emitted text without changing the tables.
    Computed once per generator — the server does it at startup —
    because hashing every packed row is milliseconds, not nanoseconds.
    """
    packed = generator.tables.packed()
    hasher = hashlib.sha256()
    hasher.update(f"result-v{RESULT_VERSION}".encode())
    hasher.update(f"|target={generator.target.name}".encode())
    hasher.update(repr(sorted(packed.symbol_ids.items())).encode())
    for row in packed.action_rows:
        hasher.update(repr(row).encode())
    hasher.update(repr(packed.default_reduce).encode())
    for row in packed.goto_rows:
        hasher.update(repr(row).encode())
    hasher.update(repr(packed.reduce_pool).encode())
    hasher.update(repr(packed.prod_lhs_id).encode())
    hasher.update(repr(packed.prod_rhs_len).encode())
    hasher.update(f"|peephole={generator.peephole}".encode())
    return hasher.hexdigest()


def canonical_function_texts(program: cast.Program) -> Dict[str, str]:
    """Name -> canonical per-function source for one parsed unit.

    Each function's text is the unparser's rendering of just that
    function, prefixed by the unit's global declarations: globals are
    part of a function's meaning (addressing, sizes), while sibling
    functions are not — calls are by name under a fixed convention —
    so two units sharing a function body and globals share its key.
    """
    globals_text = "".join(
        f"{declarator(decl.name, decl.ty)};\n" for decl in program.globals
    )
    texts: Dict[str, str] = {}
    for func in program.functions:
        solo = cast.Program(globals=program.globals, functions=[func])
        texts[func.name] = globals_text + unparse(solo)
    return texts


def result_key(fingerprint: str, engine: str, function_text: str) -> str:
    """The content address of one function's compiled assembly."""
    hasher = hashlib.sha256()
    hasher.update(fingerprint.encode())
    hasher.update(f"|engine={engine}|".encode())
    hasher.update(function_text.encode())
    return hasher.hexdigest()


def entry_healthy(entry: Dict[str, Any]) -> bool:
    """True when *entry* may answer a healthy compile.

    An entry flagged ``rescued`` carries assembly produced by a
    recovery-ladder rung (hoisted operands, PCC degrade) — correct for
    the degraded compile that stored it, stale the moment the tables
    are healthy again.  Entries without the flag (pre-v2 writers never
    stored rescues) are healthy by construction.
    """
    return not entry.get("rescued", False)


class ResultCache:
    """Bounded LRU of compiled-function results, optionally persistent.

    ``directory=None`` keeps the cache memory-only — the hermetic
    default for tests and short-lived servers.  With a directory, every
    store also writes a checksummed envelope through
    :class:`~repro.tables.cache.TableCache` (kind ``result``) and a
    memory miss falls through to disk; corrupt envelopes are
    quarantined there exactly like table pickles, and payloads that
    fail semantic validation are rejected through the same path.
    ``REPRO_TABLE_CACHE=0`` disables the persistent tier along with the
    rest of the cache machinery.
    """

    def __init__(
        self,
        fingerprint: str,
        engine: str,
        directory: Optional[str] = None,
        max_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.fingerprint = fingerprint
        self.engine = engine
        self.max_entries = max(1, max_entries)
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._store: Optional[TableCache] = None
        if directory is not None and cache_enabled():
            self._store = TableCache(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------- keys
    def key(self, function_text: str) -> str:
        return result_key(self.fingerprint, self.engine, function_text)

    def keys_for(self, program: cast.Program) -> Dict[str, str]:
        """Name -> result key for every function of a parsed unit."""
        return {
            name: self.key(text)
            for name, text in canonical_function_texts(program).items()
        }

    # ----------------------------------------------------------- lookup
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry for *key* (``assembly``, ``function``,
        ``cpu_seconds``) when it may answer a healthy compile
        (:func:`entry_healthy`), else ``None`` — the one probe rule.
        Counts a hit or miss by that rule — both on the instance and in
        the metrics registry, so a request's metrics delta shows its own
        cache traffic, and a refused entry is a miss there too."""
        entry = self._memory.get(key)
        if entry is None and self._store is not None:
            payload = self._store.load(key, kind=RESULT_KIND)
            if payload is not None:
                entry = self._validated(key, payload)
        if entry is None or not entry_healthy(entry):
            self.misses += 1
            METRICS.inc("server.result_cache.misses")
            return None
        self._remember(key, entry)
        self.hits += 1
        METRICS.inc("server.result_cache.hits")
        return entry

    def probe(
        self, keys: Dict[str, str], names: Iterable[str]
    ) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
        """Split *names* into hits and misses by the one probe rule every
        caller shares (:meth:`get`).  Returns ``(entries by name, misses
        in the order given)``."""
        entries: Dict[str, Dict[str, Any]] = {}
        misses: List[str] = []
        for name in names:
            entry = self.get(keys[name])
            if entry is None:
                misses.append(name)
            else:
                entries[name] = entry
        return entries, misses

    def _validated(
        self, key: str, payload: Any
    ) -> Optional[Dict[str, Any]]:
        """Semantic validation of a disk payload that passed the
        envelope checksum; a mismatch is quarantined, not re-trusted."""
        if (
            isinstance(payload, dict)
            and payload.get("key") == key
            and isinstance(payload.get("assembly"), str)
        ):
            return payload
        self._store.reject(
            key, "result payload failed validation", kind=RESULT_KIND
        )
        return None

    def _remember(self, key: str, entry: Dict[str, Any]) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------ store
    def put(
        self,
        key: str,
        function: str,
        assembly: str,
        cpu_seconds: float = 0.0,
        instructions: int = 0,
        tier: str = "",
        rescued: bool = False,
    ) -> Dict[str, Any]:
        entry = {
            "key": key,
            "function": function,
            "assembly": assembly,
            "cpu_seconds": cpu_seconds,
            "instructions": instructions,
            "tier": tier,
            "rescued": rescued,
        }
        self._remember(key, entry)
        if self._store is not None:
            self._store.store(key, entry, kind=RESULT_KIND)
        self.stores += 1
        METRICS.inc("server.result_cache.stores")
        return entry

    def put_healthy(
        self,
        key: str,
        function: str,
        assembly: str,
        tier: str,
        diagnosed: bool = False,
        cpu_seconds: float = 0.0,
        instructions: int = 0,
    ) -> None:
        """The one store gate every result-cache writer goes through.

        Stores *function* only when the cache's own engine compiled it
        unaided: a ladder tier other than :attr:`engine` (a rescue, a
        PCC degrade, a failure) or any diagnostic naming the function
        (*diagnosed*) refuses the store, so a later healthy compile pays
        a miss instead of ever being served degraded assembly.
        """
        if tier != self.engine or diagnosed:
            METRICS.inc("result_cache.rescues_not_cached")
            return
        self.put(
            key, function, assembly, cpu_seconds=cpu_seconds,
            instructions=instructions, tier=tier,
        )

    # ------------------------------------------------------------ stats
    def __len__(self) -> int:
        return len(self._memory)

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "persistent": self._store is not None,
        }
