"""Persistent, content-addressed cache for constructed parse tables.

The paper's static phase is expensive by design — "it required over two
memory-intensive hours of VAX 11/780 CPU time to construct a new set of
tables" (section 7) — and our reproduction still pays LR(0) construction
over the full replicated VAX description in *every process*.  This module
removes that per-process cost: a cache key is the SHA-256 of the
compiler's own code (:func:`code_digest`), the exact machine-description
text and the construction options, so any change to the table
constructor, to the productions or to the disambiguation toggles
(``reversed_ops``, ``overfactoring_fix``) misses the cache and triggers
a fresh build, while an unchanged compiler and description warm-start
from a pickle in tens of milliseconds.

Robustness rules:

* Entries carry an envelope version (:data:`CACHE_VERSION`); a version
  or key mismatch is a miss, never an error.
* Every entry carries a SHA-256 of its pickled payload; a flipped byte
  anywhere in the payload is detected *before* unpickling, so corruption
  can never deserialize into silently wrong tables.
* A corrupt or truncated entry (bad checksum, unpicklable, wrong
  envelope) is **quarantined** — renamed to ``*.quarantined`` for post
  mortem — and the build falls back cold; the cache can always be
  thrown away.
* Writes are atomic (temp file + ``os.replace``), so a crashed process
  never leaves a half-written entry for the next one to trip over, and
  are retried with a short backoff when racing writers or transient I/O
  errors get in the way.

The cache directory defaults to ``$REPRO_TABLE_CACHE_DIR``, then
``$XDG_CACHE_HOME/repro-gg/tables``, then ``~/.cache/repro-gg/tables``;
``REPRO_TABLE_CACHE=0`` disables the whole mechanism.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..obs.metrics import REGISTRY as METRICS
from ..obs.spans import span

#: The version of the envelope format only: bump it when the stored
#: tuple's layout changes, so old entries become plain misses.  Code
#: changes need no bump: every key carries :data:`CODE_DIGEST`.
#: v2: the envelope carries a SHA-256 of the pickled payload.
#: v3: callers key construction by target name (two machine
#: descriptions must never alias), and the payload bundle carries
#: target-parametric semantics hooks.
CACHE_VERSION = 3

#: Atomic-store attempts before giving up (racing writers, NFS hiccups).
STORE_ATTEMPTS = 3

#: Base backoff between store attempts, seconds (doubles per retry).
STORE_BACKOFF = 0.05

ENV_DISABLE = "REPRO_TABLE_CACHE"
ENV_DIR = "REPRO_TABLE_CACHE_DIR"

_FALSEY = {"0", "off", "false", "no"}

#: The ``repro`` package directory, whose source :func:`code_digest`
#: covers.
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def code_digest(root: str = PACKAGE_DIR) -> str:
    """SHA-256 over the compiler's own code: every ``.py`` file under
    *root* (the ``repro`` package), each file's relative path, length
    and bytes, in sorted path order.

    :data:`CODE_DIGEST` is a component of every table key and every
    result key, so an entry written by other code is a miss.  It covers
    the whole package rather than the modules a process happened to
    import: the service and a batch compile import different module
    sets, and share one cache by design.
    """
    files = []
    for directory, _subdirs, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                relative = os.path.relpath(path, root).replace(os.sep, "/")
                files.append((relative, path))
    hasher = hashlib.sha256()
    for relative, path in sorted(files):
        with open(path, "rb") as handle:
            data = handle.read()
        hasher.update(f"{relative}\0{len(data)}\0".encode())
        hasher.update(data)
    return hasher.hexdigest()


#: This process's code digest, taken once at import, so a source edit
#: made while the process runs cannot relabel what it stores.
CODE_DIGEST = code_digest()


def cache_enabled(default: bool = True) -> bool:
    """Whether the env permits caching (``REPRO_TABLE_CACHE=0`` wins)."""
    value = os.environ.get(ENV_DISABLE)
    if value is None:
        return default
    return value.strip().lower() not in _FALSEY


def default_cache_dir() -> str:
    override = os.environ.get(ENV_DIR)
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-gg", "tables")


def table_cache_key(grammar_text: str, **options: Any) -> str:
    """Content hash of the compiler's code, a machine description and
    the construction options.

    The text itself carries most of the identity (toggles change the
    productions), but the options are hashed explicitly too so that any
    future option affecting construction *without* changing the text
    still splits the key space.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_VERSION}|code={CODE_DIGEST}|".encode())
    hasher.update(grammar_text.encode())
    for name in sorted(options):
        hasher.update(f"|{name}={options[name]!r}".encode())
    return hasher.hexdigest()


@dataclass
class CacheOutcome:
    """What one cache consultation did, for benchmarks and diagnostics."""

    key: str
    hit: bool = False
    path: str = ""
    load_seconds: float = 0.0
    build_seconds: float = 0.0
    store_seconds: float = 0.0
    error: str = ""
    #: why the existing entry was rejected ("" when it wasn't)
    corruption: str = ""
    #: where the rejected entry was moved for post mortem
    quarantined: str = ""
    #: atomic-store attempts beyond the first
    store_retries: int = 0

    @property
    def seconds(self) -> float:
        """Total static-phase time this consultation accounts for."""
        return self.load_seconds + self.build_seconds + self.store_seconds

    def as_dict(self) -> dict:
        return {
            "hit": self.hit,
            "load_seconds": self.load_seconds,
            "build_seconds": self.build_seconds,
            "store_seconds": self.store_seconds,
            "corruption": self.corruption,
            "quarantined": self.quarantined,
            "store_retries": self.store_retries,
            "error": self.error,
        }


class TableCache:
    """A directory of pickled ``(version, key, sha256, payload)``
    envelopes, where ``payload`` is itself pickled bytes covered by the
    checksum."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = str(directory) if directory else default_cache_dir()
        #: Set by :meth:`load` when it rejected an entry: a short reason.
        self.last_corruption: str = ""
        #: Where the rejected entry went ("" when deleted or none).
        self.last_quarantine: str = ""
        #: Set by :meth:`store`: retries beyond the first attempt.
        self.last_store_retries: int = 0

    def path_for(self, key: str, kind: str = "tables") -> str:
        """Entry path; *kind* namespaces envelope flavours sharing one
        directory (``tables`` pickles, ``result`` per-function
        assembly) without any change to the envelope format itself."""
        return os.path.join(self.directory, f"{key}.{kind}.pickle")

    # ------------------------------------------------------------- load
    def load(self, key: str, kind: str = "tables") -> Optional[Any]:
        """The cached payload, or None on miss/corruption.

        Corrupt entries (truncated file, flipped byte, checksum mismatch,
        foreign key) are quarantined — renamed aside, never re-trusted —
        and the miss triggers a cold rebuild.  Entries from an older
        :data:`CACHE_VERSION` are simply stale, and deleted quietly.
        """
        self.last_corruption = ""
        self.last_quarantine = ""
        path = self.path_for(key, kind)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            self._reject(path, f"unpicklable envelope: {type(exc).__name__}")
            return None
        if not isinstance(envelope, tuple) or len(envelope) != 4:
            self._reject(path, "malformed envelope")
            return None
        version, stored_key, digest, payload_bytes = envelope
        if version != CACHE_VERSION:
            # old layout, not damage: a quiet miss
            self._discard(path)
            return None
        if stored_key != key:
            self._reject(path, "envelope key mismatch")
            return None
        if not isinstance(payload_bytes, bytes) or (
            hashlib.sha256(payload_bytes).hexdigest() != digest
        ):
            self._reject(path, "payload checksum mismatch")
            return None
        try:
            return pickle.loads(payload_bytes)
        except Exception as exc:
            self._reject(path, f"unpicklable payload: {type(exc).__name__}")
            return None

    # ------------------------------------------------------------ store
    def store(self, key: str, payload: Any, kind: str = "tables") -> Optional[str]:
        """Atomically write *payload* (checksummed envelope); returns the
        path, or None when the filesystem refuses after bounded retries
        (a read-only cache is not an error)."""
        self.last_store_retries = 0
        path = self.path_for(key, kind)
        payload_bytes = pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL
        )
        envelope = (
            CACHE_VERSION, key,
            hashlib.sha256(payload_bytes).hexdigest(), payload_bytes,
        )
        for attempt in range(STORE_ATTEMPTS):
            try:
                os.makedirs(self.directory, exist_ok=True)
                fd, temp_path = tempfile.mkstemp(
                    dir=self.directory, suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        pickle.dump(
                            envelope, handle,
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    os.replace(temp_path, path)
                except BaseException:
                    self._discard(temp_path)
                    raise
                return path
            except OSError:
                if attempt + 1 < STORE_ATTEMPTS:
                    self.last_store_retries = attempt + 1
                    time.sleep(STORE_BACKOFF * (2 ** attempt))
        self.last_store_retries = STORE_ATTEMPTS - 1
        return None

    # -------------------------------------------------------- rejection
    def reject(self, key: str, reason: str, kind: str = "tables") -> None:
        """Quarantine *key*'s entry explicitly.

        The v2 quarantine path normally fires inside :meth:`load` when an
        envelope is damaged; callers whose payload passes the envelope
        checks but fails *semantic* validation (a result entry missing
        its assembly, say) use this to give the entry the same
        ``*.quarantined`` post-mortem treatment instead of re-trusting
        it on the next load.
        """
        self._reject(self.path_for(key, kind), reason)
        if METRICS.enabled:
            METRICS.inc("cache.quarantines")

    def _reject(self, path: str, reason: str) -> None:
        """Quarantine a damaged entry and remember why."""
        self.last_corruption = reason
        quarantine = path + ".quarantined"
        try:
            os.replace(path, quarantine)
            self.last_quarantine = quarantine
        except OSError:
            self._discard(path)

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass


def rewrite_payload(path: str, mutate: Callable[[Any], Any]) -> None:
    """Fault injection: give the entry at *path* the payload
    ``mutate(payload)`` but keep its stored digest, which
    :meth:`TableCache.load` must then refuse."""
    with open(path, "rb") as handle:
        version, key, digest, payload = pickle.load(handle)
    payload = pickle.dumps(mutate(pickle.loads(payload)))
    with open(path, "wb") as handle:
        pickle.dump((version, key, digest, payload), handle)


def cached_build(
    key: str,
    builder: Callable[[], Any],
    directory: Optional[str] = None,
    enabled: Optional[bool] = None,
) -> Tuple[Any, CacheOutcome]:
    """Load the payload for *key*, or build and store it.

    ``builder`` runs on a miss (or with caching disabled); its result is
    what gets stored.  The returned :class:`CacheOutcome` records which
    happened and how long each step took, so benchmarks can report
    cold-vs-warm static-phase cost.
    """
    if enabled is None:
        enabled = cache_enabled()
    outcome = CacheOutcome(key=key)
    cache = TableCache(directory)

    # Every step below runs under try/finally: the outcome's timing
    # fields are populated on *every* exit path — hit, miss, corrupt
    # entry quarantined mid-load, builder failure, store retry or store
    # refusal — and the metrics are published even when an exception
    # propagates, so a crash still leaves an accounted-for trace.
    if enabled:
        started = time.perf_counter()
        try:
            with span("cache.load", cat="static"):
                payload = cache.load(key)
        finally:
            outcome.load_seconds = time.perf_counter() - started
            outcome.corruption = cache.last_corruption
            outcome.quarantined = cache.last_quarantine
        if payload is not None:
            outcome.hit = True
            outcome.path = cache.path_for(key)
            _publish(outcome, consulted=True)
            return payload, outcome

    started = time.perf_counter()
    built = False
    try:
        with span("tables.build", cat="static"):
            payload = builder()
        built = True
    finally:
        outcome.build_seconds = time.perf_counter() - started
        if not built:  # builder raised: publish what we measured
            _publish(outcome, consulted=enabled)

    if enabled:
        started = time.perf_counter()
        stored = None
        try:
            with span("cache.store", cat="static"):
                stored = cache.store(key, payload)
        except Exception as exc:
            # an unpicklable payload (or any other store-time surprise)
            # must not discard tables that were just built successfully
            outcome.error = f"store failed ({type(exc).__name__}: {exc})"
        finally:
            outcome.store_seconds = time.perf_counter() - started
            outcome.store_retries = cache.last_store_retries
        if stored:
            outcome.path = stored
        elif not outcome.error:
            outcome.error = "store failed (cache directory not writable)"
    _publish(outcome, consulted=enabled)
    return payload, outcome


def cached_load(
    key: str,
    directory: Optional[str] = None,
    enabled: Optional[bool] = None,
) -> Tuple[Optional[Any], CacheOutcome]:
    """Load-only consultation: the payload for *key*, or None — never
    builds.

    This is the pool-worker warm start: the parent computed *key* once
    (it owns the generator whose tables were cached under it) and ships
    only the hex digest to each worker, whose initializer loads the
    constructed tables straight from the content-addressed entry without
    regenerating the grammar text or re-deriving the key.  A miss or a
    quarantined entry returns ``(None, outcome)`` and the caller decides
    whether to build cold.
    """
    if enabled is None:
        enabled = cache_enabled()
    outcome = CacheOutcome(key=key)
    if not enabled:
        return None, outcome
    cache = TableCache(directory)
    started = time.perf_counter()
    try:
        with span("cache.load", cat="static"):
            payload = cache.load(key)
    finally:
        outcome.load_seconds = time.perf_counter() - started
        outcome.corruption = cache.last_corruption
        outcome.quarantined = cache.last_quarantine
    outcome.hit = payload is not None
    if outcome.hit:
        outcome.path = cache.path_for(key)
    _publish(outcome, consulted=True)
    return payload, outcome


def _publish(outcome: CacheOutcome, consulted: bool) -> None:
    """Surface one consultation's outcome as obs metrics."""
    if not METRICS.enabled:
        return
    if consulted:
        METRICS.inc("cache.hits" if outcome.hit else "cache.misses")
        if outcome.load_seconds:
            METRICS.observe("cache.load_seconds", outcome.load_seconds)
    if outcome.corruption:
        METRICS.inc("cache.quarantines")
    if outcome.build_seconds:
        METRICS.observe("cache.build_seconds", outcome.build_seconds)
    if outcome.store_seconds:
        METRICS.observe("cache.store_seconds", outcome.store_seconds)
    if outcome.store_retries:
        METRICS.inc("cache.store_retries", outcome.store_retries)
    if outcome.error:
        METRICS.inc("cache.store_failures")
