"""Result-cache correctness: key derivation, integrity, observability.

The cache is only sound if its key splits on *everything* an emitted
function depends on — the constructed tables, the matcher engine, the
peephole toggle, the globals, the function's own source — and on
nothing else (whitespace and sibling functions must still hit).  The
persistent tier must give the v2-envelope treatment to damage: a
flipped byte is a quarantined miss, and a payload that deserializes but
fails semantic validation is rejected through the same path, never
re-trusted.  A cold/warm request pair against a live server must show
the traffic in each response's own metrics delta.  And the tier must
stay *sound under abuse through the service path*: racing writers on a
shared cache directory never corrupt what a fresh server reads back,
and a read-only cache directory degrades to recomputation, never to a
wrong or dropped answer.
"""

import os
import threading

from repro.frontend import parse
from repro.server import CompileClient, CompileServer
from repro.result_cache import (
    RESULT_KIND, ResultCache, canonical_function_texts, result_key,
    table_fingerprint,
)
from repro.tables.cache import TableCache

SOURCE = (
    "int g;\n"
    "int add(int a, int b) { int t; t = a + b; return t + g; }\n"
    "int twice(int x) { return x * 2; }\n"
)

#: Same unit, different whitespace and formatting — canonically equal.
SOURCE_RESTYLED = (
    "int   g;\n\n"
    "int add(int a,int b){int t;t=a+b;return t+g;}\n"
    "int twice(int x)   { return x * 2; }\n"
)

#: ``add`` changed, ``twice`` untouched.
SOURCE_EDITED = SOURCE.replace("a + b", "a - b")

#: Same functions, different globals — globals are part of a function's
#: meaning (addressing and sizes), so every key must change.
SOURCE_REGLOBALED = SOURCE.replace("int g;", "int g; int h;")


class _StubTarget:
    def __init__(self, name="vax"):
        self.name = name


class _StubGenerator:
    """Just enough surface for :func:`table_fingerprint`."""

    def __init__(self, tables, peephole=False, target="vax"):
        self.tables = tables
        self.peephole = peephole
        self.target = _StubTarget(target)


# ------------------------------------------------------------------- keys
def test_key_changes_with_table_fingerprint(gg):
    fp_plain = table_fingerprint(_StubGenerator(gg.tables, peephole=False))
    fp_peep = table_fingerprint(_StubGenerator(gg.tables, peephole=True))
    assert fp_plain != fp_peep
    text = "int f() { return 1; }"
    assert result_key(fp_plain, "packed", text) \
        != result_key(fp_peep, "packed", text)


def test_fingerprint_splits_on_table_content(gg, gg_norev):
    """Different grammars construct different tables — the packed-table
    content hash must split them even with identical options."""
    assert table_fingerprint(_StubGenerator(gg.tables)) \
        != table_fingerprint(_StubGenerator(gg_norev.tables))


def test_key_changes_with_engine(gg):
    fingerprint = table_fingerprint(_StubGenerator(gg.tables))
    text = "int f() { return 1; }"
    keys = {
        result_key(fingerprint, engine, text)
        for engine in ("packed", "dict")
    }
    assert len(keys) == 2


def test_key_changes_with_function_source_only_for_that_function(gg):
    fingerprint = table_fingerprint(_StubGenerator(gg.tables))
    cache = ResultCache(fingerprint, "packed")
    base = cache.keys_for(parse(SOURCE))
    edited = cache.keys_for(parse(SOURCE_EDITED))
    assert base["add"] != edited["add"]      # the edit splits its key
    assert base["twice"] == edited["twice"]  # the sibling still hits


def test_key_insensitive_to_whitespace_and_formatting():
    texts = canonical_function_texts(parse(SOURCE))
    restyled = canonical_function_texts(parse(SOURCE_RESTYLED))
    assert texts == restyled


def test_key_changes_when_globals_change(gg):
    fingerprint = table_fingerprint(_StubGenerator(gg.tables))
    cache = ResultCache(fingerprint, "packed")
    base = cache.keys_for(parse(SOURCE))
    reglobaled = cache.keys_for(parse(SOURCE_REGLOBALED))
    assert base["add"] != reglobaled["add"]
    assert base["twice"] != reglobaled["twice"]


# -------------------------------------------------------------- LRU + tiers
def test_memory_lru_evicts_oldest():
    cache = ResultCache("fp", "packed", max_entries=2)
    cache.put(cache.key("a"), "a", "asm-a")
    cache.put(cache.key("b"), "b", "asm-b")
    assert cache.get(cache.key("a")) is not None  # refresh "a"
    cache.put(cache.key("c"), "c", "asm-c")       # evicts "b"
    assert cache.get(cache.key("b")) is None
    assert cache.get(cache.key("a"))["assembly"] == "asm-a"
    assert len(cache) == 2


def test_persistent_round_trip_across_instances(tmp_path):
    directory = str(tmp_path / "results")
    first = ResultCache("fp", "packed", directory=directory)
    key = first.key("int f() { return 1; }")
    first.put(key, "f", "\tret\n", cpu_seconds=0.01)
    # a fresh instance (fresh memory tier) hits from disk
    second = ResultCache("fp", "packed", directory=directory)
    entry = second.get(key)
    assert entry is not None
    assert entry["assembly"] == "\tret\n"
    assert second.stats()["hits"] == 1


def test_corrupt_envelope_is_quarantined_not_trusted(tmp_path):
    directory = str(tmp_path / "results")
    cache = ResultCache("fp", "packed", directory=directory)
    key = cache.key("int f() { return 2; }")
    cache.put(key, "f", "\tret\n")
    path = TableCache(directory).path_for(key, kind=RESULT_KIND)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF  # flip one payload byte
    with open(path, "wb") as handle:
        handle.write(blob)
    fresh = ResultCache("fp", "packed", directory=directory)
    assert fresh.get(key) is None  # a miss, never garbage assembly
    assert not os.path.exists(path)
    assert os.path.exists(path + ".quarantined")


def test_semantically_invalid_payload_rejected_via_quarantine(tmp_path):
    """An envelope that passes its checksum but whose payload fails
    validation (foreign key, missing assembly) is explicitly rejected —
    same post-mortem treatment as corruption."""
    directory = str(tmp_path / "results")
    store = TableCache(directory)
    cache = ResultCache("fp", "packed", directory=directory)
    key = cache.key("int f() { return 3; }")
    store.store(key, {"key": "someone-else", "assembly": 42},
                kind=RESULT_KIND)
    assert cache.get(key) is None
    path = store.path_for(key, kind=RESULT_KIND)
    assert not os.path.exists(path)
    assert os.path.exists(path + ".quarantined")


# -------------------------------------------------------- server integration
def test_cold_then_warm_shows_in_metrics_delta(tmp_path, gg):
    path = str(tmp_path / "cachemetrics.sock")
    server = CompileServer(path=path, generator=gg)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with CompileClient(path=path) as client:
            cold = client.compile(SOURCE)
            warm = client.compile(SOURCE)
            restyled = client.compile(SOURCE_RESTYLED)
            edited = client.compile(SOURCE_EDITED)
            client.shutdown()
    finally:
        thread.join(timeout=30)

    assert cold["ok"] and warm["ok"]
    assert cold["assembly"] == warm["assembly"]
    assert cold["result_cache"] == {"hits": 0, "misses": 2}
    assert cold["metrics"]["counters"]["server.result_cache.misses"] == 2
    assert warm["result_cache"] == {"hits": 2, "misses": 0}
    assert warm["metrics"]["counters"]["server.result_cache.hits"] == 2
    assert "compile.functions" not in warm["metrics"]["counters"]
    # formatting churn still hits; a real edit misses only its function
    assert restyled["result_cache"] == {"hits": 2, "misses": 0}
    assert restyled["assembly"] == cold["assembly"]
    assert edited["result_cache"] == {"hits": 1, "misses": 1}


def test_persistent_cache_survives_server_restart(tmp_path, gg):
    cache_dir = str(tmp_path / "resultcache")
    sources_compiled = []

    for generation in range(2):
        path = str(tmp_path / f"gen{generation}.sock")
        server = CompileServer(
            path=path, generator=gg, result_cache_dir=cache_dir,
        )
        server.bind()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with CompileClient(path=path) as client:
                sources_compiled.append(client.compile(SOURCE))
                client.shutdown()
        finally:
            thread.join(timeout=30)

    first, second = sources_compiled
    assert first["ok"] and second["ok"]
    assert first["assembly"] == second["assembly"]
    assert first["result_cache"] == {"hits": 0, "misses": 2}
    # the restarted server's memory tier is cold; the hits came off disk
    assert second["result_cache"] == {"hits": 2, "misses": 0}


def test_racing_writers_keep_persistent_tier_sound(tmp_path, gg):
    """Two servers sharing one cache directory, many clients writing
    the same keys concurrently: every response stays correct, and a
    third, fresh server reads the survivors back as clean hits."""
    cache_dir = str(tmp_path / "racingcache")
    paths = [str(tmp_path / f"racer{i}.sock") for i in range(2)]
    servers, threads = [], []
    for path in paths:
        server = CompileServer(
            path=path, generator=gg, result_cache_dir=cache_dir,
        )
        server.bind()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)

    expected = None
    failures = []
    lock = threading.Lock()

    def hammer(client_id):
        try:
            with CompileClient(path=paths[client_id % 2]) as client:
                for _ in range(4):
                    response = client.compile(SOURCE)
                    assert response["ok"], response
                    assert response["assembly"] == expected
        except Exception as exc:
            with lock:
                failures.append(f"client {client_id}: {exc}")

    try:
        with CompileClient(path=paths[0]) as seed_client:
            seed = seed_client.compile(SOURCE_EDITED)  # prime the tables
            expected = seed_client.compile(SOURCE)["assembly"]
        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
        assert not failures, failures[:3]
        assert seed["ok"]
    finally:
        for path, thread in zip(paths, threads):
            with CompileClient(path=path) as admin:
                admin.shutdown()
            thread.join(timeout=30)

    # a fresh server trusts only entries that validate: they all must
    path = str(tmp_path / "reader.sock")
    server = CompileServer(
        path=path, generator=gg, result_cache_dir=cache_dir,
    )
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with CompileClient(path=path) as client:
            warm = client.compile(SOURCE)
            client.shutdown()
    finally:
        thread.join(timeout=30)
    assert warm["ok"] and warm["assembly"] == expected
    assert warm["result_cache"] == {"hits": 2, "misses": 0}


def test_read_only_cache_dir_degrades_to_compute(tmp_path, gg):
    """An unwritable persistent tier must cost performance, never
    correctness: compiles still answer through the server path."""
    import stat

    cache_dir = tmp_path / "frozencache"
    cache_dir.mkdir()
    os.chmod(cache_dir, stat.S_IRUSR | stat.S_IXUSR)
    path = str(tmp_path / "readonly.sock")
    server = CompileServer(
        path=path, generator=gg, result_cache_dir=str(cache_dir),
    )
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with CompileClient(path=path) as client:
            first = client.compile(SOURCE)
            second = client.compile(SOURCE)
            client.shutdown()
    finally:
        thread.join(timeout=30)
        os.chmod(cache_dir, stat.S_IRWXU)
    assert first["ok"] and second["ok"]
    assert first["assembly"] == second["assembly"]
    assert first["result_cache"]["misses"] == 2
    # the memory tier still serves repeats even when disk is frozen
    assert second["result_cache"] == {"hits": 2, "misses": 0}
