"""One request path on both compile-service backends.

``workers=0`` compiles a request's result-cache misses on the server's
executor thread; ``workers=1`` ships them to a supervised worker.
Everything around that step — validation, the probe, the response and
the cache stores — is shared, so one request sequence must get the same
answers from both: cold, warm, a partial hit, a resilient rescue, a
strict ``CompileError``, a wrong target, and a server with the cache
off.  The same holds for span traces, for an entry flagged ``rescued``
(a miss for every caller, as it is for ``compile_program``) and for how
often the server parses a cold unit.
"""

import threading

import pytest

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import compile_program
from repro.frontend.parser import Parser, parse
from repro.fuzz.chaos import TINY_BLOCKER
from repro.obs import validate_trace_events
from repro.result_cache import ResultCache, table_fingerprint
from repro.server import CompileClient, CompileServer

SIBLING = "int ok(int a, int b) { return a + b; }\n"
TWICE = "int twice(int a) { return a * 2; }\n"
#: Two healthy functions under the blocker's globals; ``ok`` is shared
#: with BLOCKED, so BLOCKED is a partial hit once UNIT is warm.
UNIT = "int g;\n" + SIBLING + TWICE
#: UNIT with ``twice`` edited: ``ok`` hits, ``twice`` misses.
EDITED = "int g;\n" + SIBLING + "int twice(int a) { return a * 3; }\n"
#: ``f`` blocks the de-bridged packed matcher; the ladder hoists it.
BLOCKED = TINY_BLOCKER + SIBLING

BACKENDS = pytest.mark.parametrize(
    "workers", [0, 1], ids=["in-process", "supervised"]
)


@pytest.fixture(scope="module")
def debridged():
    return GrahamGlanvilleCodeGenerator(rescue_bridges=False, cache=False)


def new_cache(generator):
    return ResultCache(table_fingerprint(generator), generator.engine)


def serve(tmp_path, requests, **options):
    """Answer *requests* in order on a live server; returns the
    responses."""
    path = str(tmp_path / f"parity-{options.get('workers', 0)}.sock")
    server = CompileServer(path=path, **options)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with CompileClient(path=path, connect_timeout=30) as client:
            responses = [client.request(request) for request in requests]
            client.shutdown()
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()
    return responses


def compile_request(source, **extra):
    return {"op": "compile", "source": source, **extra}


SEQUENCE = [
    ("cold", compile_request(UNIT)),
    ("warm", compile_request(UNIT)),
    ("partial", compile_request(EDITED)),
    ("rescue", compile_request(BLOCKED, resilient=True)),
    ("strict", compile_request(BLOCKED)),
    ("wrong-target", compile_request(UNIT, target="r32")),
]

#: The response fields both backends must agree on.
FIELDS = ("ok", "assembly", "functions", "failed", "tiers", "result_cache")


def summary(response):
    """What a client can observe of a response, timings aside."""
    seen = {field: response.get(field) for field in FIELDS}
    seen["error"] = (response.get("error") or {}).get("type")
    seen["codes"] = [d["code"] for d in response.get("diagnostics", [])]
    return seen


def test_both_backends_answer_one_sequence_alike(debridged, tmp_path):
    requests = [request for _, request in SEQUENCE]
    answers = {}
    for workers in (0, 1):
        responses = serve(
            tmp_path, requests, generator=debridged, workers=workers,
            result_cache=new_cache(debridged),
        )
        (cache_off,) = serve(
            tmp_path, [compile_request(UNIT)], generator=debridged,
            workers=workers, result_cache=False,
        )
        answers[workers] = [summary(r) for r in responses + [cache_off]]
    assert answers[0] == answers[1]

    seen = dict(zip([label for label, _ in SEQUENCE] + ["cache-off"],
                    answers[0]))
    healthy = compile_program(UNIT, generator=debridged).text
    assert seen["cold"]["assembly"] == healthy
    assert seen["cold"]["result_cache"] == {"hits": 0, "misses": 2}
    assert seen["warm"]["assembly"] == healthy
    assert seen["warm"]["result_cache"] == {"hits": 2, "misses": 0}
    assert seen["warm"]["tiers"] == {"ok": "cache", "twice": "cache"}
    assert seen["partial"]["assembly"] == \
        compile_program(EDITED, generator=debridged).text
    assert seen["partial"]["result_cache"] == {"hits": 1, "misses": 1}
    rescued = compile_program(BLOCKED, generator=debridged, resilient=True)
    assert seen["rescue"]["ok"]
    assert seen["rescue"]["assembly"] == rescued.text
    assert seen["rescue"]["tiers"] == {"f": "hoist", "ok": "cache"}
    assert {"GG-BLOCK-SYN", "RECOVER-FORCE"} <= set(seen["rescue"]["codes"])
    assert not seen["strict"]["ok"]
    assert seen["strict"]["error"] == "CompileError"
    assert seen["strict"]["result_cache"] == {"hits": 1, "misses": 1}
    assert seen["wrong-target"]["error"] == "wrong-target"
    assert seen["cache-off"]["assembly"] == healthy
    assert seen["cache-off"]["result_cache"] is None


@BACKENDS
def test_spans_on_every_backend(debridged, tmp_path, workers):
    """Cold, partial and warm traces carry the parent's request and
    probe spans; every compiled function adds its own ``compile``
    span (a supervised worker's on its own pid row); the merged list
    is a valid trace."""
    cold, partial, warm = serve(tmp_path, [
        compile_request(UNIT, spans=True),
        compile_request(EDITED, spans=True),
        compile_request(EDITED, spans=True),
    ], generator=debridged, workers=workers,
        result_cache=new_cache(debridged))
    for response, compiled in ((cold, 2), (partial, 1), (warm, 0)):
        assert response["ok"]
        events = response["spans"]
        assert validate_trace_events({"traceEvents": events}) == []
        names = [event["name"] for event in events]
        assert "server.request" in names and "server.cache_probe" in names
        compiles = [e for e in events if e["name"] == "compile"]
        assert len(compiles) == compiled
        parent = {e["pid"] for e in events if e["name"] == "server.request"}
        workers_seen = {e["pid"] for e in compiles} - parent
        assert len(workers_seen) == (workers if compiled else 0)


@BACKENDS
def test_a_rescued_entry_is_a_miss(debridged, tmp_path, workers):
    """An entry flagged ``rescued`` never answers a request: the server
    recompiles the function, as ``compile_program`` does."""
    cache = new_cache(debridged)
    keys = cache.keys_for(parse(UNIT))
    cache.put(keys["ok"], "ok", "\t# degraded\n", tier="hoist", rescued=True)
    (response,) = serve(
        tmp_path, [compile_request(UNIT)], generator=debridged,
        workers=workers, result_cache=cache,
    )
    assert response["result_cache"] == {"hits": 0, "misses": 2}
    assert response["tiers"] == {"ok": "packed", "twice": "packed"}
    assert response["assembly"] == \
        compile_program(UNIT, generator=debridged).text
    assert "# degraded" not in response["assembly"]


@BACKENDS
def test_a_cold_unit_is_parsed_once(
    debridged, tmp_path, workers, monkeypatch
):
    """The server process parses a cold unit and derives its keys
    once, whichever backend compiles it."""
    calls = {"parse": 0, "keys": 0}
    parse_program = Parser.parse_program
    keys_for = ResultCache.keys_for

    def counted_parse(self):
        calls["parse"] += 1
        return parse_program(self)

    def counted_keys(self, program):
        calls["keys"] += 1
        return keys_for(self, program)

    monkeypatch.setattr(Parser, "parse_program", counted_parse)
    monkeypatch.setattr(ResultCache, "keys_for", counted_keys)
    (response,) = serve(
        tmp_path, [compile_request(UNIT)], generator=debridged,
        workers=workers, result_cache=new_cache(debridged),
    )
    assert response["ok"]
    assert calls == {"parse": 1, "keys": 1}
