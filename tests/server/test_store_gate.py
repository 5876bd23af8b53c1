"""One healthy-only store gate behind every result-cache writer.

A function the recovery ladder rescued compiled correctly for the
request that produced it, but its degraded assembly must never answer a
later healthy compile.  Each writer — the batch driver's incremental
store, the server's in-process paths, and the supervised worker's
whole-unit and partial-hit results — stores through
:meth:`~repro.result_cache.ResultCache.put_healthy`, so the rescued
``f`` below is stored by none of them while its healthy sibling ``ok``
is stored by all of them.  A function that fails every rung is stored
by none either, and a partial hit that recompiles it reports the same
``ok: false`` as the cold compile did.  A worker death that a retry
recovered keeps every function of the dead job out, on the batch driver
and the service alike.
"""

import threading

import pytest

import repro.codegen.recovery as recovery
from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import compile_program
from repro.frontend.parser import parse
from repro.fuzz.chaos import TINY_BLOCKER
from repro.result_cache import ResultCache, table_fingerprint
from repro.server import CompileClient, CompileServer
from repro.workers import FaultPlan, inject

SIBLING = "int ok(int a, int b) { return a + b; }\n"
SOURCE = TINY_BLOCKER + SIBLING
#: The same ``ok`` (same globals, same body) without the blocker, to
#: warm it alone and force a partial hit on SOURCE.
SIBLING_ONLY = "int g;\n" + SIBLING


@pytest.fixture(scope="module")
def debridged():
    return GrahamGlanvilleCodeGenerator(rescue_bridges=False, cache=False)


@pytest.fixture()
def cache(debridged):
    return ResultCache(table_fingerprint(debridged), debridged.engine)


def stored(cache, name):
    entry = cache.get(cache.keys_for(parse(SOURCE))[name])
    return entry is not None


def compile_request(source, **extra):
    return {"op": "compile", "source": source, "jobs": 1, **extra}


def test_batch_incremental_store(debridged, cache):
    out = compile_program(
        SOURCE, generator=debridged, resilient=True, result_cache=cache
    )
    assert out.tiers == {"f": "hoist", "ok": "packed"}
    assert not stored(cache, "f")
    assert stored(cache, "ok")


def test_server_in_process_whole_unit_and_partial_hit(
    debridged, cache, tmp_path
):
    server = CompileServer(
        path=str(tmp_path / "gate.sock"), generator=debridged,
        result_cache=cache,
    )
    whole = server.handle(compile_request(SOURCE, resilient=True))
    assert whole["ok"] and whole["tiers"]["f"] == "hoist"
    assert not stored(cache, "f")
    assert stored(cache, "ok")

    # ok is warm now: f alone misses and goes through the partial path
    partial = server.handle(compile_request(SOURCE, resilient=True))
    assert partial["ok"]
    assert partial["result_cache"] == {"hits": 1, "misses": 1}
    assert partial["tiers"] == {"f": "hoist", "ok": "cache"}
    assert partial["assembly"] == whole["assembly"]
    assert {d["code"] for d in partial["diagnostics"]} >= {
        "GG-BLOCK-SYN", "RECOVER-FORCE",
    }
    assert not stored(cache, "f")

    strict = server.handle(compile_request(SOURCE))
    assert not strict["ok"]
    assert strict["error"]["type"] == "CompileError"
    assert strict["error"]["message"].startswith("GG-BLOCK-SYN: ")


def _supervised(debridged, cache, tmp_path, requests):
    path = str(tmp_path / "supervised.sock")
    server = CompileServer(
        path=path, generator=debridged, result_cache=cache, workers=1,
    )
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


def test_supervised_whole_unit(debridged, cache, tmp_path):
    (response,) = _supervised(
        debridged, cache, tmp_path, [compile_request(SOURCE, resilient=True)],
    )
    assert response["ok"] and response["tiers"]["f"] == "hoist"
    assert not stored(cache, "f")
    assert stored(cache, "ok")


def test_supervised_partial_hit(debridged, cache, tmp_path):
    warm, partial = _supervised(debridged, cache, tmp_path, [
        compile_request(SIBLING_ONLY),
        compile_request(SOURCE, resilient=True),
    ])
    assert warm["ok"]
    assert partial["ok"]
    assert partial["result_cache"] == {"hits": 1, "misses": 1}
    assert partial["tiers"] == {"f": "hoist", "ok": "cache"}
    assert not stored(cache, "f")
    assert stored(cache, "ok")


def _in_process(debridged, cache, tmp_path, requests):
    server = CompileServer(
        path=str(tmp_path / "in-process.sock"), generator=debridged,
        result_cache=cache,
    )
    return [server.handle(request) for request in requests]


@pytest.fixture()
def unrescuable(monkeypatch):
    """Every rung fails on the blocked ``f``: the hoist rung finds
    nothing to hoist and the PCC rung refuses."""

    def pcc_refuses(forest):
        raise RuntimeError(f"pcc refused {forest.name}")

    monkeypatch.setattr(
        recovery, "_hoist_blocked_operand", lambda *args: None
    )
    monkeypatch.setattr(recovery, "pcc_compile", pcc_refuses)


@pytest.mark.parametrize("serve", [_in_process, _supervised])
def test_partial_hit_reports_a_failed_miss(
    debridged, cache, tmp_path, unrescuable, serve
):
    request = compile_request(SOURCE, resilient=True)
    cold, warm = serve(debridged, cache, tmp_path, [request, request])
    assert cold["failed"] == ["f"] and not cold["ok"]
    assert stored(cache, "ok") and not stored(cache, "f")
    # ok answers from the cache; f misses again and fails again
    assert warm["result_cache"] == {"hits": 1, "misses": 1}
    assert warm["tiers"] == {"f": "failed", "ok": "cache"}
    assert warm["failed"] == ["f"] and not warm["ok"]
    assert warm["assembly"] == cold["assembly"]
    assert not stored(cache, "f")


# ---------------------------------------------- worker death, both owners
#: Three healthy functions: only a worker death can keep one uncached.
THREE = (
    "int g;\n"
    "int f(int x) { g = x + 1; return g; }\n"
    "int h(int y) { return y * 2; }\n"
    "int k(int z) { return z - 3; }\n"
)


def _batch(gen, cache, tmp_path, requests):
    """The batch driver's answers to *requests*, in the reply's shape."""
    answers = []
    for request in requests:
        out = compile_program(
            request["source"], generator=gen, jobs=2, result_cache=cache
        )
        answers.append({
            "diagnostics": [d.to_dict() for d in out.diagnostics],
            "tiers": out.tiers,
        })
    return answers


@pytest.mark.parametrize("owner", [_batch, _supervised])
def test_a_retried_worker_death_is_stored_by_one_rule(owner, gg, tmp_path):
    """One worker death that a retry recovered is one WORKER-CRASH
    warning per function of the dead job, and on either owner exactly
    those functions miss on the next probe while the rest hit."""
    cache = ResultCache(table_fingerprint(gg), gg.engine)
    request = compile_request(THREE)
    with inject(FaultPlan("kill", limit=1)):
        first, again = owner(gg, cache, tmp_path, [request, request])
    crashed = [
        d for d in first["diagnostics"] if d["code"] == "WORKER-CRASH"
    ]
    assert crashed and {d["severity"] for d in crashed} == {"warning"}
    misses = {name for name, tier in again["tiers"].items() if tier != "cache"}
    assert misses == {d["function"] for d in crashed}
    assert set(again["tiers"]) == {"f", "h", "k"}
