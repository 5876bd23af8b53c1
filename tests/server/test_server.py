"""The compile server: warm tables behind a socket, serial-identical.

The acceptance bar is differential: a batch compile request round-
tripped through the server must produce byte-identical assembly to
``compile_program(jobs=1)``.  On top of that, each request's response
must carry its own diagnostics, metrics delta and (on demand) span
trace, and a bad request must poison neither the server nor its
connection.
"""

import socket
import threading

import pytest

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import compile_program
from repro.server import (
    CompileClient, CompileServer, ProtocolError, recv_frame, send_frame,
)
from repro.server import protocol as protocol_mod
from repro.workloads.programs import ALL_PROGRAMS

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}

MULTI_SOURCE = "\n".join(
    _BY_NAME[name].source for name in ("gcd", "fib", "bits", "poly_eval")
)
SMALL_SOURCE = _BY_NAME["gcd"].source

#: Blocks the packed matcher when rescue bridges are absent; the
#: recovery ladder lands it on the hoist tier.
BLOCKER_SOURCE = "int g; int f(int x, int y) { g = 2 + x*y; return g; }"


# -------------------------------------------------------------- protocol
def test_frame_round_trip():
    a, b = socket.socketpair()
    try:
        payload = {"op": "ping", "nested": [1, 2, {"x": "y"}]}
        send_frame(a, payload)
        assert recv_frame(b) == payload
    finally:
        a.close()
        b.close()


def test_clean_eof_is_none():
    a, b = socket.socketpair()
    a.close()
    try:
        assert recv_frame(b) is None
    finally:
        b.close()


def test_truncated_frame_raises():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x10abc")  # announces 16 bytes, sends 3
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_oversized_frame_rejected_unread(monkeypatch):
    monkeypatch.setattr(protocol_mod, "MAX_FRAME_BYTES", 16)
    a, b = socket.socketpair()
    try:
        with pytest.raises(ProtocolError, match="exceeds"):
            send_frame(a, {"pad": "x" * 64})
        a.sendall(b"\x7f\xff\xff\xff")  # a 2 GiB announcement
        with pytest.raises(ProtocolError, match="announced"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------- server
@pytest.fixture()
def running_server(tmp_path):
    path = str(tmp_path / "ggcc.sock")
    server = CompileServer(path=path)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = CompileClient(path=path)
    try:
        yield server, client
    finally:
        try:
            client.shutdown()
        except (OSError, ConnectionError, RuntimeError):
            pass
        client.close()
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_ping(running_server):
    _, client = running_server
    response = client.ping()
    assert response["ok"]
    assert response["pid"] > 0


def test_batch_request_matches_serial(running_server):
    """The acceptance differential: batch round trip == jobs=1 text."""
    _, client = running_server
    serial = compile_program(MULTI_SOURCE, jobs=1)
    small = compile_program(SMALL_SOURCE, jobs=1)
    response = client.compile_batch([
        {"source": MULTI_SOURCE},
        {"source": SMALL_SOURCE, "jobs": 1},
        {"source": MULTI_SOURCE, "resilient": True},
    ])
    assert response["ok"]
    first, second, third = response["responses"]
    assert first["ok"] and first["assembly"] == serial.text
    assert second["ok"] and second["assembly"] == small.text
    assert third["ok"] and third["assembly"] == serial.text
    assert first["functions"] == list(serial.source_program.order)


def test_per_request_metrics_delta(running_server):
    _, client = running_server
    response = client.compile(SMALL_SOURCE, jobs=1)
    counters = response["metrics"]["counters"]
    assert counters.get("compile.functions") == 1
    assert counters.get("server.result_cache.misses") == 1
    # a second identical request opens a fresh window — deltas, not
    # totals — and is pure result-cache traffic: no compile at all.
    again = client.compile(SMALL_SOURCE, jobs=1)
    counters = again["metrics"]["counters"]
    assert counters.get("server.result_cache.hits") == 1
    assert "compile.functions" not in counters


def test_spans_only_when_requested(running_server):
    _, client = running_server
    plain = client.compile(SMALL_SOURCE, jobs=1)
    assert "spans" not in plain
    # a fresh unit, so the traced request actually compiles (a warm
    # request's trace shows only the cache probe)
    traced = client.compile(MULTI_SOURCE, jobs=1, spans=True)
    assert traced["ok"]
    names = {event.get("name") for event in traced["spans"]}
    assert "compile" in names  # one per compiled function
    assert "server.request" in names
    warm = client.compile(MULTI_SOURCE, jobs=1, spans=True)
    warm_names = {event.get("name") for event in warm["spans"]}
    assert "server.cache_probe" in warm_names
    assert "compile" not in warm_names


def test_resilient_request_ships_diagnostics(tmp_path):
    path = str(tmp_path / "blocker.sock")
    generator = GrahamGlanvilleCodeGenerator(rescue_bridges=False)
    server = CompileServer(path=path, generator=generator, max_requests=1)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with CompileClient(path=path) as client:
        response = client.compile(BLOCKER_SOURCE, jobs=1, resilient=True)
    thread.join(timeout=30)
    assert response["ok"]  # recovered, not failed
    assert response["tiers"] == {"f": "hoist"}
    codes_seen = {d["code"] for d in response["diagnostics"]}
    assert "GG-BLOCK-SYN" in codes_seen
    assert "RECOVER-FORCE" in codes_seen


def test_bad_request_does_not_poison_connection(running_server):
    _, client = running_server
    bad = client.request({"op": "transmogrify"})
    assert not bad["ok"]
    assert "unknown op" in bad["error"]["message"]
    missing = client.request({"op": "compile"})
    assert not missing["ok"]
    # the same connection still serves good requests
    assert client.ping()["ok"]


def test_compile_error_is_structured_not_fatal(running_server):
    _, client = running_server
    response = client.compile("int f(int x) { return x @ 1; }", jobs=1)
    assert not response["ok"]
    assert response["error"]["type"]
    assert client.ping()["ok"]


def test_stats_counts_requests(running_server):
    server, client = running_server
    client.ping()
    client.compile(SMALL_SOURCE, jobs=1)
    stats = client.stats()
    assert stats["ok"]
    assert stats["requests_served"] >= 3
    assert stats["functions_compiled"] >= 1
    # the compile executor is the in-process backend; there is no pool
    assert stats["workers"] == 0 and stats["supervisor"] is None
    assert "pool" not in stats


def test_max_requests_stops_server(tmp_path):
    path = str(tmp_path / "bounded.sock")
    server = CompileServer(path=path, max_requests=2)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with CompileClient(path=path) as client:
        assert client.ping()["ok"]
        assert client.ping()["ok"]
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert server.requests_served == 2


def test_server_address_validation(tmp_path):
    with pytest.raises(ValueError):
        CompileServer()
    with pytest.raises(ValueError):
        CompileServer(path=str(tmp_path / "x.sock"), host="127.0.0.1")
