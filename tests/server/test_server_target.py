"""One server, one target — cross-target requests are refused loudly.

A compile daemon holds one constructed table set, so it can only ever
emit for the target those tables describe.  A client that wants a
different target must get a structured error naming both sides — a
silent wrong-machine compile through a shared daemon would be the
service-path version of the cache-aliasing bug.  The check runs before
the result-cache probe on both backends, so neither a supervised worker
nor a warm cache can answer for the wrong machine.
"""

import threading

import pytest

from repro.server import CompileClient, CompileServer

SOURCE = "int f(int a) { return a * 2 + 1; }"


@pytest.fixture
def vax_server(tmp_path, gg):
    path = str(tmp_path / "target.sock")
    server = CompileServer(path=path, generator=gg)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield path
    with CompileClient(path=path) as admin:
        admin.shutdown()
    thread.join(timeout=30)


def test_matching_target_compiles(vax_server):
    with CompileClient(path=vax_server) as client:
        response = client.compile(SOURCE, target="vax")
    assert response["ok"]
    assert response["assembly"]


def test_unspecified_target_keeps_working(vax_server):
    with CompileClient(path=vax_server) as client:
        response = client.compile(SOURCE)
    assert response["ok"]


def test_mismatched_target_is_refused_with_both_names(vax_server):
    with CompileClient(path=vax_server) as client:
        response = client.compile(SOURCE, target="r32")
    assert not response["ok"]
    assert response["error"]["type"] == "wrong-target"
    message = response["error"]["message"]
    assert "vax" in message and "r32" in message


def test_stats_announce_the_served_target(vax_server):
    with CompileClient(path=vax_server) as client:
        stats = client.stats()
    assert stats["target"] == "vax"


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("workers", [0, 1], ids=["in-process", "supervised"])
def test_every_backend_refuses_a_wrong_target(tmp_path, gg, workers, warm):
    path = str(tmp_path / "backend.sock")
    server = CompileServer(path=path, generator=gg, workers=workers)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with CompileClient(path=path, connect_timeout=30) as client:
            if warm:  # every function of SOURCE is a cache hit now
                assert client.compile(SOURCE)["ok"]
            refused = client.compile(SOURCE, target="r32")
            served = client.compile(SOURCE, target="vax")
            client.shutdown()
    finally:
        thread.join(timeout=30)
    assert not refused["ok"]
    assert refused["error"]["type"] == "wrong-target"
    assert "assembly" not in refused
    assert served["ok"] and served["assembly"]
