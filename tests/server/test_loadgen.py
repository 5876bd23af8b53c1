"""The load generator behind the chaos kill storm, against a live server.

Scaled far below the storm's settings: the point here is that the
generator counts honestly (every client answered under its own id,
nothing dropped or refused on a healthy run, the duration respected),
not that the numbers are big.
"""

import threading

from repro.server import CompileClient, CompileServer
from repro.server.loadgen import run_load
from repro.workloads import generate_workload

CLIENTS = 6
SECONDS = 0.3


def test_run_load_against_live_server(tmp_path):
    path = str(tmp_path / "load.sock")
    server = CompileServer(path=path)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        sources = [
            generate_workload(
                functions=2, statements_per_function=3, seed=1982 + index,
            )
            for index in range(CLIENTS * 2)
        ]
        report = run_load(
            sources, seconds=SECONDS, path=path, clients=CLIENTS,
        )
    finally:
        with CompileClient(path=path) as admin:
            admin.shutdown()
        thread.join(timeout=30)

    assert report.requests >= CLIENTS  # every client sent at least one
    assert report.errors == 0
    assert report.overloads == 0
    assert report.id_mismatches == 0
    assert report.dropped_connections == 0
    assert report.seconds >= SECONDS
    assert report.ok_per_sec > 0
