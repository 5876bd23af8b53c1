"""``ggcc serve``: the CLI entry point round-trips a batch compile.

This is the acceptance differential at the outermost layer: the real
subcommand (argument parsing, generator construction, bind, accept
loop) serving a batch whose assembly must be byte-identical to
``compile_program(jobs=1)``.
"""

import threading

import pytest

from repro.compile import compile_program
from repro.server import CompileClient
from repro.tools.cli import build_serve_parser, main
from repro.workloads.programs import ALL_PROGRAMS

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}

MULTI_SOURCE = "\n".join(
    _BY_NAME[name].source for name in ("gcd", "fib", "bits", "poly_eval")
)


def test_serve_round_trips_batch_identical_to_serial(tmp_path):
    path = str(tmp_path / "cli.sock")
    exit_codes = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(
            main(["serve", "--socket", path, "--max-requests", "2"])
        ),
        daemon=True,
    )
    thread.start()
    serial = compile_program(MULTI_SOURCE, jobs=1)
    with CompileClient(path=path, connect_timeout=30) as client:
        assert client.ping()["ok"]
        response = client.compile_batch(
            [{"source": MULTI_SOURCE}, {"source": MULTI_SOURCE, "jobs": 1}]
        )
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert exit_codes == [0]
    assert response["ok"]
    for item in response["responses"]:
        assert item["ok"]
        assert item["assembly"] == serial.text


def test_serve_parser_defaults():
    options = build_serve_parser().parse_args([])
    assert options.socket is None
    assert options.workers == 0
    assert options.max_requests is None
    options = build_serve_parser().parse_args(
        ["--tcp", "127.0.0.1:0", "--workers", "3"]
    )
    assert options.tcp == "127.0.0.1:0"
    assert options.workers == 3
    # the server has no private pool to size
    with pytest.raises(SystemExit):
        build_serve_parser().parse_args(["--jobs", "3"])
