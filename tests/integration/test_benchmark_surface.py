"""The end-to-end benchmark's call surface, checked by the test suite.

``benchmarks/e2e`` drives the compiler through a handful of public calls:
``compile_program`` with ``jobs``/``parallel``/``result_cache_dir``, the
generator's ``generate``, the front end's ``Parser``/``lower_program``,
the phase-1 functions and the result cache.  A rename of any of them
makes every benchmark run fail without a single median.  This module
runs the benchmark's own replay (``benchmarks/e2e/replay.py``) against
the compiler on a small generated unit, so the same rename fails here
first.
"""

import multiprocessing
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.compile import compile_program, shutdown_worker_pools
from repro.workloads import generate_workload

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

#: The benchmark modules, imported the way its workload process imports
#: them: with the e2e directory on the path, under their bare names.
E2E_MODULES = ("metrics", "inputs", "replay")

SOURCE = generate_workload(functions=4, statements_per_function=5, seed=11)


@pytest.fixture(scope="module")
def e2e():
    saved = {name: sys.modules.pop(name, None) for name in E2E_MODULES}
    sys.path.insert(0, str(E2E))
    try:
        import inputs
        import replay

        yield inputs, replay
    finally:
        sys.path.remove(str(E2E))
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


@pytest.fixture(params=["vax", "r32"])
def gen(request, gg, r32_gg):
    return gg if request.param == "vax" else r32_gg


def test_replay_unit_reproduces_compile_program(e2e, gen):
    _, replay = e2e
    clock = replay.LayerClock()
    replayed = replay.replay_unit(gen, SOURCE, clock)
    assert replayed == compile_program(SOURCE, generator=gen).text
    assert clock.counts["codegen.statements"] > 0
    assert clock.seconds["matcher.matching"] > 0


def test_replay_edit_reproduces_an_incremental_edit(e2e, gen, tmp_path):
    inputs, replay = e2e
    names = list(compile_program(SOURCE, generator=gen).source_program.order)
    edited = inputs.apply_edit(SOURCE, names[1], 7)
    for directory in (tmp_path / "replayed", tmp_path / "compiled"):
        primed = compile_program(
            SOURCE, generator=gen, result_cache_dir=str(directory)
        )
        assert primed.cache_misses == len(names)

    text, hits, misses = replay.replay_edit(
        gen, edited, str(tmp_path / "replayed"), replay.LayerClock()
    )
    replay.reset_result_caches()
    out = compile_program(
        edited, generator=gen, result_cache_dir=str(tmp_path / "compiled")
    )
    assert (hits, misses) == (out.cache_hits, out.cache_misses)
    assert (hits, misses) == (len(names) - 1, 1)
    assert text == out.text
    assert text == compile_program(
        edited, generator=gen, incremental=False
    ).text


def test_process_pool_equals_the_serial_compile(gen):
    serial = compile_program(SOURCE, generator=gen)
    try:
        pooled = compile_program(
            SOURCE, generator=gen, jobs=2, parallel="process"
        )
    finally:
        shutdown_worker_pools()
    assert pooled.ok
    assert pooled.text == serial.text
    assert pooled.data_section() == serial.data_section()
    assert pooled.seconds > 0 and pooled.cpu_seconds > 0


# ``unit-pool`` calls ``shutdown_worker_pools()`` and then
# ``reap_children()`` before every rep, so each rep forks its own
# workers; ``reap_children()`` waits for ``active_children()`` to empty.
def test_shutdown_leaves_no_worker_process_behind(gg):
    compile_program(SOURCE, generator=gg, jobs=2, parallel="process")
    assert multiprocessing.active_children(), "no worker was forked"
    shutdown_worker_pools()
    assert multiprocessing.active_children() == []


# ``setup_s`` times ``import repro.compile``; a serial compile never forks
# and must not pay for the event loop, the worker substrate or the
# compile service.
def test_importing_the_compiler_loads_no_event_loop_or_service():
    probe = (
        "import sys, repro.compile\n"
        "print(sorted(m for m in sys.modules if m in ('asyncio',\n"
        "      'repro.workers') or m.startswith(('asyncio.', 'repro.server'))))\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": src},
    ).stdout
    assert loaded.strip() == "[]"


# ``unit-pool`` compiles with ``jobs=2``: the keep-alive runs the worker
# substrate (``repro.workers``) and must not pay for the service package.
def test_a_pooled_compile_loads_no_service():
    probe = (
        "import sys\n"
        "from repro.compile import compile_program, shutdown_worker_pools\n"
        "compile_program('int a(int x) { return x; }\\n'\n"
        "                'int b(int y) { return y; }\\n', jobs=2)\n"
        "shutdown_worker_pools()\n"
        "print('repro.workers' in sys.modules,\n"
        "      sorted(m for m in sys.modules if m.startswith('repro.server')))\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": src},
    ).stdout
    assert loaded.strip() == "True []"


# The traced pass times ``Parser(source)`` as the lexer layer and
# ``lower_program`` as the lowering layer, and reads forests outside
# every layer; the two checks below pin what those timings rely on.
def test_the_parser_constructor_lexes_the_whole_unit():
    from repro.frontend import Parser, tokenize

    parser = Parser(SOURCE)
    assert isinstance(parser.tokens, list)
    assert len(parser.tokens) == len(tokenize(SOURCE))
    assert parser.tokens == tokenize(SOURCE)


def test_lower_program_returns_every_forest_lowered(monkeypatch, gg):
    from repro.frontend import lower_program, parse
    from repro.frontend.lower import FunctionLowerer

    calls = []
    lower = FunctionLowerer.lower

    def counted(self):
        calls.append(self.func.name)
        return lower(self)

    monkeypatch.setattr(FunctionLowerer, "lower", counted)
    ast = parse(SOURCE)
    program = lower_program(ast, gg.machine)
    during = list(calls)
    assert during == [func.name for func in ast.functions]
    forests = [program.forest(name) for name in program.order]
    assert list(program.forests.values()) == forests
    assert calls == during  # reading the forests lowers nothing more
