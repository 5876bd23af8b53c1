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

import pathlib
import sys

import pytest

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
