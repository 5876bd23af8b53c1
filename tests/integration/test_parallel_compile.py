"""The parallel compile driver: jobs= must never change the output."""

import pytest

from repro.compile import compile_program
from repro.workloads.programs import ALL_PROGRAMS

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}

#: A multi-function unit built from independent workload routines.
MULTI_SOURCE = "\n".join(
    _BY_NAME[name].source for name in ("gcd", "fib", "bits", "poly_eval")
)


@pytest.fixture(scope="module")
def serial(gg):
    return compile_program(MULTI_SOURCE, generator=gg, jobs=1)


def test_multi_function_unit(serial):
    assert len(serial.source_program.order) == 4


def test_process_pool_matches_serial(serial):
    forked = compile_program(MULTI_SOURCE, jobs=2, parallel="process")
    assert forked.text == serial.text
    assert list(forked.function_results) == list(serial.function_results)


def test_jobs_on_single_function_is_serial(gg):
    source = _BY_NAME["gcd"].source
    one = compile_program(source, generator=gg, jobs=1)
    four = compile_program(source, generator=gg, jobs=4)
    assert one.text == four.text


def test_unknown_parallel_mode_rejected(gg):
    """The process pool is the only pool; the removed thread pool's name
    is rejected like any other unknown mode."""
    for mode in ("fiber", "thread"):
        with pytest.raises(ValueError, match="parallel"):
            compile_program(
                MULTI_SOURCE, generator=gg, jobs=2, parallel=mode
            )


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        compile_program(MULTI_SOURCE, backend="llvm")


def test_seconds_exclude_static_phase(gg):
    """The timing-bug fix: table construction happens before the clock,
    so a default-generator compile reports dynamic-phase time comparable
    to one with a prebuilt generator (not hundreds of ms of SLR build)."""
    warm = compile_program(_BY_NAME["gcd"].source, generator=gg)
    fresh = compile_program(_BY_NAME["gcd"].source)
    assert fresh.seconds < max(0.25, warm.seconds * 25)


def test_wall_vs_cpu_seconds_semantics(gg, serial):
    """``seconds`` is the dynamic phase's wall clock; ``cpu_seconds`` is
    the summed per-function compile time measured inside whichever
    worker ran each function.  Serially the sum can never exceed the
    wall; under a pool the two are decoupled but both stay positive and
    the sum matches the per-function times exactly."""
    assert serial.cpu_seconds > 0
    assert serial.wall_seconds == serial.seconds
    assert serial.cpu_seconds <= serial.seconds + 1e-6
    expected = sum(
        r.times.wall for r in serial.function_results.values()
    )
    assert serial.cpu_seconds == pytest.approx(expected)

    pooled = compile_program(MULTI_SOURCE, generator=gg, jobs=2)
    assert pooled.text == serial.text
    assert pooled.seconds > 0
    assert pooled.cpu_seconds > 0
    assert pooled.cpu_seconds == pytest.approx(sum(
        r.times.wall for r in pooled.function_results.values()
    ))


def test_process_pool_reports_worker_measured_cpu(serial):
    """Process workers measure each function's compile time in-worker
    and the parent sums what they shipped back — cpu_seconds must not
    read as zero just because the compiles happened elsewhere."""
    forked = compile_program(MULTI_SOURCE, jobs=2, parallel="process")
    assert forked.cpu_seconds > 0
    assert forked.cpu_seconds == pytest.approx(sum(
        r.times.wall for r in forked.function_results.values()
    ))
