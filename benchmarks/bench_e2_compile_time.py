"""E2 — section 8 compile time: GG 80.1 s vs PCC 55.4 s (GG ~1.45x
slower).  Times both code generators over the same corpus; the *ratio* is
the reproduction target (absolute seconds are Python's, not a 1982 VAX's).
"""

import time

from conftest import write_report

from repro.pcc import pcc_compile


def _compile_all_gg(gg, program):
    return [gg.compile(program.forest(f)) for f in program.order]


def _compile_all_pcc(program):
    return [pcc_compile(program.forest(f)) for f in program.order]


def test_compile_time_ratio(gg, corpus_program):
    # warm up (tables already built by the fixture)
    _compile_all_gg(gg, corpus_program)
    _compile_all_pcc(corpus_program)

    started = time.perf_counter()
    for _ in range(3):
        _compile_all_gg(gg, corpus_program)
    gg_seconds = (time.perf_counter() - started) / 3

    started = time.perf_counter()
    for _ in range(3):
        _compile_all_pcc(corpus_program)
    pcc_seconds = (time.perf_counter() - started) / 3

    ratio = gg_seconds / pcc_seconds
    lines = [
        "second-pass compile time over the corpus:",
        f"  table-driven (GG): {gg_seconds:8.3f} s   (paper: 80.1 s)",
        f"  ad hoc (PCC):      {pcc_seconds:8.3f} s   (paper: 55.4 s)",
        f"  ratio GG/PCC:      {ratio:8.2f}x   (paper: 1.45x)",
    ]
    write_report("E2", "\n".join(lines))
    assert 0.8 < ratio < 12, "ratio out of the paper's order of magnitude"


def test_parallel_jobs(gg, corpus_source):
    """compile_program with jobs= over the 20-function corpus.  The
    speedup depends on the runner's cores, so the interesting output is
    the ``E2_jobs`` report (and identical assembly), not a speedup
    assertion; the e2e ``unit-pool`` workload measures the pool."""
    from repro.compile import compile_program, shutdown_worker_pools

    serial = compile_program(corpus_source, generator=gg, jobs=1)
    pooled = compile_program(corpus_source, generator=gg, jobs=4)
    shutdown_worker_pools()
    assert pooled.text == serial.text

    write_report("E2_jobs", "\n".join([
        "compile_program jobs= over the corpus:",
        f"  functions:        {len(serial.source_program.order)}",
        f"  jobs=1:           {serial.seconds:8.3f} s",
        f"  jobs=4 (process): {pooled.seconds:8.3f} s",
        "  (assembly byte-identical across modes)",
    ]))


def test_gg_throughput(benchmark, gg, corpus_program):
    benchmark(_compile_all_gg, gg, corpus_program)


def test_pcc_throughput(benchmark, corpus_program):
    benchmark(_compile_all_pcc, corpus_program)
