"""The benchmark driver's repeat pairing.

``best_of`` used to return the minimum wall time alongside the value of
the *last* repeat — so a row could report the best repeat's wall
seconds next to a different repeat's CPU seconds.  The fixed contract:
both halves of the returned pair come from the same (fastest) repeat.
"""

import importlib.util
import itertools
import os

import pytest

_RUN_ALL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "benchmarks", "run_all.py",
)


@pytest.fixture(scope="module")
def run_all():
    spec = importlib.util.spec_from_file_location("bench_run_all", _RUN_ALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_best_of_returns_value_of_fastest_repeat(run_all, monkeypatch):
    # repeat durations: 10s, 1s, 14s — the middle repeat is fastest
    clock = iter([0.0, 10.0, 10.0, 11.0, 11.0, 25.0])
    monkeypatch.setattr(run_all.time, "perf_counter", lambda: next(clock))
    values = iter(["first", "fastest", "last"])
    best, value = run_all.best_of(3, lambda: next(values))
    assert best == pytest.approx(1.0)
    assert value == "fastest"


def test_best_of_single_repeat(run_all, monkeypatch):
    clock = itertools.count(step=0.5)
    monkeypatch.setattr(
        run_all.time, "perf_counter", lambda: float(next(clock))
    )
    best, value = run_all.best_of(1, lambda: "only")
    assert value == "only"
    assert best == pytest.approx(0.5)


def test_bench_compile_rows_pair_wall_and_cpu(run_all):
    """Each reported row is one assembly's own (wall, cpu) pair — the
    row can never mix fields from two repeats, because it is built
    from a single ``ProgramAssembly``."""
    from repro.workloads import generate_workload

    source = generate_workload(
        functions=3, statements_per_function=4, seed=3
    )
    rows = run_all.bench_compile(source, jobs=2, repeats=2)
    assert set(rows) == {"jobs1", "jobs2_process"}
    for label, row in rows.items():
        assert row["wall_seconds"] >= 0
        assert row["cpu_seconds"] >= 0
        assert row["identical_to_jobs1"], label
    assert "speedup_vs_jobs1" in rows["jobs2_process"]
