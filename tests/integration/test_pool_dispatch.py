"""The shared-table pool's dispatch contract.

The 0.2x process-pool regression came from shipping generator options
with every per-function task and rebuilding tables per worker
submission.  These tests pin the fixed contract: task payloads are
O(source text) and never carry tables, batches are weight-balanced and
order-preserving, a failed pool initializer degrades to a parent-side
recompile with a WORKER-CRASH diagnostic (never a hang or dropped
functions), the keep-alive pool is actually reused, and a dispatch that
raises early retires its pool instead of leaking it.
"""

import pickle
from concurrent.futures import Future

import pytest

import repro.compile as compile_mod
from repro.compile import (
    BATCHES_PER_WORKER, _effective_width, available_cpus, compile_program,
    plan_batches, shutdown_worker_pools,
)
from repro.diag import codes
from repro.frontend import compile_c
from repro.workloads import generate_workload
from repro.workloads.programs import ALL_PROGRAMS

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}

MULTI_SOURCE = "\n".join(
    _BY_NAME[name].source for name in ("gcd", "fib", "bits", "poly_eval")
)


class InlinePool:
    """A fake SharedTablePool that runs tasks inline and records the
    exact pickled payload each submission would ship to a worker."""

    def __init__(self, gen, jobs=2):
        self.options_key = compile_mod._options_key(
            compile_mod._generator_options(gen)
        )
        self.jobs = jobs
        self.broken = False
        self.payloads = []
        self.shutdown_calls = 0

    def submit(self, fn, *args):
        self.payloads.append(pickle.dumps(args))
        future = Future()
        future.set_result(fn(*args))
        return future

    def terminate_workers(self):
        self.broken = True

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls += 1


@pytest.fixture()
def inline_worker(gg, monkeypatch):
    """Make this test process act as its own pool worker: the state the
    real initializer would install, without forking."""
    key = compile_mod._options_key(compile_mod._generator_options(gg))
    monkeypatch.setattr(compile_mod, "_WORKER_GENERATOR", (key, gg))
    monkeypatch.setattr(compile_mod, "_WORKER_PROGRAMS", {})


def test_task_payload_is_small_and_table_free(gg, inline_worker):
    """Satellite: a task payload is O(source text) — independent of the
    table size, because tables travel via the pool initializer."""
    pool = InlinePool(gg)
    serial = compile_program(MULTI_SOURCE, generator=gg, jobs=1)
    out = compile_program(
        MULTI_SOURCE, generator=gg, jobs=2, parallel="process", pool=pool
    )
    assert out.text == serial.text
    assert pool.payloads, "nothing was dispatched through the pool"
    table_bytes = len(pickle.dumps(gg.tables))
    biggest = max(len(p) for p in pool.payloads)
    # every payload: (source, names) plus pickle framing — nowhere near
    # the tables, and bounded by the source text itself
    assert biggest < len(MULTI_SOURCE) + 512
    assert biggest * 20 < table_bytes
    # an external pool is caller-owned: compile_program must not close it
    assert pool.shutdown_calls == 0


def test_external_pool_options_must_match(gg, inline_worker):
    from repro.codegen.driver import GrahamGlanvilleCodeGenerator

    pool = InlinePool(gg)
    other = GrahamGlanvilleCodeGenerator(
        bundle=gg.bundle, tables=gg.tables, peephole=True
    )
    with pytest.raises(ValueError, match="pool"):
        compile_program(
            MULTI_SOURCE, generator=other, jobs=2, parallel="process",
            pool=pool,
        )


# ------------------------------------------------------------- batching
@pytest.fixture(scope="module")
def workload_program():
    return compile_c(generate_workload(
        functions=9, statements_per_function=6, seed=11
    ))


def test_batches_cover_names_in_order(workload_program):
    names = list(workload_program.order)
    batches = plan_batches(workload_program, names, jobs=2)
    flat = [name for batch in batches for name in batch]
    assert flat == names
    assert len(batches) <= 2 * BATCHES_PER_WORKER


def test_batch_count_bounded_by_functions(workload_program):
    names = list(workload_program.order)
    batches = plan_batches(workload_program, names, jobs=64)
    assert len(batches) <= len(names)
    assert all(batch for batch in batches)


def test_single_function_is_one_batch(workload_program):
    names = list(workload_program.order)[:1]
    assert plan_batches(workload_program, names, jobs=4) == [tuple(names)]


def test_front_loaded_heavy_function_does_not_collapse_tail():
    """Satellite regression: under the old fixed-quota cut rule, one
    huge head function satisfied the quota alone and the entire light
    tail landed in a single oversized final batch (2 batches for 4
    slots — half the workers idle).  The dynamic fair share must give
    the head its own batch and still split the tail across the
    remaining slots."""
    big_body = " ".join(f"x = x + {i};" for i in range(120))
    parts = [f"int big(int x, int y) {{ {big_body} return x; }}"] + [
        f"int s{i}(int x, int y) {{ return x + {i}; }}" for i in range(15)
    ]
    program = compile_c("\n".join(parts))
    names = list(program.order)
    batches = plan_batches(program, names, jobs=2)  # 4 slots
    assert [name for batch in batches for name in batch] == names
    assert len(batches) == 2 * BATCHES_PER_WORKER
    assert batches[0] == ("big",)
    tail_sizes = [len(batch) for batch in batches[1:]]
    assert max(tail_sizes) <= 6, batches  # 15 light fns over 3 batches


def test_adversarial_weights_stay_balanced():
    """Across adversarial weight layouts the plan must reach the target
    batch count and keep every batch's *weight* within the fair-share
    envelope: no batch heavier than one indivisible function plus the
    fair share — the collapsed tail the old guard produced blew far
    past that."""
    from repro.ir.tree import LabelDef

    layouts = {
        "heavy_head": [60, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        "heavy_pair": [40, 40, 2, 2, 2, 2, 2, 2],
        "ramp_down": [30, 20, 12, 6, 4, 3, 2, 1, 1, 1],
    }
    for label, sizes in layouts.items():
        parts = []
        for index, statements in enumerate(sizes):
            body = " ".join(f"x = x + {j};" for j in range(statements))
            parts.append(
                f"int f{index}(int x, int y) {{ {body} return x; }}"
            )
        program = compile_c("\n".join(parts))
        names = list(program.order)
        batches = plan_batches(program, names, jobs=2)
        assert [n for b in batches for n in b] == names, label
        assert len(batches) == 2 * BATCHES_PER_WORKER, label

        def weight(name):
            return max(1, sum(
                item.size() for item in program.forest(name).items
                if not isinstance(item, LabelDef)
            ))

        total = sum(weight(n) for n in names)
        fair = total / len(batches)
        heaviest_fn = max(weight(n) for n in names)
        for batch in batches:
            assert sum(weight(n) for n in batch) <= heaviest_fn + fair, (
                label, batch,
            )


def test_effective_width_clamps_to_cpus():
    cpus = available_cpus()
    assert _effective_width(1) == 1
    assert _effective_width(4096) == cpus
    assert _effective_width(0) == 1


# ------------------------------------------------- initializer failure
def test_init_failure_falls_back_to_serial(gg, monkeypatch, fresh_pool):
    """Satellite: a pool whose initializer raises (what a cache miss +
    builder failure in the worker looks like) breaks the pool like a
    dead worker: WORKER-CRASH, and everything recompiles in the parent
    — same text, nothing dropped."""
    monkeypatch.setenv(compile_mod.ENV_CHAOS_INIT_FAIL, "1")
    serial = compile_program(MULTI_SOURCE, generator=gg, jobs=1)
    out = compile_program(
        MULTI_SOURCE, generator=gg, jobs=2, parallel="process"
    )
    assert out.text == serial.text
    assert list(out.function_results) == list(serial.function_results)
    assert out.diagnostics.has(codes.WORKER_CRASH)


def test_init_failure_resilient_recovers_all(gg, monkeypatch, fresh_pool):
    monkeypatch.setenv(compile_mod.ENV_CHAOS_INIT_FAIL, "1")
    serial = compile_program(MULTI_SOURCE, generator=gg, jobs=1)
    out = compile_program(
        MULTI_SOURCE, generator=gg, jobs=2, parallel="process",
        resilient=True,
    )
    assert out.ok
    assert out.text == serial.text
    assert out.diagnostics.has(codes.WORKER_CRASH)
    assert set(out.tiers) == set(serial.function_results)


# ------------------------------------------------------ pool lifecycle
def test_keepalive_pool_reused_across_calls(gg):
    shutdown_worker_pools()
    first = compile_program(
        MULTI_SOURCE, generator=gg, jobs=2, parallel="process"
    )
    pool = compile_mod._KEEPALIVE_POOL
    assert pool is not None
    again = compile_program(
        MULTI_SOURCE, generator=gg, jobs=2, parallel="process"
    )
    assert compile_mod._KEEPALIVE_POOL is pool
    assert again.text == first.text
    shutdown_worker_pools()
    assert compile_mod._KEEPALIVE_POOL is None


def test_resilient_early_raise_cannot_leak_pool(
    gg, monkeypatch, fresh_pool
):
    """Satellite regression: dispatch raising before the first result
    used to leak the ProcessPoolExecutor; a dispatch that raises now
    retires the pool it used on the way out."""
    created = []

    class ExplodingPool(InlinePool):
        def __init__(self, jobs, gen, flags=None, program=None):
            super().__init__(gen, jobs)
            created.append(self)

        def submit(self, fn, *args):
            raise RuntimeError("dispatch exploded before any result")

    monkeypatch.setattr(compile_mod, "SharedTablePool", ExplodingPool)
    with pytest.raises(RuntimeError, match="dispatch exploded"):
        compile_program(
            MULTI_SOURCE, generator=gg, jobs=2, parallel="process",
            resilient=True,
        )
    assert created, "the pool path never built its pool"
    assert created[0].broken
    assert created[0].shutdown_calls >= 1
