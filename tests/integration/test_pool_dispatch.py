"""The batch driver's dispatch contract, on the real worker layer.

``compile_program(jobs=N)`` submits function batches to a keep-alive
:class:`~repro.workers.WorkerSupervisor`.  The 0.2x
process-pool regression came from shipping generator options with every
per-function task and rebuilding tables per worker submission.  These
tests pin the fixed contract: job payloads are ``(source, names)``,
O(source text), and never carry tables; batches are weight-balanced and
order-preserving; a failed worker initializer degrades to a parent-side
recompile with a WORKER-CRASH diagnostic (never a hang or dropped
functions); the keep-alive is actually reused, and rebuilt when the
generator options change; and a dispatch that raises stops the
keep-alive instead of leaking its workers.
"""

import multiprocessing
import pickle

import pytest

import repro.compile as compile_mod
from repro.compile import (
    BATCHES_PER_WORKER, _effective_width, available_cpus, compile_program,
    plan_batches, shutdown_worker_pools,
)
from repro.diag import codes
from repro.frontend import compile_c
from repro.workers import FaultPlan, WorkerSupervisor, inject
from repro.workloads import generate_workload
from repro.workloads.programs import ALL_PROGRAMS

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}

MULTI_SOURCE = "\n".join(
    _BY_NAME[name].source for name in ("gcd", "fib", "bits", "poly_eval")
)


def test_task_payload_is_small_and_table_free(gg, dispatched_jobs):
    """A job payload is ``(source, names)``: O(source text), independent
    of the table size, because tables travel via the worker
    initializer."""
    serial = compile_program(MULTI_SOURCE, generator=gg, jobs=1)
    out = compile_program(
        MULTI_SOURCE, generator=gg, jobs=2, parallel="process"
    )
    assert out.text == serial.text
    assert dispatched_jobs, "nothing was dispatched to the workers"
    names = [name for _, batch in dispatched_jobs for name in batch]
    assert names == list(serial.source_program.order)
    for request, batch in dispatched_jobs:
        assert request == {"source": MULTI_SOURCE, "spans": False}
    table_bytes = len(pickle.dumps(gg.tables))
    biggest = max(len(pickle.dumps(job)) for job in dispatched_jobs)
    # every payload: (source, names) plus pickle framing — nowhere near
    # the tables, and bounded by the source text itself
    assert biggest < len(MULTI_SOURCE) + 512
    assert biggest * 20 < table_bytes


def test_keepalive_rebuilt_for_other_generator_options(gg, fresh_pool):
    """Workers hold one generator's tables and options: a compile with
    other options stops the keep-alive and builds a new one, so no batch
    ever compiles with the wrong generator."""
    from repro.codegen.driver import GrahamGlanvilleCodeGenerator

    other = GrahamGlanvilleCodeGenerator(
        bundle=gg.bundle, tables=gg.tables, peephole=True
    )
    compile_program(MULTI_SOURCE, generator=gg, jobs=2)
    first = compile_mod._KEEPALIVE
    out = compile_program(MULTI_SOURCE, generator=other, jobs=2)
    assert compile_mod._KEEPALIVE is not first
    assert out.text == compile_program(MULTI_SOURCE, generator=other).text
    assert first.loop.is_closed()


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
def test_init_failure_falls_back_to_serial(gg, fresh_pool):
    """A worker whose initializer raises (what a cache miss + builder
    failure in the worker looks like) dies like a crashed worker: every
    attempt fails with WORKER-CRASH, and everything recompiles in the
    parent — same text, nothing dropped."""
    serial = compile_program(MULTI_SOURCE, generator=gg, jobs=1)
    with inject(FaultPlan("fail-init")):
        out = compile_program(
            MULTI_SOURCE, generator=gg, jobs=2, parallel="process"
        )
    assert out.text == serial.text
    assert list(out.function_results) == list(serial.function_results)
    assert out.diagnostics.has(codes.WORKER_CRASH)


def test_init_failure_resilient_recovers_all(gg, fresh_pool):
    serial = compile_program(MULTI_SOURCE, generator=gg, jobs=1)
    with inject(FaultPlan("fail-init")):
        out = compile_program(
            MULTI_SOURCE, generator=gg, jobs=2, parallel="process",
            resilient=True,
        )
    assert out.ok
    assert out.text == serial.text
    assert out.diagnostics.has(codes.WORKER_CRASH)
    assert set(out.tiers) == set(serial.function_results)


# ------------------------------------------------------------ retries
def test_a_worker_death_is_retried_on_a_restarted_worker(
    gg, monkeypatch, fresh_pool, dispatched_jobs
):
    """A worker that dies once mid-batch costs that batch a re-dispatch
    to a restarted worker: the parent recompiles nothing, each function
    of the batch carries a WORKER-CRASH warning, and the text equals
    the serial compile."""
    serial = compile_program(MULTI_SOURCE, generator=gg)
    plan = FaultPlan("kill", limit=1)
    in_parent = []
    body = compile_mod.compile_functions

    def counted(generator, program, names, flatten=False):
        in_parent.extend(names)
        return body(generator, program, names, flatten)

    monkeypatch.setattr(compile_mod, "compile_functions", counted)
    with inject(plan):
        out = compile_program(MULTI_SOURCE, generator=gg, jobs=2)
    assert plan.fired == 1, "the one-shot kill was not injected once"
    assert in_parent == []
    assert out.text == serial.text
    crashes = [
        d for d in out.diagnostics.records() if d.code == codes.WORKER_CRASH
    ]
    assert crashes
    assert {d.severity for d in crashes} == {codes.WARNING}
    assert [d.context["attempt"] for d in crashes] == [1] * len(crashes)
    batches = [batch for _, batch in dispatched_jobs]
    assert [d.function for d in crashes] in batches
    supervisor = compile_mod._KEEPALIVE.supervisor
    assert (supervisor.retries, supervisor.crashes) == (1, 1)


# --------------------------------------------------------- observability
def test_batch_workers_report_as_workers_not_service(gg, fresh_pool):
    """The keep-alive's supervisor counts and traces its workers under
    the substrate's names: a batch compile records no ``server.``
    metric or span."""
    from repro.obs import install_recorder, uninstall_recorder
    from repro.obs.metrics import REGISTRY, set_metrics_enabled

    enabled = REGISTRY.enabled
    set_metrics_enabled(True)
    recorder = install_recorder()
    try:
        REGISTRY.drain()
        compile_program(MULTI_SOURCE, generator=gg, jobs=2)
        metrics = REGISTRY.drain()
    finally:
        uninstall_recorder()
        set_metrics_enabled(enabled)
    names = set(metrics.counters) | set(metrics.histograms)
    spans = {record.name for record in recorder.records()}
    assert "worker.spawns" in names and "worker.spawn" in spans
    assert not [n for n in names | spans if n.startswith("server.")]


# ------------------------------------------------- keep-alive lifecycle
def test_keepalive_pool_reused_across_calls(gg):
    shutdown_worker_pools()
    first = compile_program(
        MULTI_SOURCE, generator=gg, jobs=2, parallel="process"
    )
    workers = compile_mod._KEEPALIVE
    assert workers is not None
    pids = {w["pid"] for w in workers.supervisor.snapshot()["workers"]}
    again = compile_program(
        MULTI_SOURCE, generator=gg, jobs=2, parallel="process"
    )
    assert compile_mod._KEEPALIVE is workers
    assert {w["pid"] for w in workers.supervisor.snapshot()["workers"]} \
        == pids
    assert again.text == first.text
    shutdown_worker_pools()
    assert compile_mod._KEEPALIVE is None


def _explode_dispatch(monkeypatch, exc):
    async def explode(self, request, only, timeout=None):
        raise exc("dispatch exploded before any result")

    monkeypatch.setattr(WorkerSupervisor, "submit", explode)


def test_resilient_early_raise_cannot_leak_pool(
    gg, monkeypatch, fresh_pool
):
    """A dispatch that raises before the first result stops the
    keep-alive it used on the way out: no worker outlives the call."""
    _explode_dispatch(monkeypatch, RuntimeError)
    with pytest.raises(RuntimeError, match="dispatch exploded"):
        compile_program(
            MULTI_SOURCE, generator=gg, jobs=2, parallel="process",
            resilient=True,
        )
    assert compile_mod._KEEPALIVE is None
    assert multiprocessing.active_children() == []


def test_an_interrupted_dispatch_cannot_leak_workers(
    gg, monkeypatch, fresh_pool
):
    """^C mid-dispatch propagates, and stops the keep-alive first."""
    _explode_dispatch(monkeypatch, KeyboardInterrupt)
    with pytest.raises(KeyboardInterrupt):
        compile_program(MULTI_SOURCE, generator=gg, jobs=2)
    assert compile_mod._KEEPALIVE is None
    assert multiprocessing.active_children() == []
