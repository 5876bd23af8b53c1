"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` starts this script; it is not meant to be run by hand::

    python3 workloads.py --prepare
    python3 workloads.py --workload unit-cold --seed 1982 --seconds 20 \\
        --trace 1 --spawned-at <time.time() of the parent> [--setup-only]

The last line of standard output is one JSON object: ``setup_s``, and
unless ``--setup-only``, the end-to-end values (``e2e``), the per-layer
values with ``--trace 1`` (``layers``), the sample count behind each
value, and the attempted and failed operations.

End-to-end values come from the untraced pass.  With ``--trace 1`` the
traced replay runs afterwards, so nothing it does (memory included)
reaches an end-to-end value.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import (
    END_TO_END, PER_LAYER, median, percentile, ratio, windowed_rates,
)

#: Per-run scratch (result cache, socket), relative to the checkout root
#: ``run.py`` starts this process in, which keeps the socket path short.
RUN_DIR = Path(".bench_build") / "e2e" / f"run-{os.getpid()}"

WORKLOADS = ("unit-cold", "unit-pool", "edit-loop", "serve-mixed")
TARGETS = {"unit-cold": "vax", "unit-pool": "r32", "edit-loop": "vax",
           "serve-mixed": "vax"}

#: Least operations per run, whatever ``--seconds`` says: three compiles
#: give a median, five edits leave three to replay.
MIN_COMPILES = 3
MIN_EDITS = 5
#: Replayed edits in the traced pass.
TRACED_EDITS = 3
POOL_JOBS = 2
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
#: Replies per throughput window; the median window is reported, so a
#: burst of noise from outside slows one window, not the result.
SERVE_WINDOW = 100
SERVER_START_LIMIT = 60.0
#: ``trace.unattributed_ratio`` above this fails the traced pass.
MAX_UNATTRIBUTED = 0.05


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def static_instructions(text: str) -> int:
    """Instruction lines of an assembly text, by the rule
    ``AssemblyUnit.instruction_count`` applies to a function body."""
    return sum(
        1 for line in text.splitlines()
        if line.startswith("\t") and not line.lstrip().startswith(("#", "."))
    )


def peak_rss_mb(own: bool = True) -> float:
    """Peak resident memory of this process (``own``) and of its waited
    children and their descendants, in MiB."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    mine = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if own else 0
    return max(kids, mine) / 1024.0


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every multiprocessing child has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.02)


def timed_loop(seconds, minimum, limit, before, operation, keep):
    """Time ``operation(i)`` until the next one would end after *seconds*
    (at least *minimum*, at most *limit* times).

    ``before(i)`` runs untimed first; ``keep`` reduces the operation's
    result to what the run needs, untimed, and the result is dropped
    before the next operation starts so freeing it is never timed.
    """
    times, kept = [], []
    started = time.perf_counter()
    while len(times) < limit and (
        len(times) < minimum
        or time.perf_counter() - started + median(times) <= seconds
    ):
        before(len(times))
        began = time.perf_counter()
        value = operation(len(times))
        times.append(time.perf_counter() - began)
        kept.append(keep(value))
        del value
    return times, kept


class Run:
    """What a workload reports: values, sample counts and checks."""

    def __init__(self, setup_s: float, checks) -> None:
        self.setup_s = setup_s
        self.checks = checks
        self.e2e = {}
        self.layers = dict.fromkeys(PER_LAYER, 0)
        self.samples = {}
        #: Timed operations and their median seconds, for the report.
        self.operations = {"count": 0, "p50_s": 0.0}

    def set_operations(self, times) -> None:
        self.operations = {"count": len(times), "p50_s": median(times)}

    def set_e2e(self, name, value, samples) -> None:
        self.e2e[name] = value
        self.samples[name] = samples

    def set_layer(self, name, value, samples) -> None:
        if name not in PER_LAYER:
            raise KeyError(f"undeclared per-layer metric {name!r}")
        self.layers[name] = value
        self.samples[name] = samples

    def set_trace(self, clock, untraced_seconds: float, check: bool) -> None:
        """Per-layer values of a finished replay; *untraced_seconds* is
        the untraced pass's time for the same work."""
        for layer, seconds in clock.seconds.items():
            self.set_layer(f"{layer}.seconds", seconds, 1)
        for name, count in clock.counts.items():
            self.set_layer(name, count, 1)
        unattributed = clock.unattributed_ratio()
        self.set_layer("trace.unattributed_ratio", unattributed, 1)
        self.set_layer(
            "trace.overhead_ratio", clock.wall / untraced_seconds - 1.0, 1
        )
        if check:
            self.checks.expect(
                unattributed <= MAX_UNATTRIBUTED,
                f"traced pass leaves {unattributed:.1%} of its wall time "
                f"outside the named layers",
            )

    def result(self, trace: bool) -> dict:
        from repro.compile import available_cpus

        # ``run.py`` adds ``setup_s``: the median over several processes.
        missing = set(END_TO_END) - {"setup_s"} - set(self.e2e)
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
        return {
            "setup_s": self.setup_s,
            "e2e": self.e2e,
            "layers": self.layers if trace else None,
            "samples": self.samples,
            "operations": self.operations,
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "cpus": available_cpus(),
        }


# ------------------------------------------------------------- batch
def batch_setup(args):
    """Imports and a generator from the warm table cache: what a
    one-shot ``ggcc`` pays before it compiles."""
    from repro.codegen.driver import GrahamGlanvilleCodeGenerator
    import repro.compile  # noqa: F401 - part of the set-up being timed

    began = time.perf_counter()
    gen = GrahamGlanvilleCodeGenerator(target=TARGETS[args.workload])
    load_s = time.perf_counter() - began
    return gen, load_s, time.time() - args.spawned_at


def compile_summary(pair) -> dict:
    out, text = pair
    return {
        "digest": digest(text), "text": text, "ok": out.ok,
        "dynamic": out.seconds, "cpu": out.cpu_seconds,
        "hits": out.cache_hits, "misses": out.cache_misses,
    }


def record_batch(run, source_tokens, times, kept, text, jobs) -> None:
    """The values every batch workload reports the same way."""
    run.set_operations(times)
    run.set_e2e("ktok_per_s", source_tokens / median(times) / 1e3,
                len(times))
    run.set_e2e(
        "asm_per_ktok", static_instructions(text) / (source_tokens / 1e3), 1
    )
    dynamic = median([k["dynamic"] for k in kept])
    cpu = median([k["cpu"] for k in kept])
    run.set_layer("compile.dynamic.seconds", dynamic, len(kept))
    run.set_layer("compile.cpu.seconds", cpu, len(kept))
    run.set_layer("compile.efficiency", ratio(cpu, jobs * dynamic), len(kept))


def record_tables(run, gen, load_s) -> None:
    from repro.codegen.driver import GrahamGlanvilleCodeGenerator

    began = time.perf_counter()
    GrahamGlanvilleCodeGenerator(target=gen.target.name, cache=False)
    run.set_layer("tables.build.seconds", time.perf_counter() - began, 1)
    run.set_layer("tables.load.seconds", load_s, 1)


def unit_workload(args, gen, load_s, setup_s) -> Run:
    """unit-cold (serial, VAX) and unit-pool (two-process pool, R32)."""
    from repro.compile import (
        compile_program, reset_result_caches, shutdown_worker_pools,
    )
    from repro.frontend import tokenize

    import inputs
    from oracle_sample import Checks, check_sample
    from replay import LayerClock, replay_unit

    pooled = args.workload == "unit-pool"
    jobs = POOL_JOBS if pooled else 1
    options = dict(jobs=jobs, parallel="process") if pooled else {}
    run = Run(setup_s, Checks())
    source = inputs.unit_source(args.seed)
    tokens = len(tokenize(source))

    def before(_):
        if pooled:
            # Retire the previous rep's pool, so each rep forks its own
            # the way a one-shot ``ggcc --jobs 2`` does.
            shutdown_worker_pools()
            reap_children()
        reset_result_caches()
        gc.collect()

    def operation(_):
        out = compile_program(source, generator=gen, **options)
        return out, out.text

    times, kept = timed_loop(
        args.seconds, MIN_COMPILES, 1 << 30, before, operation,
        compile_summary,
    )
    text = kept[0]["text"]
    for k in kept:
        run.checks.expect(k["ok"], "compile reported failed functions")
        run.checks.expect(k["digest"] == kept[0]["digest"],
                          "repeated compile changed the assembly")
    record_batch(run, tokens, times, kept, text, jobs)

    serial_seconds = median(times)
    if pooled:
        before(0)
        began = time.perf_counter()
        serial = compile_program(source, generator=gen).text
        serial_seconds = time.perf_counter() - began
        run.checks.expect(serial == text,
                          "pool assembly differs from the serial compile")
        del serial

    counts = check_sample(
        inputs.oracle_sources(args.seed), gen.target,
        lambda unit: compile_program(unit, generator=gen, **options).text,
        run.checks,
    )
    shutdown_worker_pools()
    reap_children()
    run.set_e2e("peak_rss_mb", peak_rss_mb(), 1)
    for name, value in counts.items():
        run.set_layer(name, value, 1)

    if args.trace:
        record_tables(run, gen, load_s)
        before(0)
        clock = LayerClock()
        replayed = replay_unit(gen, source, clock)
        run.checks.expect(replayed == text,
                          "traced replay differs from the untraced pass")
        run.set_trace(clock, serial_seconds, check=True)
    return run


def edit_workload(args, gen, load_s, setup_s) -> Run:
    """edit-loop: cumulative one-function edits over a persistent
    result cache, each compiled as a fresh one-shot process would."""
    from repro.compile import compile_program, reset_result_caches
    from repro.frontend import tokenize

    import inputs
    from oracle_sample import Checks, check_sample
    from replay import LayerClock, replay_edit

    run = Run(setup_s, Checks())
    source = inputs.unit_source(args.seed)
    tokens = len(tokenize(source))
    cache_dir = RUN_DIR / "results"
    primed = compile_program(source, generator=gen,
                             result_cache_dir=str(cache_dir))
    functions = list(primed.source_program.order)
    run.checks.expect(primed.cache_misses == len(functions),
                      "priming compile found entries in an empty cache")
    del primed
    if args.trace:
        shutil.copytree(cache_dir, RUN_DIR / "primed")
    order = inputs.edit_order(args.seed, functions)
    edited = [source]

    def before(i):
        edited.append(inputs.apply_edit(edited[-1], order[i], i + 1))
        reset_result_caches()
        gc.collect()

    def operation(i):
        out = compile_program(edited[i + 1], generator=gen,
                              result_cache_dir=str(cache_dir))
        return out, out.text

    times, kept = timed_loop(
        args.seconds, MIN_EDITS, len(order), before, operation,
        compile_summary,
    )
    for k in kept:
        run.checks.expect(
            k["ok"] and k["hits"] == len(functions) - 1 and k["misses"] == 1,
            f"edit compiled with {k['hits']} hits and {k['misses']} "
            f"misses, not {len(functions) - 1} and 1",
        )
    text = kept[-1]["text"]
    reset_result_caches()
    serial = compile_program(edited[-1], generator=gen, incremental=False)
    run.checks.expect(serial.text == text,
                      "last edit differs from a serial compile")
    del serial
    record_batch(run, tokens, times, kept, text, 1)
    hits = sum(k["hits"] for k in kept)
    run.set_layer("result_cache.hit_ratio",
                  ratio(hits, hits + sum(k["misses"] for k in kept)),
                  len(kept))

    def through_cache(unit: str) -> str:
        first = compile_program(unit, generator=gen,
                                result_cache_dir=str(cache_dir))
        reset_result_caches()
        again = compile_program(unit, generator=gen,
                                result_cache_dir=str(cache_dir))
        run.checks.expect(
            again.text == first.text and again.cache_misses == 0,
            "a unit served from the result cache differs from its compile",
        )
        return again.text

    counts = check_sample(inputs.oracle_sources(args.seed), gen.target,
                          through_cache, run.checks)
    run.set_e2e("peak_rss_mb", peak_rss_mb(), 1)
    for name, value in counts.items():
        run.set_layer(name, value, 1)

    if args.trace:
        record_tables(run, gen, load_s)
        clock = LayerClock()
        for i in range(TRACED_EDITS):
            gc.collect()
            replayed, _, misses = replay_edit(
                gen, edited[i + 1], str(RUN_DIR / "primed"), clock
            )
            run.checks.expect(
                digest(replayed) == kept[i]["digest"] and misses == 1,
                f"traced replay of edit {i + 1} differs from the "
                f"untraced pass",
            )
        run.set_trace(clock, sum(times[:TRACED_EDITS]), check=True)
    return run


# ------------------------------------------------------------- serve
def start_server(socket_path: str):
    """``ggcc serve`` in a subprocess; returns ``(process, client,
    seconds from process start until it answered stats)``."""
    from repro.server.client import CompileClient

    began = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", "serve",
         "--socket", socket_path, "--workers", str(SERVE_WORKERS)],
        stdout=subprocess.DEVNULL,
    )
    try:
        # Dial every 5 ms: the client's own jittered backoff would add up
        # to half a second of noise to the set-up time.
        while True:
            try:
                client = CompileClient(path=socket_path, connect_timeout=0)
                break
            except OSError:
                if process.poll() is not None or (
                    time.perf_counter() - began > SERVER_START_LIMIT
                ):
                    raise
                time.sleep(0.005)
        client.stats()
    except BaseException:
        process.kill()
        process.wait()
        raise
    return process, client, time.perf_counter() - began


def stop_server(process, client) -> None:
    try:
        client.shutdown()
    finally:
        client.close()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def closed_loop(socket_path, requests, clients):
    """*clients* connections, each sending its next request when the
    previous reply arrives.  Returns one ``(latency, finished, response)``
    record per request, ``finished`` in seconds since the load began, or
    ``None`` for a request never answered."""
    from repro.server.client import CompileClient

    records = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    load_began = time.perf_counter()

    def client_loop():
        with CompileClient(path=socket_path) as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                source = requests[index][1]
                began = time.perf_counter()
                response = client.compile(source, id=str(index))
                finished = time.perf_counter()
                records[index] = (
                    finished - began, finished - load_began, response,
                )

    errors = []

    def guarded():
        try:
            client_loop()
        except Exception as exc:  # noqa: BLE001 - a dropped connection
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        print(f"e2e: client connection failed: {exc!r}", file=sys.stderr)
    return records


def serve_workload(args) -> Run:
    """serve-mixed: a supervised ``ggcc serve`` under a closed loop of
    fresh and hot units."""
    socket_path = str(RUN_DIR / "serve.sock")
    process, client, setup_s = start_server(socket_path)
    try:
        if args.setup_only:
            return Run(setup_s, None)
        return serve_load(args, socket_path, client, setup_s, process)
    finally:
        if process.poll() is None:
            stop_server(process, client)


def serve_load(args, socket_path, client, setup_s, process) -> Run:
    from repro.codegen.driver import GrahamGlanvilleCodeGenerator
    from repro.compile import compile_program, reset_result_caches
    from repro.frontend import tokenize

    import inputs
    from oracle_sample import Checks, check_sample
    from replay import LayerClock, replay_cached_unit

    run = Run(setup_s, Checks())
    checks = run.checks
    began = time.perf_counter()
    gen = GrahamGlanvilleCodeGenerator(target="vax")
    load_s = time.perf_counter() - began
    plan = inputs.serve_plan(args.seed)
    tokens = {source: len(tokenize(source)) for _, source in plan.requests}

    def serial(source: str) -> str:
        return compile_program(source, generator=gen).text

    hot_text = {}
    for source in plan.hot:
        response = client.compile(source)
        hot_text[source] = response.get("assembly")
        checks.expect(response.get("ok") and hot_text[source] == serial(source),
                      "served hot unit differs from a serial compile")

    records = closed_loop(socket_path, plan.requests, SERVE_CLIENTS)
    stats = client.stats()
    latencies = {"hot": [], "fresh": []}
    finished, sizes = [], []
    dynamic, cpu, fresh_text = [], [], {}
    for index, ((kind, source), record) in enumerate(zip(plan.requests,
                                                         records)):
        if not checks.expect(record is not None,
                             f"request {index} was never answered"):
            continue
        seconds, at, response = record
        ok = response.get("ok") and response.get("id") == str(index)
        if not checks.expect(ok, f"request {index} failed: "
                                 f"{response.get('error')}"):
            continue
        latencies[kind].append(seconds)
        finished.append(at)
        sizes.append(tokens[source])
        dynamic.append(response["seconds"])
        cpu.append(response["cpu_seconds"])
        if kind == "hot":
            checks.expect(response["assembly"] == hot_text[source],
                          "a repeated hot unit returned different text")
        else:
            fresh_text[index] = response["assembly"]
    for index in plan.fresh_checks:
        source = plan.requests[index][1]
        checks.expect(fresh_text.get(index) == serial(source),
                      f"served fresh unit {index} differs from a serial "
                      f"compile")

    def served_twice(unit: str) -> str:
        first, again = client.compile(unit), client.compile(unit)
        checks.expect(first.get("ok") and again.get("ok")
                      and first.get("assembly") == again.get("assembly"),
                      "repeating a unit to the server changed its text")
        return again.get("assembly") or ""

    counts = check_sample(inputs.oracle_sources(args.seed), gen.target,
                          served_twice, checks)
    stop_server(process, client)

    everything = latencies["hot"] + latencies["fresh"]
    produced = list(hot_text.values()) + list(fresh_text.values())
    distinct_tokens = (sum(tokens[source] for source in plan.hot)
                       + sum(tokens[plan.requests[i][1]] for i in fresh_text))
    run.set_operations(everything)
    rates = windowed_rates(finished, sizes, SERVE_WINDOW)
    run.set_e2e("ktok_per_s", median(rates) / 1e3, len(rates))
    run.set_e2e("peak_rss_mb", peak_rss_mb(own=False), 1)
    run.set_e2e(
        "asm_per_ktok",
        sum(static_instructions(text) for text in produced)
        / (distinct_tokens / 1e3),
        len(produced),
    )
    for name, value in counts.items():
        run.set_layer(name, value, 1)
    if not args.trace:
        return run

    cache = stats["result_cache"]
    supervisor = stats["supervisor"]
    tail = percentile(everything, 0.99)
    run.set_layer("server.hit.p50_ms", median(latencies["hot"]) * 1e3,
                  len(latencies["hot"]))
    run.set_layer("server.miss.p50_ms", median(latencies["fresh"]) * 1e3,
                  len(latencies["fresh"]))
    run.set_layer("server.latency_p99_ms", (tail or 0.0) * 1e3,
                  len(everything))
    run.set_layer("server.result_cache.hits", cache["hits"], 1)
    run.set_layer("server.result_cache.misses", cache["misses"], 1)
    run.set_layer("server.supervisor.restarts", supervisor["restarts"], 1)
    run.set_layer("server.supervisor.retries", supervisor["retries"], 1)
    run.set_layer("result_cache.hit_ratio",
                  ratio(cache["hits"], cache["hits"] + cache["misses"]), 1)
    run.set_layer("compile.dynamic.seconds", median(dynamic), len(dynamic))
    run.set_layer("compile.cpu.seconds", median(cpu), len(cpu))
    run.set_layer("compile.efficiency", ratio(sum(cpu), sum(dynamic)),
                  len(dynamic))
    record_tables(run, gen, load_s)

    # The server's layers run in other processes; the traced pass
    # replays the checked fresh units, each a miss in an empty cache as
    # it was in the server, and times the same work untraced first.
    from repro.compile import incremental_result_cache

    units = [plan.requests[index][1] for index in plan.fresh_checks]
    untraced = 0.0
    for unit in units:
        reset_result_caches()
        began = time.perf_counter()
        compile_program(unit, generator=gen, incremental=True)
        untraced += time.perf_counter() - began
    clock = LayerClock()
    for index, unit in zip(plan.fresh_checks, units):
        reset_result_caches()
        replayed, _, _ = replay_cached_unit(
            gen, unit, incremental_result_cache(gen), clock
        )
        checks.expect(replayed == fresh_text.get(index),
                      "traced replay differs from the served text")
    run.set_trace(clock, untraced, check=False)
    return run


# -------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1982)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.prepare:
        from repro.codegen.driver import GrahamGlanvilleCodeGenerator

        targets = sorted(set(TARGETS.values()))
        for target in targets:
            GrahamGlanvilleCodeGenerator(target=target)
        print(json.dumps({"prepared": targets}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    RUN_DIR.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            run = serve_workload(args)
        else:
            gen, load_s, setup_s = batch_setup(args)
            if args.setup_only:
                run = Run(setup_s, None)
            elif args.workload == "edit-loop":
                run = edit_workload(args, gen, load_s, setup_s)
            else:
                run = unit_workload(args, gen, load_s, setup_s)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    if args.setup_only:
        print(json.dumps({"setup_s": run.setup_s}))
    else:
        print(json.dumps(run.result(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
