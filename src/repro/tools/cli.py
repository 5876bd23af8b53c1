"""``ggcc`` — the command-line compiler driver.

Compile C-subset source to VAX assembly with either back end, print the
appendix-style matcher trace, dump grammar/table statistics, or execute
the program on the simulated VAX::

    ggcc file.c                      # GG backend, assembly to stdout
    ggcc --backend pcc file.c
    ggcc --trace file.c              # shift/reduce trace per statement
    ggcc --stats                     # section-8 statistics
    ggcc --run main --args 3,4 file.c

The differential fuzzer is a subcommand with its own options::

    ggcc fuzz --seed 0 --budget 30 --jobs 4

So is the chaos harness, one registry of fault scenarios for the batch
driver (corrupt tables, truncated cache entries, de-bridged grammars,
killed and hung batch workers) and for a live compile server (killed
and hung supervised workers, a corrupt or read-only result cache,
malformed frames, trickling clients, a sustained kill storm), judged by
one invariant: zero silent miscompiles, zero unanswered requests, every
failure structured::

    ggcc chaos --seed 0 --cases 2
    ggcc chaos --scenario serve-worker-kill --scenario kill-storm

Every function compiles through the recovery ladder.  By default a
function that needed a rescue (or failed) is an error: exit status 1 and
one structured line naming the diagnostic.  ``--resilient`` accepts
rescued functions instead and reports the structured diagnostics (JSON
with ``--diag-json``); only failed functions then make the exit status
non-zero::

    ggcc --resilient --diag-json file.c

Observability: ``--trace-json FILE`` records every pipeline stage as a
hierarchical span and writes Chrome ``trace_event`` JSON (load it in
Perfetto or ``chrome://tracing``); the ``profile`` subcommand compiles a
program under full metrics and prints the per-function phase report —
phase times are measured exclusively (each clock runs only while its
phase runs), so they are non-negative and sum to at most the wall time
by construction, and the report's exit status asserts exactly that::

    ggcc --trace-json trace.json file.c
    ggcc profile examples/quickstart
    ggcc profile --json --jobs 4 file.c

The compile server keeps constructed tables warm in one long-lived
process and serves concurrent clients over a local socket — bounded
admission queue with ``SERVER-OVERLOAD`` backpressure, per-request
deadlines, and a content-addressed result cache for repeat traffic.
The end-to-end benchmark's ``serve-mixed`` workload measures it
(``python3 benchmarks/e2e/run.py --workload serve-mixed``).

With ``--workers N`` the server becomes self-healing: compiles run on
N supervised warm subprocesses with crash/hang detection, restart with
backoff, bounded re-dispatch, a circuit breaker, and SIGTERM/SIGINT
graceful drain (the chaos ``kill-storm`` scenario measures throughput
under sustained worker kills)::

    ggcc serve --socket /tmp/ggcc.sock --queue-limit 256
    ggcc serve --socket /tmp/ggcc.sock --workers 4 --job-timeout 30
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..codegen.driver import GrahamGlanvilleCodeGenerator
from ..compile import compile_program
from ..diag import CompileError
from ..matcher.engine import ENGINES
from ..matcher.trace import Tracer, format_trace
from ..tables.slr import construct_tables
from ..targets import UnknownTargetError, available_targets, resolve_target
from .ggdump import dump_blocking, dump_conflicts, dump_grammar
from .stats import gather_statistics


def _add_target_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--target`` flag.

    ``choices`` comes straight from the registry, so an unknown name is
    a hard argparse error listing the registered targets; an unknown
    ``$REPRO_TARGET`` value raises
    :class:`~repro.targets.registry.UnknownTargetError` at resolution.
    """
    parser.add_argument(
        "--target", choices=available_targets(), default=None,
        help="machine target to compile for (default honours "
             "$REPRO_TARGET, then vax)",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggcc",
        description="Graham-Glanville table-driven code generator for a "
                    "VAX subset (PLDI 1982 reproduction)",
    )
    parser.add_argument("source", nargs="?", help="C-subset source file "
                        "('-' for stdin)")
    parser.add_argument("--backend", choices=("gg", "pcc"), default="gg")
    _add_target_argument(parser)
    parser.add_argument("--trace", action="store_true",
                        help="print the pattern matcher's action trace")
    parser.add_argument("--stats", action="store_true",
                        help="print grammar/table statistics and exit")
    parser.add_argument("--dump-grammar", action="store_true",
                        help="print the replicated machine description")
    parser.add_argument("--dump-conflicts", action="store_true")
    parser.add_argument("--dump-blocking", action="store_true")
    parser.add_argument("--no-reversed-ops", action="store_true",
                        help="build the grammar without Rxxx operators")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="matcher drive loop (default honours "
                             "$REPRO_MATCHER, then packed)")
    parser.add_argument("--peephole", action="store_true",
                        help="run the section-6.1 peephole optimizer over "
                             "the generated assembly")
    parser.add_argument("--run", metavar="FUNC",
                        help="execute FUNC on the target's simulator")
    parser.add_argument("--args", default="",
                        help="comma-separated integer arguments for --run")
    parser.add_argument("-o", "--output", help="write assembly to a file")
    parser.add_argument("--resilient", action="store_true",
                        help="accept functions the recovery ladder "
                             "rescued (hoisted operands, PCC degrade) "
                             "instead of exiting 1 on the first one; every "
                             "compile runs the ladder either way")
    parser.add_argument("--diag-json", action="store_true",
                        help="print collected diagnostics as JSON on stdout "
                             "(assembly then only goes to --output)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="compile functions concurrently on N "
                             "supervised worker processes (GG backend)")
    parser.add_argument("--incremental", dest="incremental",
                        action="store_true", default=None,
                        help="probe the content-addressed result cache per "
                             "function and only compile what changed "
                             "(GG backend; default honours "
                             "$REPRO_INCREMENTAL)")
    parser.add_argument("--no-incremental", dest="incremental",
                        action="store_false",
                        help="force incremental compilation off")
    parser.add_argument("--result-cache-dir", metavar="DIR", default=None,
                        help="persist incremental per-function results "
                             "under DIR (implies --incremental)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-function seconds before a batch's "
                             "worker is declared hung, killed and the batch "
                             "re-dispatched (with --jobs)")
    parser.add_argument("--no-rescue-bridges", action="store_true",
                        help="build the grammar without the section-6.2.2 "
                             "rescue bridge productions (blocks at runtime; "
                             "pair with --resilient)")
    parser.add_argument("--trace-json", metavar="FILE", default=None,
                        help="record every pipeline stage as spans and "
                             "write Chrome trace_event JSON to FILE "
                             "(open in Perfetto)")
    return parser


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggcc fuzz",
        description="differential fuzzing: random programs through "
                    "interpreter, GG backend and PCC baseline; findings "
                    "are minimized and recorded in fuzz/corpus/",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; every case derives from it")
    _add_target_argument(parser)
    parser.add_argument("--budget", type=float, default=30.0,
                        help="wall-clock seconds to spend (default 30)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1, in-process)")
    parser.add_argument("--max-programs", type=int, default=None,
                        help="stop after N programs even within budget")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report raw findings without delta debugging")
    parser.add_argument("--no-record", action="store_true",
                        help="do not write findings to the corpus")
    parser.add_argument("--corpus", default=None,
                        help="corpus directory (default fuzz/corpus/)")
    parser.add_argument("--inject", choices=(), default=None,
                        help="plant a known bug first (self-test)")
    return parser


def fuzz_main(argv: List[str]) -> int:
    from ..fuzz import (Corpus, FuzzConfig, injected_bug, run_campaign)
    from ..fuzz.inject import BUGS

    parser = build_fuzz_parser()
    # choices for --inject come from the bug registry; patch them in so
    # the registry stays the single source of truth
    for action in parser._actions:
        if action.dest == "inject":
            action.choices = sorted(BUGS)
    options = parser.parse_args(argv)

    try:
        target = resolve_target(options.target).name
    except UnknownTargetError as exc:
        print(f"ggcc fuzz: error: {exc}", file=sys.stderr)
        return 2
    config = FuzzConfig(
        seed=options.seed,
        budget=options.budget,
        jobs=options.jobs,
        target=target,
        max_programs=options.max_programs,
        minimize=not options.no_minimize,
    )

    def campaign():
        return run_campaign(config, progress=print)

    if options.inject:
        with injected_bug(options.inject):
            stats = campaign()
    else:
        stats = campaign()

    for line in stats.summary_lines():
        print(line)

    if stats.findings and not options.no_record:
        corpus = Corpus(options.corpus)
        for finding in stats.findings:
            name = corpus.record(
                finding.minimized, finding.divergence,
                target=target,
                detail=finding.detail, seed=finding.seed,
                case=finding.case, statements=finding.statements,
            )
            print(f"fuzz: recorded {name} ({finding.divergence})")
        path = corpus.write_regression_test()
        print(f"fuzz: regenerated {path}")

    return 1 if stats.findings else 0


def build_chaos_parser() -> argparse.ArgumentParser:
    from ..fuzz.chaos import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="ggcc chaos",
        description="fault injection against the batch driver (corrupt "
                    "packed tables, truncated cache entries, removed "
                    "bridge productions, killed and hung batch workers) "
                    "and a live compile server (killed and hung "
                    "supervised workers, corrupt or read-only result "
                    "cache, malformed frames, trickling clients, a kill "
                    "storm) — then assert every output agrees with the "
                    "IR interpreter, every request is answered and every "
                    "failure is structured",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic campaign seed")
    parser.add_argument("--cases", type=int, default=2,
                        help="cases per scenario (default 2; case 0 is "
                             "the known minimal blocker)")
    parser.add_argument("--scenario", action="append", default=None,
                        choices=list(SCENARIOS), dest="scenarios",
                        help="run only this scenario (repeatable)")
    return parser


def chaos_main(argv: List[str]) -> int:
    from ..fuzz.chaos import run_chaos

    options = build_chaos_parser().parse_args(argv)
    report = run_chaos(
        seed=options.seed,
        cases_per_scenario=options.cases,
        scenarios=options.scenarios,
        progress=print,
    )
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggcc serve",
        description="long-lived compile daemon: construct the tables "
                    "once, keep them warm, and answer batch compile "
                    "requests over a local socket with per-request "
                    "diagnostics, metrics and span export",
    )
    parser.add_argument("--socket", metavar="PATH", default=None,
                        help="unix socket path to listen on "
                             "(default ./ggcc.sock)")
    parser.add_argument("--tcp", metavar="HOST:PORT", default=None,
                        help="listen on TCP loopback instead of a unix "
                             "socket (port 0 picks a free port)")
    parser.add_argument("--workers", type=int, default=0,
                        help="supervised compile subprocesses (0 = the "
                             "single in-process executor); crashed or "
                             "hung workers restart and their requests "
                             "re-dispatch")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="seconds before a supervised worker is "
                             "declared hung (default 60)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="re-dispatch budget per request after a "
                             "worker failure (default 1)")
    parser.add_argument("--drain-grace", type=float, default=None,
                        help="seconds shutdown waits for in-flight work "
                             "before answering SERVER-SHUTDOWN "
                             "(default 5)")
    parser.add_argument("--no-breaker", action="store_true",
                        help="disable the circuit breaker that sheds "
                             "load while the backend is failing")
    parser.add_argument("--max-requests", type=int, default=None,
                        help="exit after N requests (smoke tests)")
    parser.add_argument("--queue-limit", type=int, default=None,
                        help="admission-queue capacity; a full queue "
                             "rejects immediately with SERVER-OVERLOAD "
                             "backpressure (default 128)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="default per-request deadline in seconds "
                             "(requests may override per frame)")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="disable the per-function result cache")
    parser.add_argument("--result-cache-dir", metavar="DIR", default=None,
                        help="persist result-cache entries (checksummed "
                             "envelopes) under DIR")
    parser.add_argument("--no-reversed-ops", action="store_true")
    parser.add_argument("--peephole", action="store_true")
    parser.add_argument("--no-rescue-bridges", action="store_true")
    _add_target_argument(parser)
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="matcher drive loop for the server's "
                             "generator and its supervised workers")
    return parser


def serve_main(argv: List[str]) -> int:
    from ..server import CompileServer

    from ..server.server import DEFAULT_QUEUE_LIMIT
    from ..workers import DEFAULT_JOB_TIMEOUT, DEFAULT_MAX_RETRIES

    options = build_serve_parser().parse_args(argv)
    try:
        generator = GrahamGlanvilleCodeGenerator(
            target=options.target,
            reversed_ops=not options.no_reversed_ops,
            peephole=options.peephole,
            rescue_bridges=not options.no_rescue_bridges,
            engine=options.engine,
        )
    except UnknownTargetError as exc:
        print(f"ggcc serve: error: {exc}", file=sys.stderr)
        return 2
    shared = dict(
        generator=generator,
        max_requests=options.max_requests,
        queue_limit=options.queue_limit or DEFAULT_QUEUE_LIMIT,
        default_deadline=options.deadline,
        result_cache=False if options.no_result_cache else None,
        result_cache_dir=options.result_cache_dir,
        workers=options.workers,
        job_timeout=(DEFAULT_JOB_TIMEOUT if options.job_timeout is None
                     else options.job_timeout),
        max_retries=(DEFAULT_MAX_RETRIES if options.max_retries is None
                     else options.max_retries),
        breaker=False if options.no_breaker else None,
        drain_grace=(5.0 if options.drain_grace is None
                     else options.drain_grace),
    )
    if options.tcp is not None:
        host, _, port = options.tcp.partition(":")
        server = CompileServer(
            host=host or "127.0.0.1", port=int(port or 0), **shared,
        )
    else:
        server = CompileServer(
            path=options.socket or "ggcc.sock", **shared,
        )
    server.bind()
    print(f"ggcc serve: listening on {server.address} "
          f"(target={generator.target.name}, "
          f"workers={options.workers}, tables {generator.table_source})",
          file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    print(f"ggcc serve: served {server.requests_served} request(s), "
          f"{server.functions_compiled} function(s), "
          f"{server.errors} error(s)", file=sys.stderr)
    return 0


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggcc profile",
        description="compile one program under full metrics and report "
                    "per-function phase times (transform/matching/"
                    "semantics/output, measured exclusively — never "
                    "clamped), static-phase and cache costs, and the "
                    "wall-vs-CPU split; exits non-zero if any timing "
                    "invariant is violated",
    )
    parser.add_argument("source",
                        help="a .c file, '-' for stdin, or an example "
                             "module exposing SOURCE (e.g. "
                             "examples/quickstart)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of the "
                             "human table")
    parser.add_argument("--backend", choices=("gg", "pcc"), default="gg")
    _add_target_argument(parser)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--resilient", action="store_true")
    parser.add_argument("--trace-json", metavar="FILE", default=None,
                        help="also write the run's Chrome trace_event "
                             "JSON to FILE")
    parser.add_argument("--no-reversed-ops", action="store_true")
    parser.add_argument("--peephole", action="store_true")
    return parser


def profile_main(argv: List[str]) -> int:
    from ..obs import install_recorder, uninstall_recorder
    from ..obs.profile import profile_program, resolve_profile_source

    options = build_profile_parser().parse_args(argv)
    try:
        source, label = resolve_profile_source(options.source)
    except (OSError, ValueError) as exc:
        print(f"ggcc profile: error: {exc}", file=sys.stderr)
        return 2

    recorder = install_recorder() if options.trace_json else None
    try:
        report, _ = profile_program(
            source, label=label, backend=options.backend,
            jobs=options.jobs, resilient=options.resilient,
            target=options.target,
            reversed_ops=not options.no_reversed_ops,
            peephole=options.peephole,
        )
    finally:
        if recorder is not None:
            uninstall_recorder()
    if recorder is not None:
        recorder.write_chrome_trace(options.trace_json)

    if options.json:
        print(report.to_json())
    else:
        print(report.format_human())
        if options.trace_json:
            print(f"trace written to {options.trace_json} "
                  f"({len(recorder)} spans) — load it in Perfetto")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        return fuzz_main(list(argv[1:]))
    if argv and argv[0] == "chaos":
        return chaos_main(list(argv[1:]))
    if argv and argv[0] == "profile":
        return profile_main(list(argv[1:]))
    if argv and argv[0] == "serve":
        return serve_main(list(argv[1:]))
    parser = build_arg_parser()
    options = parser.parse_args(argv)

    if options.stats or options.dump_grammar or options.dump_conflicts \
            or options.dump_blocking:
        try:
            target = resolve_target(options.target)
        except UnknownTargetError as exc:
            print(f"ggcc: error: {exc}", file=sys.stderr)
            return 2
        bundle = target.build_grammar(
            reversed_ops=not options.no_reversed_ops
        )
        tables = construct_tables(bundle.grammar)
        if options.stats:
            print(gather_statistics(bundle, tables).format())
        if options.dump_grammar:
            print(dump_grammar(bundle.grammar))
        if options.dump_conflicts:
            print(dump_conflicts(tables))
        if options.dump_blocking:
            print(dump_blocking(tables))
        if not options.source:
            return 0

    if not options.source:
        parser.error("no source file given")

    if options.source == "-":
        source = sys.stdin.read()
    else:
        with open(options.source) as handle:
            source = handle.read()

    if not options.trace_json:
        return _compile_main(options, source)

    # Install the span recorder before the generator is built so the
    # static phase (table construction, cache load) lands in the trace.
    from ..obs import install_recorder, uninstall_recorder

    recorder = install_recorder()
    try:
        return _compile_main(options, source)
    finally:
        uninstall_recorder()
        recorder.write_chrome_trace(options.trace_json)
        print(f"ggcc: trace written to {options.trace_json} "
              f"({len(recorder)} spans)", file=sys.stderr)


def _compile_main(options: argparse.Namespace, source: str) -> int:
    generator = None
    if options.backend == "gg":
        try:
            generator = GrahamGlanvilleCodeGenerator(
                target=options.target,
                reversed_ops=not options.no_reversed_ops,
                peephole=options.peephole,
                rescue_bridges=not options.no_rescue_bridges,
                engine=options.engine,
            )
        except UnknownTargetError as exc:
            print(f"ggcc: error: {exc}", file=sys.stderr)
            return 2

    if options.trace and options.backend == "gg":
        from ..frontend import compile_c

        program = compile_c(source, generator.machine)
        for name in program.order:
            tracer = Tracer()
            generator.compile(program.forest(name), trace=tracer)
            print(f"=== {name} ===")
            print(format_trace(tracer))
        return 0

    try:
        assembly = compile_program(
            source, options.backend, generator,
            jobs=options.jobs, resilient=options.resilient,
            timeout=options.timeout,
            incremental=options.incremental,
            result_cache_dir=options.result_cache_dir,
            target=options.target,
        )
    except Exception as exc:
        # without --resilient a rescue is an error (CompileError names
        # its diagnostic); report it as one structured line and a
        # non-zero exit, not a traceback
        kind = (
            exc.diagnostic.code if isinstance(exc, CompileError)
            else type(exc).__name__
        )
        print(f"ggcc: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"diagnostics: 1 recorded, 1 error(s): {kind}x1",
              file=sys.stderr)
        return 1

    if options.diag_json:
        print(assembly.diagnostics.to_json(indent=2))
    elif len(assembly.diagnostics):
        print(assembly.diagnostics.format_human(), file=sys.stderr)
    if len(assembly.diagnostics) or assembly.failed:
        print(assembly.diagnostics.summary_line(), file=sys.stderr)
    if assembly.failed:
        print(
            f"ggcc: error: {len(assembly.failed)} function(s) failed: "
            + ", ".join(assembly.failed),
            file=sys.stderr,
        )

    if options.run:
        if assembly.failed:
            return 1
        vax = assembly.simulator()
        args = [int(a) for a in options.args.split(",") if a.strip()]
        result = vax.call(options.run, args)
        print(f"{options.run}({', '.join(map(str, args))}) = {result}")
        return 0

    text = assembly.text
    if options.output:
        with open(options.output, "w") as handle:
            handle.write(text)
    elif not options.diag_json:
        print(text)
    return 1 if assembly.failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
