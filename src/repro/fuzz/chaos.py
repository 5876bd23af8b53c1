"""Chaos harness: faults injected into the compile machinery, judged once.

:mod:`repro.fuzz.inject` plants miscompilation bugs to prove the oracle
can catch them; this module instead breaks the pipeline's *machinery* —
the table cache, the bridge productions, the worker substrate, the
service's result cache, frames and clients — under both owners of the
worker substrate, the batch driver and the compile service, and holds
every case to one invariant (:func:`judge`):

    every output agrees with the IR interpreter, every admitted request
    gets an answer, and every failure is structured — an error
    diagnostic names each failed function, or the reply carries a typed
    error.

A worker fault must also be seen to fire: unless the supervisor's crash
or hang count rises, the case proved nothing and fails.  Worker faults
enter through the substrate's one seam, a :class:`~repro.workers.FaultPlan`
armed with :func:`~repro.workers.inject`, which reaches a keep-alive or
a service already running.

Scenarios (:data:`SCENARIOS`; ``ggcc chaos --scenario NAME``)::

    owner    scenario             fault
    batch    table-corrupt        packed action-row words flipped inside a
                                  stored table-cache entry, digest kept
    batch    cache-corrupt        table-cache entry truncated or byte-flipped
    batch    de-bridge            grammar without the §6.2.2 rescue bridges
    batch    worker-kill          the worker compiling one function killed
                                  on every attempt
    batch    worker-hang          that worker hangs past its batch's
                                  deadline on every attempt
    service  serve-worker-kill    each request's first attempt killed
    service  serve-worker-hang    each request's first attempt hangs past
                                  the job timeout
    service  serve-cache-corrupt  persistent result-cache entries truncated
                                  or bit-flipped between two servers
    service  malformed-frames     truncated, flipped, length-lying and
                                  garbage frames, then one good request
    service  slow-client          a frame trickled beside a fast client
    service  cache-readonly       the result-cache directory refuses writes
    service  kill-storm           at most one worker kill per 150 ms under
                                  1.5 s of closed-loop load: the rate of
                                  ok replies must keep half its
                                  undisturbed value

Verdicts: ``clean``, ``recovered`` (a diagnostic, or a tier other than
the engine's), ``failed-clean`` (a structured failure), ``skip`` (the
interpreter itself could not run the case), and the run-failing
:data:`BAD_VERDICTS`.
"""

from __future__ import annotations

import hashlib
import os
import random
import socket
import stat
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import compile as compile_mod
from ..codegen.driver import GrahamGlanvilleCodeGenerator
from ..compile import ProgramAssembly, compile_program
from ..diag.codes import ERROR
from ..frontend.lower import compile_c
from ..matcher.engine import resolve_engine
from ..server import CompileServer
from ..server.client import CompileClient
from ..server.loadgen import LoadReport, run_load
from ..server.protocol import encode_frame, recv_frame
from ..sim.assembler import assemble
from ..tables.cache import rewrite_payload
from ..targets.registry import resolve_target
from ..workers import FaultPlan, inject
from .oracle import (
    Observation, _observe_interp, default_calls, observe_machine,
)

#: The smallest known program that blocks a de-bridged grammar: the
#: "Plus con Mul" commitment expects a scale token and meets Indir.
TINY_BLOCKER = "int g; int f(int x, int y) { g = 2 + x*y; return g; }\n"

#: The blocker and a sibling: the batch driver dispatches to its workers
#: only when more than one function is pending, so a batch worker fault
#: needs two functions to reach a worker at all.
BLOCKER_PAIR = TINY_BLOCKER + "int h(int z) { return z + g; }\n"

#: Verdicts that fail a run: output nobody flagged as wrong, a request
#: left without an answer, an unstructured failure, a worker fault that
#: never fired, a kill storm that more than halved throughput.
BAD_VERDICTS = (
    "silent-miscompile", "unanswered", "uncontained", "unfired", "degraded",
)

#: Simulator step budget per case (chaos programs are small).
MAX_STEPS = 5_000_000

#: The kill storm: closed-loop clients, seconds of load per phase (long
#: enough for several kills), at most one worker kill per interval, and
#: the share of the undisturbed ok-reply rate it must keep.
STORM_CLIENTS = 8
STORM_SECONDS = 1.5
STORM_INTERVAL = 0.15
STORM_MIN_RATIO = 0.5


@dataclass
class ChaosCase:
    """One scenario applied to one program, request or load run."""

    scenario: str
    case: int
    verdict: str
    tiers: Dict[str, str] = field(default_factory=dict)
    codes: Dict[str, int] = field(default_factory=dict)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict not in BAD_VERDICTS


@dataclass
class ChaosReport:
    """A whole chaos run's verdicts."""

    seed: int
    cases: List[ChaosCase] = field(default_factory=list)

    def _with(self, verdict: str) -> List[ChaosCase]:
        return [c for c in self.cases if c.verdict == verdict]

    @property
    def silent_miscompiles(self) -> List[ChaosCase]:
        return self._with("silent-miscompile")

    @property
    def unanswered(self) -> List[ChaosCase]:
        return self._with("unanswered")

    @property
    def uncontained(self) -> List[ChaosCase]:
        return self._with("uncontained")

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def summary_lines(self) -> List[str]:
        by_verdict = Counter(case.verdict for case in self.cases)
        lines = [
            f"chaos: seed {self.seed}, {len(self.cases)} case(s)",
            "chaos: " + ", ".join(
                f"{verdict}={count}"
                for verdict, count in sorted(by_verdict.items())
            ),
        ]
        for case in self.cases:
            if not case.ok:
                lines.append(
                    f"chaos: FAIL {case.scenario}#{case.case}: "
                    f"{case.verdict} ({case.detail})"
                )
        lines.append(
            "chaos: zero silent miscompilations, zero unanswered requests"
            if self.ok else "chaos: INVARIANT VIOLATED"
        )
        return lines


# ----------------------------------------------------------------- judge
def judge(
    scenario: str, case: int, source: str, output: Any, fired: bool = True
) -> ChaosCase:
    """The one judge, for either owner's output of *source*: a batch
    compile's :class:`ProgramAssembly`, a service reply, or ``None`` for
    a request that got no answer.  *fired* is False for a worker-fault
    case whose fault the supervisor never saw, which fails the case."""
    result = ChaosCase(scenario=scenario, case=case, verdict="clean")
    result.verdict, result.detail = _invariant(result, source, output)
    if result.ok and not fired:
        result.verdict = "unfired"
        result.detail = "the injected worker fault never fired"
    return result


def _invariant(
    result: ChaosCase, source: str, output: Any
) -> Tuple[str, str]:
    """The verdict and detail for one output; records its tiers and
    diagnostic codes on *result*."""
    if output is None:
        return "unanswered", "no reply before the connection closed"
    if isinstance(output, ProgramAssembly):
        diagnostics = [d.to_dict() for d in output.diagnostics]
        tiers, failed, text = output.tiers, output.failed, output.text
        target, refused = output.target, False
    else:
        diagnostics = output.get("diagnostics", [])
        tiers, failed = output.get("tiers", {}), output.get("failed", [])
        text, target = output.get("assembly", ""), None
        refused = not output.get("ok") and not failed
    result.tiers = dict(tiers)
    result.codes = dict(Counter(d.get("code", "?") for d in diagnostics))
    if refused:
        error = output.get("error")
        if isinstance(error, dict) and error.get("type"):
            return "failed-clean", str(error["type"])
        return "uncontained", f"unstructured failure: {output!r:.200}"
    named = {
        d.get("function") for d in diagnostics
        if d.get("severity") == ERROR
    }
    if failed:
        if named.issuperset(failed):
            return "failed-clean", f"failed: {','.join(failed)}"
        return "uncontained", "a failed function has no error diagnostic"

    program = compile_c(source)
    calls = default_calls(program)
    reference = _observe_interp(program, calls, MAX_STEPS)
    if reference.error is not None:
        return "skip", f"interp: {reference.error}"
    observed = _observe(program, text, target, calls)
    if observed.error is not None:
        # output offered as good that cannot run: structured only when
        # an error diagnostic came with it
        verdict = "failed-clean" if named else "silent-miscompile"
        return verdict, observed.error
    if (observed.returns, observed.finals) \
            != (reference.returns, reference.finals):
        return "silent-miscompile", (
            f"interp={reference.returns}/{reference.finals} "
            f"got={observed.returns}/{observed.finals}"
        )
    healthy = (resolve_engine(), "cache")
    if diagnostics or any(tier not in healthy for tier in tiers.values()):
        return "recovered", ""
    return "clean", ""


def _observe(program, text: str, target: Any, calls) -> Observation:
    """Run assembly *text* on *target*'s simulator against *calls*."""
    try:
        machine = resolve_target(target).make_simulator(
            assemble(text), max_steps=MAX_STEPS
        )
    except Exception as exc:
        return Observation(error=f"assemble {type(exc).__name__}: {exc}")
    return observe_machine(program, machine, calls)


def judge_storm(
    scenario: str,
    undisturbed: LoadReport,
    disturbed: LoadReport,
    kills: int,
) -> ChaosCase:
    """The kill storm's gate: every request answered under its own id,
    at least one worker killed, and the rate of ok replies under the
    storm at least :data:`STORM_MIN_RATIO` of the undisturbed rate."""
    ratio = (
        disturbed.ok_per_sec / undisturbed.ok_per_sec
        if undisturbed.ok_per_sec else 0.0
    )
    phases = (undisturbed, disturbed)
    dropped = sum(phase.dropped_connections for phase in phases)
    mismatched = sum(phase.id_mismatches for phase in phases)
    result = ChaosCase(
        scenario=scenario, case=0, verdict="recovered",
        detail=f"throughput ratio {ratio:.3f}, {kills} worker kill(s)",
    )
    if dropped or mismatched:
        result.verdict = "unanswered"
        result.detail += (
            f", {dropped} dropped connection(s), "
            f"{mismatched} reply id mismatch(es)"
        )
    elif not kills:
        result.verdict = "unfired"
    elif ratio < STORM_MIN_RATIO:
        result.verdict = "degraded"
    return result


# --------------------------------------------------------------- sources
def _case_source(seed: int, case: int) -> str:
    """A deterministic small workload for one chaos case."""
    from ..workloads.generator import WorkloadSpec, generate_workload

    rng = random.Random((seed << 16) ^ case)
    return generate_workload(WorkloadSpec(
        functions=rng.randint(2, 3),
        statements_per_function=rng.randint(3, 6),
        max_expression_depth=3,
        arrays=1,
        array_length=8,
        globals_count=2,
        loops=True,
        calls=True,
        floats=False,
        seed=rng.randrange(1 << 30),
    ))


def _sources(seed: int, cases: int, first: str = TINY_BLOCKER) -> List[str]:
    """*first* for case 0 — by default the known minimal blocker, so the
    de-bridge scenario always really blocks — then seeded workloads."""
    return [
        first if case == 0 else _case_source(seed, case)
        for case in range(cases)
    ]


# ----------------------------------------------------------- batch owner
def _batch(compile_case: Callable[[str, random.Random], ProgramAssembly]):
    """A batch-owner scenario: each case's source compiled by
    ``compile_case(source, rng)``, and the assembly judged."""

    def run(name: str, seed: int, cases: int, rng: random.Random):
        return [
            judge(name, case, source, compile_case(source, rng))
            for case, source in enumerate(_sources(seed, cases))
        ]

    return run


def _run_table_corrupt(source: str, rng: random.Random) -> ProgramAssembly:
    def rot(payload: Any) -> Any:
        """Flip argument words of the packed action rows in a stored
        ``(bundle, tables)`` payload."""
        rows = [row for row in payload[1].packed().action_rows if row]
        for _ in range(rng.randint(1, 12)):
            row = rows[rng.randrange(len(rows))]
            index = rng.randrange(len(row))
            symbol, tag, argument = row[index]
            row[index] = (symbol, tag, argument ^ rng.randrange(1, 1 << 12))
        return payload

    return _from_damaged_cache(source, lambda path: rewrite_payload(path, rot))


def _run_cache_corrupt(source: str, rng: random.Random) -> ProgramAssembly:
    def damage(path: str) -> None:
        if rng.random() < 0.5:
            with open(path, "r+b") as handle:
                handle.truncate(rng.randrange(1, 64))
        else:
            data = bytearray(open(path, "rb").read())
            data[rng.randrange(len(data) // 2, len(data))] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(data))

    return _from_damaged_cache(source, damage)


def _from_damaged_cache(
    source: str, damage: Callable[[str], None]
) -> ProgramAssembly:
    """Compile *source* with a generator loading from a fresh table
    cache whose every entry was passed through *damage*."""
    with tempfile.TemporaryDirectory() as directory:
        GrahamGlanvilleCodeGenerator(cache=True, cache_dir=directory)
        for entry in os.listdir(directory):
            if entry.endswith(".pickle"):
                damage(os.path.join(directory, entry))
        gen = GrahamGlanvilleCodeGenerator(cache=True, cache_dir=directory)
        return compile_program(source, generator=gen, resilient=True)


def _run_de_bridge(source: str, rng: random.Random) -> ProgramAssembly:
    gen = GrahamGlanvilleCodeGenerator(rescue_bridges=False, cache=False)
    return compile_program(source, generator=gen, resilient=True)


def _batch_worker_fault(action: str, timeout: Optional[float] = None):
    """Batch ``worker-kill`` / ``worker-hang``: the worker handed one
    function, picked per case, is killed or hangs on every attempt, so
    the supervisor restarts it, re-dispatches once and gives up; the
    parent recompiles that batch alone (``WORKER-*`` errors) and the
    keep-alive's crash or hang count must rise."""

    def run(name: str, seed: int, cases: int, rng: random.Random):
        results = []
        for case, source in enumerate(_sources(seed, cases, BLOCKER_PAIR)):
            order = compile_c(source).order
            victim = order[rng.randrange(len(order))]
            supervisor, seen = _keepalive_failures()
            with inject(FaultPlan(action, functions=(victim,))):
                output = compile_program(
                    source, resilient=True, jobs=2, timeout=timeout
                )
            now_supervisor, now_seen = _keepalive_failures()
            fired = now_seen > (seen if now_supervisor is supervisor else 0)
            results.append(judge(name, case, source, output, fired))
        return results

    return run


def _keepalive_failures() -> Tuple[Any, int]:
    """The batch keep-alive's supervisor and its crash-plus-hang count."""
    keepalive = compile_mod._KEEPALIVE
    if keepalive is None:
        return None, 0
    supervisor = keepalive.supervisor
    return supervisor, supervisor.crashes + supervisor.hangs


# --------------------------------------------------------- service owner
class _LiveServer:
    """A compile server on a private unix socket, served by a background
    thread."""

    def __init__(self, directory: str, **options: Any) -> None:
        self.socket_path = os.path.join(directory, "chaos.sock")
        self.server = CompileServer(path=self.socket_path, **options)
        self.server.bind()
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )

    def __enter__(self) -> "_LiveServer":
        self.thread.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self.thread.is_alive():
            self.request({"op": "shutdown"})
        self.thread.join(timeout=30)

    def request(self, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One request on its own connection; ``None`` means the service
        never answered it."""
        try:
            with CompileClient(path=self.socket_path) as client:
                return client.request(payload)
        except Exception:
            return None

    def compile(self, source: str) -> Optional[Dict[str, Any]]:
        return self.request({"op": "compile", "source": source})

    def failures(self) -> int:
        """The supervisor's crash-plus-hang count so far."""
        stats = self.request({"op": "stats"}) or {}
        supervisor = stats.get("supervisor") or {}
        return supervisor.get("crashes", 0) + supervisor.get("hangs", 0)


def _serve_worker_fault(action: str, **options: Any):
    """Service ``serve-worker-kill`` / ``serve-worker-hang``: the first
    attempt of every request's job is killed or hangs past the job
    timeout; the retry must answer correctly (``WORKER-*`` warnings) and
    the supervisor must see each fault."""

    def run(name: str, seed: int, cases: int, rng: random.Random):
        results = []
        with tempfile.TemporaryDirectory() as directory, _LiveServer(
            directory, workers=2, result_cache=False, max_retries=2,
            **options,
        ) as live, inject(FaultPlan(action, attempt=1)):
            for case, source in enumerate(_sources(seed, cases)):
                seen = live.failures()
                reply = live.compile(source)
                results.append(judge(
                    name, case, source, reply, live.failures() > seen
                ))
        return results

    return run


def _run_serve_cache_corrupt(
    name: str, seed: int, cases: int, rng: random.Random
) -> List[ChaosCase]:
    """Corrupt every persistent result-cache entry between two servers;
    the checksummed envelope must quarantine and recompile."""
    sources = _sources(seed, cases)
    with tempfile.TemporaryDirectory() as directory:
        cache_dir = os.path.join(directory, "cache")
        with _LiveServer(
            directory, workers=2, result_cache_dir=cache_dir
        ) as live:
            for source in sources:  # populate the persistent tier
                live.compile(source)
        _corrupt_tree(cache_dir, rng)
        # A fresh server on the same directory has a cold memory tier,
        # so every request must consult the corrupt envelope.
        with _LiveServer(
            directory, workers=2, result_cache_dir=cache_dir
        ) as live:
            return [
                judge(name, case, source, live.compile(source))
                for case, source in enumerate(sources)
            ]


def _corrupt_tree(root: str, rng: random.Random) -> None:
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                data = bytearray(open(path, "rb").read())
            except OSError:
                continue
            if not data:
                continue
            if rng.random() < 0.5:
                data = data[:rng.randrange(1, max(2, len(data)))]
            else:
                data[rng.randrange(len(data))] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(data))


def _run_malformed_frames(
    name: str, seed: int, cases: int, rng: random.Random
) -> List[ChaosCase]:
    """Feed the server truncated and mutated frames raw; each bad peer
    gets a protocol error or a clean close, and a well-formed request
    afterwards must still be answered correctly."""
    results: List[ChaosCase] = []
    good = encode_frame({"op": "compile", "source": TINY_BLOCKER})
    mutations = ("truncate", "flip", "length", "garbage")
    with tempfile.TemporaryDirectory() as directory, _LiveServer(
        directory, workers=0
    ) as live:
        for case in range(max(1, cases) * 4):
            data = bytearray(good)
            choice = case % 4
            if choice == 0:      # truncate mid-frame
                data = data[:rng.randrange(1, len(data))]
            elif choice == 1:    # flip a byte in the JSON body
                data[rng.randrange(4, len(data))] ^= 0xFF
            elif choice == 2:    # lie about the length
                data[:4] = (1 << 30).to_bytes(4, "big")
            else:                # pure garbage
                data = bytearray(os.urandom(rng.randrange(1, 64)))
            results.append(ChaosCase(
                scenario=name, case=case,
                verdict=_poke_raw(live.socket_path, bytes(data)),
                detail=f"mutation={mutations[choice]}",
            ))
        # the server must have survived all of it
        results.append(judge(
            name, len(results), TINY_BLOCKER, live.compile(TINY_BLOCKER)
        ))
    return results


def _poke_raw(path: str, data: bytes) -> str:
    """Send raw bytes; expect a frame back or a clean close within the
    timeout — a hang or an exception is ``uncontained``."""
    try:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(path)
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        try:
            reply = recv_frame(sock)
        except Exception:
            reply = None  # decoder-level close; still contained
        sock.close()
    except socket.timeout:
        return "uncontained"
    except OSError:
        return "failed-clean"  # reset mid-write: the peer was dropped
    if reply is None or not reply.get("ok", True):
        return "failed-clean"
    return "clean"  # a truncation can still parse as a valid frame


def _run_slow_client(
    name: str, seed: int, cases: int, rng: random.Random
) -> List[ChaosCase]:
    """One peer trickles its frame byte-by-byte while a fast peer
    compiles; both must be answered and the fast one must not stall."""
    frame = encode_frame({"op": "compile", "source": TINY_BLOCKER, "id": "slow"})
    with tempfile.TemporaryDirectory() as directory, _LiveServer(
        directory, workers=2
    ) as live:
        slow = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        slow.settimeout(30.0)
        slow.connect(live.socket_path)
        fast: List[Tuple[Optional[Dict[str, Any]], float]] = []
        fast_thread = threading.Thread(target=lambda: fast.append(
            (live.compile(TINY_BLOCKER), time.monotonic())
        ))
        started = time.monotonic()
        fast_thread.start()
        step = max(1, len(frame) // 40)
        for offset in range(0, len(frame), step):
            slow.sendall(frame[offset:offset + step])
            time.sleep(0.02)
        trickled = time.monotonic() - started
        fast_thread.join(timeout=30)
        try:
            reply = recv_frame(slow)
        except Exception:
            reply = None
        slow.close()
    fast_reply, answered = fast[0] if fast else (None, started)
    first = judge(name, 0, TINY_BLOCKER, fast_reply)
    first.detail = (
        f"{first.detail} fast client answered in "
        f"{answered - started:.2f}s while the peer trickled for "
        f"{trickled:.2f}s"
    ).strip()
    return [first, judge(name, 1, TINY_BLOCKER, reply)]


def _run_cache_readonly(
    name: str, seed: int, cases: int, rng: random.Random
) -> List[ChaosCase]:
    """The result-cache directory stops accepting writes mid-service;
    compiles must keep succeeding with stores failing silently."""
    with tempfile.TemporaryDirectory() as directory:
        cache_dir = os.path.join(directory, "cache")
        os.makedirs(cache_dir)
        os.chmod(cache_dir, stat.S_IRUSR | stat.S_IXUSR)
        try:
            with _LiveServer(
                directory, workers=2, result_cache_dir=cache_dir
            ) as live:
                return [
                    judge(name, case, source, live.compile(source))
                    for case, source in enumerate(_sources(seed, cases))
                ]
        finally:
            os.chmod(cache_dir, stat.S_IRWXU)


def _run_kill_storm(
    name: str, seed: int, cases: int, rng: random.Random
) -> List[ChaosCase]:
    """Throughput under a sustained kill storm: a two-worker server
    (result cache off, so every request crosses a worker; breaker off,
    so the measurement is recovery, not shedding) loaded for
    :data:`STORM_SECONDS` undisturbed, then as long again with a plan
    killing at most one worker per :data:`STORM_INTERVAL`
    (:func:`judge_storm`)."""
    source = _case_source(seed, 1)
    with tempfile.TemporaryDirectory() as directory, _LiveServer(
        directory, workers=2, result_cache=False, max_retries=3,
        breaker=False,
    ) as live:
        live.compile(source)  # warm the worker memos
        load = dict(
            sources=[source], seconds=STORM_SECONDS,
            path=live.socket_path, clients=STORM_CLIENTS,
        )
        undisturbed = run_load(**load)
        seen = live.failures()
        with inject(FaultPlan("kill", interval=STORM_INTERVAL)):
            disturbed = run_load(**load)
        kills = live.failures() - seen
    return [judge_storm(name, undisturbed, disturbed, kills)]


# -------------------------------------------------------------- registry
#: Scenario name -> runner ``(name, seed, cases, rng) -> [ChaosCase]``;
#: the module docstring lists each one's owner and fault.
SCENARIOS: Dict[
    str, Callable[[str, int, int, random.Random], List[ChaosCase]]
] = {
    "table-corrupt": _batch(_run_table_corrupt),
    "cache-corrupt": _batch(_run_cache_corrupt),
    "de-bridge": _batch(_run_de_bridge),
    "worker-kill": _batch_worker_fault("kill"),
    "worker-hang": _batch_worker_fault("hang", timeout=2.0),
    "serve-worker-kill": _serve_worker_fault("kill"),
    "serve-worker-hang": _serve_worker_fault("hang", job_timeout=1.5),
    "serve-cache-corrupt": _run_serve_cache_corrupt,
    "malformed-frames": _run_malformed_frames,
    "slow-client": _run_slow_client,
    "cache-readonly": _run_cache_readonly,
    "kill-storm": _run_kill_storm,
}


def run_chaos(
    seed: int = 0,
    cases_per_scenario: int = 2,
    scenarios: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run *scenarios* (default: the whole registry) with
    *cases_per_scenario* cases each; deterministic for a seed, up to
    scheduling, which the invariants are robust to."""
    chosen = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [name for name in chosen if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown chaos scenario(s) {unknown}; "
                         f"have {sorted(SCENARIOS)}")
    report = ChaosReport(seed=seed)
    for name in chosen:
        if progress:
            progress(f"chaos: {name} ...")
        # stable across processes: hash() is PYTHONHASHSEED-random
        tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:2], "big")
        rng = random.Random((seed << 24) ^ tag)
        try:
            cases = SCENARIOS[name](name, seed, cases_per_scenario, rng)
        except Exception as exc:
            cases = [ChaosCase(
                scenario=name, case=0, verdict="uncontained",
                detail=f"harness raised {type(exc).__name__}: {exc}",
            )]
        for case in cases:
            if progress:
                progress(
                    f"chaos: {name} case {case.case}: {case.verdict}"
                    + (f" ({case.detail})" if case.detail else "")
                )
        report.cases.extend(cases)
    return report
