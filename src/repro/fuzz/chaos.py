"""Chaos harness: fault injection against the *pipeline*, not the code.

:mod:`repro.fuzz.inject` plants miscompilation bugs to prove the oracle
can catch them; this module instead breaks the pipeline's *machinery* —
packed tables, the persistent cache, the bridge productions, the batch
workers — and asserts the resilience invariant of the recovery ladder:

    every compile ends in either output the IR interpreter agrees with
    (any recovery recorded as a diagnostic) or a structured, non-silent
    failure — never a silent miscompilation, never a whole-program abort
    caused by one function.

Scenarios
---------
``table-corrupt``
    Flip words in the packed action rows stored inside a table-cache
    entry, leaving the entry's digest as it was — the tables a fresh
    generator would load, rotted in place.  The live runtime is
    immutable, so this is where table corruption can really happen.
    The envelope's sha256 must refuse the entry before a single word is
    trusted (CACHE-CORRUPT) and the generator must cold-build; output
    must still match the interpreter.
``cache-corrupt``
    Truncate or byte-flip the persistent table-cache entry.  The
    checksummed envelope must quarantine it and cold-build
    (CACHE-CORRUPT); output must still match.
``de-bridge``
    Compile with the rescue bridge productions removed
    (``rescue_bridges=False``) so scaled-index commitments genuinely
    block, as in section 6.2.2 before the static repairs.  Blocks must
    surface as GG-BLOCK-SYN and recover via hoisting or PCC; output must
    still match.
``worker-kill`` / ``worker-hang``
    Kill or hang the worker compiling one function via the
    ``REPRO_CHAOS_*`` env hooks.  The fault fires on every attempt, so
    the supervisor restarts the worker, re-dispatches the batch, and
    gives up; the rest of the program must compile on its own workers,
    the lost batch must be recovered in the parent (WORKER-CRASH /
    WORKER-TIMEOUT per attempt), and output must still match.
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..codegen.driver import GrahamGlanvilleCodeGenerator
from ..compile import ProgramAssembly, compile_program, shutdown_worker_pools
from ..frontend.lower import compile_c
from ..tables.cache import rewrite_payload
from .oracle import _observe_interp, _sign32, default_calls

#: The smallest known program that blocks a de-bridged grammar: the
#: "Plus con Mul" commitment expects a scale token and meets Indir.
TINY_BLOCKER = "int g; int f(int x, int y) { g = 2 + x*y; return g; }\n"

SCENARIOS = (
    "table-corrupt", "cache-corrupt", "de-bridge",
    "worker-kill", "worker-hang",
)

#: Simulator step budget per case (chaos programs are small).
MAX_STEPS = 5_000_000


@dataclass
class ChaosCase:
    """One scenario applied to one program."""

    scenario: str
    case: int
    verdict: str   # clean | recovered | failed-clean | skip |
    #                silent-miscompile | uncontained
    tiers: Dict[str, str] = field(default_factory=dict)
    codes: Dict[str, int] = field(default_factory=dict)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict not in ("silent-miscompile", "uncontained")


@dataclass
class ChaosReport:
    """A whole chaos run's verdicts."""

    seed: int
    cases: List[ChaosCase] = field(default_factory=list)

    @property
    def silent_miscompiles(self) -> List[ChaosCase]:
        return [c for c in self.cases if c.verdict == "silent-miscompile"]

    @property
    def uncontained(self) -> List[ChaosCase]:
        return [c for c in self.cases if c.verdict == "uncontained"]

    @property
    def ok(self) -> bool:
        return not self.silent_miscompiles and not self.uncontained

    def summary_lines(self) -> List[str]:
        lines = [f"chaos: seed {self.seed}, {len(self.cases)} case(s)"]
        by_verdict: Dict[str, int] = {}
        for case in self.cases:
            by_verdict[case.verdict] = by_verdict.get(case.verdict, 0) + 1
        lines.append(
            "chaos: " + ", ".join(
                f"{verdict}={count}"
                for verdict, count in sorted(by_verdict.items())
            )
        )
        for case in self.cases:
            if not case.ok:
                lines.append(
                    f"chaos: FAIL {case.scenario}#{case.case}: "
                    f"{case.verdict} ({case.detail})"
                )
        lines.append(
            "chaos: zero silent miscompilations" if self.ok
            else "chaos: INVARIANT VIOLATED"
        )
        return lines


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


def observe_text(
    program, text: str, calls, max_steps: int = MAX_STEPS
) -> Tuple[Optional[dict], str]:
    """Assemble raw assembly *text* and run it against *calls* —
    the observer for outputs that arrive without a
    :class:`ProgramAssembly` (e.g. a compile-server response)."""
    from ..sim.assembler import assemble
    from ..sim.cpu import Vax

    try:
        vax = Vax(assemble(text), max_steps=max_steps)
    except Exception as exc:
        return None, f"assemble {type(exc).__name__}: {exc}"
    return _observe_vax(program, vax, calls)


def _observe_assembly(
    program, assembly: ProgramAssembly, calls, max_steps: int
) -> Tuple[Optional[dict], str]:
    """Run an already-built assembly; (state dict, "") or (None, error)."""
    try:
        vax = assembly.simulator(max_steps=max_steps)
    except Exception as exc:
        return None, f"assemble {type(exc).__name__}: {exc}"
    return _observe_vax(program, vax, calls)


def _observe_vax(program, vax, calls) -> Tuple[Optional[dict], str]:
    from .oracle import _global_reads

    returns: Dict[str, int] = {}
    try:
        for index, (entry, args) in enumerate(calls):
            returns[f"{index}:{entry}"] = _sign32(int(
                vax.call(entry, list(args))
            ))
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    finals: Dict[str, object] = {}
    for name, element, count in _global_reads(program):
        base = vax.address_of(name)
        if element.is_float:
            values = tuple(
                vax.float_store.get(base + element.size * i, 0.0)
                for i in range(count)
            )
        else:
            values = tuple(
                vax.read_memory(base + element.size * i, element.size,
                                signed=element.signed)
                for i in range(count)
            )
        finals[name] = values if count > 1 else values[0]
    return {"returns": returns, "finals": finals}, ""


def _judge(
    scenario: str, case: int, source: str, assembly: ProgramAssembly
) -> ChaosCase:
    """Apply the resilience invariant to one compiled program."""
    result = ChaosCase(
        scenario=scenario, case=case, verdict="clean",
        tiers=dict(assembly.tiers), codes=assembly.diagnostics.counts(),
    )
    program = compile_c(source)
    calls = default_calls(program)

    if assembly.failed:
        # a terminal failure is acceptable ONLY when it is structured:
        # an error-severity diagnostic names every failed function
        named = {d.function for d in assembly.diagnostics.errors}
        if all(name in named for name in assembly.failed):
            result.verdict = "failed-clean"
            result.detail = f"failed: {','.join(assembly.failed)}"
        else:
            result.verdict = "uncontained"
            result.detail = "failed function missing an error diagnostic"
        return result

    reference = _observe_interp(program, calls, MAX_STEPS)
    if reference.error is not None:
        result.verdict = "skip"
        result.detail = f"interp: {reference.error}"
        return result

    observed, error = _observe_assembly(program, assembly, calls, MAX_STEPS)
    if observed is None:
        # the compile claimed success but the output cannot run: only a
        # recorded error diagnostic makes this a structured failure
        result.verdict = (
            "failed-clean" if not assembly.diagnostics.ok else "uncontained"
        )
        result.detail = error
        return result

    if (observed["returns"] != reference.returns
            or observed["finals"] != reference.finals):
        result.verdict = "silent-miscompile"
        result.detail = (
            f"interp={reference.returns}/{reference.finals} "
            f"got={observed['returns']}/{observed['finals']}"
        )
        return result

    recovered = any(tier != "packed" for tier in assembly.tiers.values())
    if recovered or len(assembly.diagnostics):
        result.verdict = "recovered"
    return result


# ------------------------------------------------------------- scenarios
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


def _pick_victim(source: str, rng: random.Random) -> str:
    order = compile_c(source).order
    return order[rng.randrange(len(order))]


def _run_with_env(
    source: str, variable: str, value: str, timeout: Optional[float]
) -> ProgramAssembly:
    """Compile on the batch workers with a chaos variable set.

    Workers read the environment they were forked with, so the
    keep-alive is retired twice: once after arming the variable (or
    earlier workers would never see the fault) and once after restoring
    it (or later compiles would run in armed workers)."""
    saved = os.environ.get(variable)
    os.environ[variable] = value
    shutdown_worker_pools()
    try:
        return compile_program(
            source, resilient=True, jobs=2, parallel="process",
            timeout=timeout,
        )
    finally:
        if saved is None:
            del os.environ[variable]
        else:
            os.environ[variable] = saved
        shutdown_worker_pools()


def _run_worker_kill(source: str, rng: random.Random) -> ProgramAssembly:
    victim = _pick_victim(source, rng)
    return _run_with_env(source, "REPRO_CHAOS_KILL_FN", victim, None)


def _run_worker_hang(source: str, rng: random.Random) -> ProgramAssembly:
    victim = _pick_victim(source, rng)
    return _run_with_env(
        source, "REPRO_CHAOS_HANG_FN", f"{victim}:20", timeout=2.0
    )


_RUNNERS: Dict[str, Callable[[str, random.Random], ProgramAssembly]] = {
    "table-corrupt": _run_table_corrupt,
    "cache-corrupt": _run_cache_corrupt,
    "de-bridge": _run_de_bridge,
    "worker-kill": _run_worker_kill,
    "worker-hang": _run_worker_hang,
}


def run_chaos(
    seed: int = 0,
    cases_per_scenario: int = 2,
    scenarios: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the chaos campaign; deterministic for a given seed.

    Case 0 of every scenario uses :data:`TINY_BLOCKER` (guaranteeing the
    de-bridge scenario a genuine block); later cases draw small fuzz
    workloads from the seeded generator.
    """
    chosen = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [s for s in chosen if s not in _RUNNERS]
    if unknown:
        raise ValueError(f"unknown chaos scenario(s) {unknown}; "
                         f"have {sorted(_RUNNERS)}")
    report = ChaosReport(seed=seed)
    for scenario in chosen:
        for case in range(cases_per_scenario):
            # stable across processes: hash() is PYTHONHASHSEED-random
            tag = int.from_bytes(
                hashlib.sha256(scenario.encode()).digest()[:2], "big"
            )
            rng = random.Random((seed << 24) ^ tag ^ (case << 4))
            source = (
                TINY_BLOCKER if case == 0 else _case_source(seed, case)
            )
            if progress:
                progress(f"chaos: {scenario} case {case} ...")
            try:
                assembly = _RUNNERS[scenario](source, rng)
            except Exception as exc:
                report.cases.append(ChaosCase(
                    scenario=scenario, case=case, verdict="uncontained",
                    detail=f"pipeline raised {type(exc).__name__}: {exc}",
                ))
                continue
            verdict = _judge(scenario, case, source, assembly)
            if progress:
                progress(
                    f"chaos: {scenario} case {case}: {verdict.verdict}"
                    + (f" ({verdict.detail})" if verdict.detail else "")
                )
            report.cases.append(verdict)
    return report
