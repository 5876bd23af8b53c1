"""The correctness sample: generated code executed against the IR
interpreter.

Each sampled unit is compiled by the workload's own path (a callable
from source text to assembly text), run on the target's simulator, and
compared with ``repro.sim.interp`` over the calls' return values and the
final globals, the observation ``repro.fuzz.oracle`` defines.  The
interpreter is the reference: a unit whose interpreter run hits the step
cap says nothing about the compiler, so it is skipped and counted.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Sequence

from repro.frontend import compile_c
from repro.fuzz.oracle import (
    Observation, _classify, _global_reads, _observe_interp, _sign32,
    default_calls,
)
from repro.sim.assembler import assemble

#: Interpreter statements per unit before the unit is skipped.  Sized so
#: about three units in four run to completion and none costs much more
#: than a quarter of a second.
INTERP_STEP_CAP = 10_000

#: Simulated instructions per unit.  A unit the interpreter finished
#: needs far fewer; reaching the cap means the generated code loops.
SIM_STEP_CAP = 1_000_000


def observe_assembly(program, text: str, target, calls) -> tuple:
    """``(Observation, simulated steps)`` of *text* run on *target*."""
    observation = Observation()
    try:
        cpu = target.make_simulator(assemble(text), max_steps=SIM_STEP_CAP)
        for index, (entry, args) in enumerate(calls):
            result = cpu.call(entry, list(args))
            observation.returns[f"{index}:{entry}"] = _sign32(int(result))
    except Exception as exc:  # noqa: BLE001 - every failure is a verdict
        observation.error = f"{type(exc).__name__}: {exc}"
        return observation, 0
    for name, element, count in _global_reads(program):
        base = cpu.address_of(name)
        if element.is_float:
            values = tuple(
                cpu.float_store.get(base + element.size * i, 0.0)
                for i in range(count)
            )
        else:
            values = tuple(
                cpu.read_memory(base + element.size * i, element.size,
                                signed=element.signed)
                for i in range(count)
            )
        observation.finals[name] = values if count > 1 else values[0]
    return observation, cpu.steps


def check_sample(
    sources: Sequence[str],
    target,
    compile_text: Callable[[str], str],
    checks,
) -> Dict[str, int]:
    """Run the sample; every checked unit is one attempt in *checks*."""
    counts = {"oracle.units": 0, "oracle.skipped": 0, "oracle.exec_steps": 0}
    for source in sources:
        program = compile_c(source, target.machine)
        calls = default_calls(program)
        reference = _observe_interp(program, calls, INTERP_STEP_CAP)
        if reference.error and "step limit" in reference.error:
            counts["oracle.skipped"] += 1
            continue
        counts["oracle.units"] += 1
        observed, steps = observe_assembly(
            program, compile_text(source), target, calls
        )
        counts["oracle.exec_steps"] += steps
        divergence, detail = _classify(
            {"interp": reference, target.name: observed}
        )
        checks.expect(
            divergence is None,
            f"oracle divergence on {target.name}: {divergence} {detail}",
        )
    return counts


class Checks:
    """Attempted and failed operations of one run.

    An operation is a timed compile, edit or request, or one correctness
    check; a failure is printed to standard error as it happens."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, condition: bool, message: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failed += 1
            print(f"e2e: FAILED: {message}", file=sys.stderr, flush=True)
        return condition
