"""The three-way differential oracle.

One program, three executions, one verdict.  The observable state is
everything a C caller could see: the return value of every call made,
and the final value of every file-scope variable (including each array
element and the float store).  Anything short of full agreement is
classified into a small set of divergence classes so the corpus can
fingerprint findings and the minimizer can chase *the same* bug while
shrinking, not whichever bug a candidate happens to trip first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile import compile_program
from ..frontend.lower import CompiledProgram, compile_c
from ..sim.interp import Interpreter
from ..targets.registry import resolve_target

#: Arguments used for every entry point unless the caller says otherwise.
DEFAULT_ARGS = (7, 3)

#: One observable execution: name -> value maps.
Calls = Sequence[Tuple[str, Tuple[int, ...]]]

#: The full pipeline set, on a target with a PCC baseline (VAX).
PIPELINES = ("interp", "gg", "pcc")


def pipelines_for(target) -> Tuple[str, ...]:
    """The pipelines the oracle can run for *target*.

    Every target gets the IR interpreter (the target-independent
    reference) against its Graham-Glanville backend; the PCC baseline
    joins only where it exists — it emits VAX assembly.
    """
    target = resolve_target(target)
    return PIPELINES if target.supports_pcc else ("interp", "gg")


def _sign32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


@dataclass
class Observation:
    """What one pipeline computed, or how it failed."""

    returns: Dict[str, int] = field(default_factory=dict)
    finals: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    instructions: int = 0   # static instruction count (backends only)

    def state(self) -> Tuple:
        return (tuple(sorted(self.returns.items())),
                tuple(sorted(self.finals.items())))


@dataclass
class OracleReport:
    """The verdict over one source program."""

    source: str
    calls: List[Tuple[str, Tuple[int, ...]]]
    observations: Dict[str, Observation] = field(default_factory=dict)
    divergence: Optional[str] = None    # class, None when all agree
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.divergence is None


def default_calls(program: CompiledProgram,
                  args: Tuple[int, ...] = DEFAULT_ARGS) -> List[Tuple[str, Tuple[int, ...]]]:
    """Call every function in source order with the fixed arguments;
    globals persist between calls, so later functions observe earlier
    side effects."""
    return [(name, args) for name in program.order]


def _global_reads(program: CompiledProgram):
    """(name, machine_type, element_count) for every observable global."""
    for name, ctype in program.globals.items():
        element = ctype.machine_type if ctype.array is None \
            else ctype.element().machine_type
        yield name, element, (1 if ctype.array is None else ctype.array)


def _seed_layout(program: CompiledProgram, init: Optional[dict]):
    """(name, element, index, value) writes for caller-seeded globals."""
    if not init:
        return
    by_name = {name: element
               for name, element, _count in _global_reads(program)}
    for name, values in init.items():
        element = by_name[name]
        for index, value in enumerate(values):
            yield name, element, index, value


def _observe_interp(program: CompiledProgram, calls: Calls,
                    max_steps: int,
                    init_globals: Optional[dict] = None) -> Observation:
    observation = Observation()
    interpreter = Interpreter()
    interpreter.machine.max_steps = max_steps
    for forest in program.forests.values():
        interpreter.add_forest(forest)
    for name, ctype in program.globals.items():
        interpreter.machine.address_of(name, ctype.size())
    machine = interpreter.machine
    for name, element, index, value in _seed_layout(program, init_globals):
        machine.write(machine.address_of(name) + element.size * index,
                      element, value)
    try:
        for index, (entry, args) in enumerate(calls):
            result = interpreter.run(entry, list(args))
            observation.returns[f"{index}:{entry}"] = _sign32(int(result))
    except Exception as exc:  # noqa: BLE001 - every failure is a verdict
        observation.error = f"{type(exc).__name__}: {exc}"
        return observation
    for name, element, count in _global_reads(program):
        base = machine.address_of(name)
        values = tuple(
            machine.read(base + element.size * i, element) for i in range(count)
        )
        observation.finals[name] = values if count > 1 else values[0]
    return observation


def _observe_backend(program: CompiledProgram, source: str, backend: str,
                     calls: Calls, max_steps: int,
                     generator=None,
                     init_globals: Optional[dict] = None,
                     target=None) -> Observation:
    observation = Observation()
    try:
        assembly = compile_program(
            source, backend,
            generator=generator if backend == "gg" else None,
            target=target if backend == "gg" else "vax",
        )
        vax = assembly.simulator(max_steps=max_steps)
    except Exception as exc:  # noqa: BLE001
        observation.error = f"compile {type(exc).__name__}: {exc}"
        return observation
    observation = observe_machine(program, vax, calls, init_globals)
    observation.instructions = assembly.instruction_count
    return observation


def observe_machine(program: CompiledProgram, vax, calls: Calls,
                    init_globals: Optional[dict] = None) -> Observation:
    """Run *calls* on the simulator *vax* (any target's) holding
    *program*'s assembly, globals seeded from *init_globals*: the return
    values and final globals, or how the run failed."""
    observation = Observation()
    for name, element, index, value in _seed_layout(program, init_globals):
        address = vax.address_of(name) + element.size * index
        if element.is_float:
            vax.float_store[address] = float(value)
        else:
            vax.write_memory(address, element.size, value)
    try:
        for index, (entry, args) in enumerate(calls):
            result = vax.call(entry, list(args))
            observation.returns[f"{index}:{entry}"] = _sign32(int(result))
    except Exception as exc:  # noqa: BLE001
        observation.error = f"{type(exc).__name__}: {exc}"
        return observation
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
        observation.finals[name] = values if count > 1 else values[0]
    return observation


def _classify(observations: Dict[str, Observation]) -> Tuple[Optional[str], str]:
    errors = {name: obs.error for name, obs in observations.items()
              if obs.error is not None}
    if any("step limit" in msg for msg in errors.values()):
        # the program is (probably) valid but too slow to simulate within
        # the step cap — nested loops through call chains multiply work
        # fast.  Not a finding: the driver skips these.
        detail = "; ".join(f"{name}: {msg}"
                           for name, msg in sorted(errors.items()))
        return "timeout", detail
    if errors:
        if len(errors) == len(observations):
            # everything failed the same way: still a finding (the
            # generator promised a valid program) but its own class
            which = "all"
        else:
            which = ",".join(sorted(errors))
        detail = "; ".join(f"{name}: {msg}" for name, msg in sorted(errors.items()))
        return f"crash:{which}", detail

    reference = observations["interp"]
    backends = [name for name in observations if name != "interp"]
    for key, value in reference.returns.items():
        for name in backends:
            other = observations[name].returns.get(key)
            if other != value:
                return ("return-mismatch",
                        f"{key}: interp={value} {name}={other}")
    for key, value in reference.finals.items():
        for name in backends:
            other = observations[name].finals.get(key)
            if other != value:
                return ("global-mismatch",
                        f"{key}: interp={value!r} {name}={other!r}")
    return None, ""


#: The two observable-state mismatch classes are one *family*: the same
#: miscompiled expression shows up as a return-mismatch or a
#: global-mismatch depending purely on where the minimizer parks the
#: value.  Crash classes stay pinned individually.
_MISMATCH_FAMILY = frozenset({"return-mismatch", "global-mismatch"})


def same_divergence(found: Optional[str], target: Optional[str]) -> bool:
    """Is *found* the same bug class as *target*, for minimization?"""
    if found == target:
        return True
    return found in _MISMATCH_FAMILY and target in _MISMATCH_FAMILY


def run_oracle(
    source: str,
    calls: Optional[Calls] = None,
    gg_generator=None,
    max_steps: int = 5_000_000,
    init_globals: Optional[dict] = None,
    target=None,
) -> OracleReport:
    """Run *source* through every pipeline the target supports, compare.

    ``target`` picks the machine the GG backend compiles for (name or
    :class:`~repro.targets.base.Target`; default honours
    ``$REPRO_TARGET``).  On a target with a PCC baseline (VAX) the
    oracle is three-way — IR interpreter vs GG vs PCC; elsewhere it is
    two-way, interpreter vs GG, the interpreter staying the
    target-independent reference.

    ``gg_generator`` shares a constructed table set across many oracle
    runs (a fuzz campaign, the minimizer's candidate loop); without it
    every call warm-starts from the persistent table cache.  It must
    match ``target`` when both are given.
    ``init_globals`` maps global names to initial element lists, seeded
    identically into all machines before the first call — how the
    benchmark kernels provide their reference arrays.
    """
    if target is None and gg_generator is not None:
        resolved = gg_generator.target
    else:
        resolved = resolve_target(target)
    try:
        program = compile_c(source, resolved.machine)
    except Exception as exc:  # noqa: BLE001
        report = OracleReport(source=source, calls=[])
        report.divergence = "frontend-error"
        report.detail = f"{type(exc).__name__}: {exc}"
        return report

    call_list = list(calls) if calls is not None else default_calls(program)
    report = OracleReport(source=source, calls=call_list)
    report.observations["interp"] = _observe_interp(
        program, call_list, max_steps, init_globals=init_globals)
    report.observations["gg"] = _observe_backend(
        program, source, "gg", call_list, max_steps, generator=gg_generator,
        init_globals=init_globals, target=resolved)
    if resolved.supports_pcc:
        report.observations["pcc"] = _observe_backend(
            program, source, "pcc", call_list, max_steps,
            init_globals=init_globals)
    report.divergence, report.detail = _classify(report.observations)
    return report
