"""Lean batch payloads: the workers' text-mode pipe format vs the serial
path.

Worker processes ship preformatted assembly text plus compact stats
(:class:`FunctionText`) instead of pickled ``CompileResult`` objects.
The serial ``jobs=1`` compile is the oracle: this suite holds the
``jobs=2`` compile, on the real keep-alive workers, byte-identical to
it — program text, per-function stats, diagnostics content *and
ordering* — across the curated workloads, the fuzzer's widened spec
space, every checked-in fuzz reproducer, and the shipped golden
assembly, and pins down that the lean shape the job body produces is
actually smaller on the wire than the result graph it flattens.
"""

import json
import pathlib
import pickle

import pytest

import repro.compile as compile_mod
from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import FunctionText, compile_functions, compile_program
from repro.frontend import compile_c
from repro.fuzz.chaos import TINY_BLOCKER
from repro.fuzz.driver import spec_for_case
from repro.workloads.generator import generate_workload
from repro.workloads.programs import ALL_PROGRAMS

_REPO = pathlib.Path(__file__).resolve().parents[2]
CORPUS = _REPO / "fuzz" / "corpus"
GOLDEN_DIR = _REPO / "tests" / "goldens"

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}
MULTI_SOURCE = "\n".join(
    _BY_NAME[name].source for name in ("gcd", "fib", "bits", "poly_eval")
)


def compile_serial_and_pooled(source, gen, **kwargs):
    """The same unit compiled serially and on the keep-alive workers."""
    serial = compile_program(source, generator=gen, jobs=1, **kwargs)
    pooled = compile_program(
        source, generator=gen, jobs=2, parallel="process", **kwargs,
    )
    return serial, pooled


def assert_equivalent(source, gen):
    serial, pooled = compile_serial_and_pooled(source, gen)
    assert pooled.text == serial.text
    several = len(serial.source_program.order) > 1
    for name in serial.source_program.order:
        lean = pooled.function_results[name]
        full = serial.function_results[name]
        if several:  # single-function units compile serially in-parent
            assert isinstance(lean, FunctionText)
        assert lean.assembly == full.assembly
        assert lean.instruction_count == full.instruction_count
        assert lean.shifts == full.shifts
        assert lean.reductions == full.reductions
        assert lean.chain_reductions == full.chain_reductions
        assert lean.statements == full.statements


@pytest.mark.parametrize(
    "program", ALL_PROGRAMS, ids=[p.name for p in ALL_PROGRAMS]
)
def test_text_mode_matches_serial_on_workloads(program, gg):
    assert_equivalent(program.source, gg)


@pytest.mark.parametrize("case", range(4))
def test_text_mode_matches_on_fuzz_spec_space(case, gg):
    source = generate_workload(spec_for_case(1982, case))
    assert_equivalent(source, gg)


@pytest.mark.parametrize(
    "fingerprint",
    sorted(p.name for p in CORPUS.iterdir() if p.is_dir())
    if CORPUS.is_dir() else ["<empty>"],
)
def test_text_mode_matches_on_corpus_reproducers(fingerprint, gg, r32_gg):
    if fingerprint == "<empty>":
        pytest.skip("fuzz corpus is empty")
    source = (CORPUS / fingerprint / "repro.c").read_text()
    meta = json.loads((CORPUS / fingerprint / "meta.json").read_text())
    assert_equivalent(source, r32_gg if meta.get("target") == "r32" else gg)


def test_text_mode_reproduces_the_quickstart_golden(gg):
    import importlib.util

    path = _REPO / "examples" / "quickstart.py"
    spec = importlib.util.spec_from_file_location("gold_quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = compile_program(
        module.SOURCE, generator=gg, jobs=2, parallel="process",
    )
    assert out.text == (GOLDEN_DIR / "quickstart.gg.s").read_text()


def test_resilient_diagnostics_identical_across_modes():
    """The resilient worker path also ships lean results; a rescue's
    diagnostics must come back with the serial path's content — codes,
    functions, messages, severities, context — in the same order."""
    debridged = GrahamGlanvilleCodeGenerator(
        rescue_bridges=False, cache=False
    )
    source = TINY_BLOCKER + "\nint ok(int a, int b) { return a + b; }\n"
    serial, pooled = compile_serial_and_pooled(
        source, debridged, resilient=True
    )
    assert pooled.text == serial.text
    assert pooled.tiers == serial.tiers
    assert pooled.tiers["f"] == "hoist"
    assert [d.to_dict() for d in pooled.diagnostics.records()] == [
        d.to_dict() for d in serial.diagnostics.records()
    ]
    assert pooled.diagnostics.has(compile_mod.codes.RECOVER_FORCE)
    for name in serial.source_program.order:
        lean = pooled.function_results[name]
        full = serial.function_results[name]
        assert lean.assembly == full.assembly
        assert lean.instruction_count == full.instruction_count


def test_text_payload_is_smaller_on_the_wire(gg):
    """The point of the lean shape: the job body's flattened outcomes
    pickle far smaller than the full CompileResult graph they
    flatten."""
    program = compile_c(MULTI_SOURCE, gg.machine)
    names = tuple(program.order)
    outcomes = compile_functions(gg, program, names, flatten=True)
    full_results = [gg.compile(program.forest(name)) for name in names]
    lean_bytes = len(pickle.dumps(outcomes))
    full_bytes = len(pickle.dumps(full_results))
    assert lean_bytes < full_bytes, (lean_bytes, full_bytes)
    # the lean shape is the assembly text plus a compact constant per
    # function (its tier and diagnostics ride beside the text) —
    # nothing proportional to the instruction object graph
    text_bytes = sum(len(o.result.assembly) for o in outcomes)
    assert lean_bytes < text_bytes + 256 * len(outcomes), (
        lean_bytes, text_bytes,
    )


def test_function_text_keeps_timing_shape(gg):
    """`result.times.wall` is how cpu_seconds accounting reads worker
    results; the flat record must answer the same way."""
    outcomes = compile_functions(
        gg, compile_c(MULTI_SOURCE, gg.machine), ("gcd",), flatten=True
    )
    (outcome,) = outcomes
    lean = outcome.result
    assert outcome.tier == "packed" and outcome.diagnostics == []
    assert lean.times.wall == lean.seconds
    assert compile_mod._function_seconds(lean) == lean.seconds
