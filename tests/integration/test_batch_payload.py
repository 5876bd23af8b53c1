"""Lean batch payloads: the pool's text-mode pipe format vs the serial path.

Process workers ship preformatted assembly text plus compact stats
(:class:`FunctionText`) instead of pickled ``CompileResult`` objects.
The serial ``jobs=1`` compile is the oracle: this suite holds the pooled
compile byte-identical to it — program text, per-function stats,
diagnostics content *and ordering* — across the curated workloads, the
fuzzer's widened spec space, every checked-in fuzz reproducer, and the
shipped golden assembly, and pins down that the lean shape is actually
smaller on the wire than the result graph it flattens.
"""

import pathlib
import pickle
from concurrent.futures import Future

import pytest

import repro.compile as compile_mod
from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import FunctionText, compile_program
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


class InlinePool:
    """Runs process-pool tasks inline, recording each pickled payload."""

    def __init__(self, gen, jobs=2):
        self.options_key = compile_mod._options_key(
            compile_mod._generator_options(gen)
        )
        self.jobs = jobs
        self.broken = False
        self.payloads = []

    def submit(self, fn, *args):
        self.payloads.append(pickle.dumps(args))
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _install_worker(gen, monkeypatch):
    key = compile_mod._options_key(compile_mod._generator_options(gen))
    monkeypatch.setattr(compile_mod, "_WORKER_GENERATOR", (key, gen))
    monkeypatch.setattr(compile_mod, "_WORKER_PROGRAMS", {})


@pytest.fixture()
def inline_worker(gg, monkeypatch):
    _install_worker(gg, monkeypatch)


def compile_serial_and_pooled(source, gen, **kwargs):
    """The same unit compiled serially and through the (inline) pool."""
    serial = compile_program(source, generator=gen, jobs=1, **kwargs)
    pooled = compile_program(
        source, generator=gen, jobs=2, parallel="process",
        pool=InlinePool(gen), **kwargs,
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
def test_text_mode_matches_serial_on_workloads(program, gg, inline_worker):
    assert_equivalent(program.source, gg)


@pytest.mark.parametrize("case", range(4))
def test_text_mode_matches_on_fuzz_spec_space(case, gg, inline_worker):
    source = generate_workload(spec_for_case(1982, case))
    assert_equivalent(source, gg)


@pytest.mark.parametrize(
    "fingerprint",
    sorted(p.name for p in CORPUS.iterdir() if p.is_dir())
    if CORPUS.is_dir() else ["<empty>"],
)
def test_text_mode_matches_on_corpus_reproducers(
    fingerprint, gg, inline_worker
):
    if fingerprint == "<empty>":
        pytest.skip("fuzz corpus is empty")
    source = (CORPUS / fingerprint / "repro.c").read_text()
    assert_equivalent(source, gg)


def test_text_mode_reproduces_the_quickstart_golden(gg, inline_worker):
    import importlib.util

    path = _REPO / "examples" / "quickstart.py"
    spec = importlib.util.spec_from_file_location("gold_quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = compile_program(
        module.SOURCE, generator=gg, jobs=2, parallel="process",
        pool=InlinePool(gg),
    )
    assert out.text == (GOLDEN_DIR / "quickstart.gg.s").read_text()


def test_resilient_diagnostics_identical_across_modes(monkeypatch):
    """The resilient pool path also ships lean results; a rescue's
    diagnostics must come back with the serial path's content — codes,
    functions, messages, severities, context — in the same order."""
    debridged = GrahamGlanvilleCodeGenerator(
        rescue_bridges=False, cache=False
    )
    _install_worker(debridged, monkeypatch)
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


def test_text_payload_is_smaller_on_the_wire(gg, inline_worker):
    """The point of the lean shape: the worker's return value pickles
    far smaller than the full CompileResult graph it flattens."""
    program = compile_c(MULTI_SOURCE, gg.machine)
    names = tuple(program.order)
    lean_results, _ = compile_mod._compile_batch_in_worker(
        (MULTI_SOURCE, names)
    )
    full_results = [gg.compile(program.forest(name)) for name in names]
    lean_bytes = len(pickle.dumps(lean_results))
    full_bytes = len(pickle.dumps(full_results))
    assert lean_bytes < full_bytes, (lean_bytes, full_bytes)
    # the lean shape is the assembly text plus a compact constant per
    # function — nothing proportional to the instruction object graph
    text_bytes = sum(len(r.assembly) for r in lean_results)
    assert lean_bytes < text_bytes + 256 * len(lean_results), (
        lean_bytes, text_bytes,
    )


def test_function_text_keeps_timing_shape(gg, inline_worker):
    """`result.times.wall` is how cpu_seconds accounting reads worker
    results; the flat record must answer the same way."""
    results, _ = compile_mod._compile_batch_in_worker(
        (MULTI_SOURCE, ("gcd",))
    )
    (lean,) = results
    assert lean.times.wall == lean.seconds
    assert compile_mod._function_seconds(lean) == lean.seconds
