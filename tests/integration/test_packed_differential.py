"""Differential testing: packed fast path vs. the original dict tables.

The packed integer matcher is the live representation; the dict loop is
kept precisely so this suite can assert they are interchangeable.  Over
the whole workload suite, the fuzzer's widened spec space and every
checked-in fuzz reproducer, the two must produce byte-identical assembly
and identical match statistics — any divergence is a packing or lookup
bug, never an acceptable approximation.
"""

import pathlib

import pytest

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import compile_program
from repro.fuzz.driver import spec_for_case
from repro.workloads.generator import generate_workload
from repro.workloads.programs import ALL_PROGRAMS

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "fuzz" / "corpus"


@pytest.fixture(scope="module")
def packed_gen(vax_bundle, vax_tables):
    return GrahamGlanvilleCodeGenerator(
        bundle=vax_bundle, tables=vax_tables, engine="packed"
    )


@pytest.fixture(scope="module")
def dict_gen(vax_bundle, vax_tables):
    return GrahamGlanvilleCodeGenerator(
        bundle=vax_bundle, tables=vax_tables, engine="dict"
    )


def assert_identical(source, packed_gen, dict_gen):
    packed = compile_program(source, generator=packed_gen)
    plain = compile_program(source, generator=dict_gen)

    assert packed.text == plain.text

    for name in packed.source_program.order:
        fast = packed.function_results[name]
        slow = plain.function_results[name]
        assert fast.shifts == slow.shifts
        assert fast.reductions == slow.reductions
        assert fast.chain_reductions == slow.chain_reductions
        assert fast.statements == slow.statements


@pytest.mark.parametrize(
    "program", ALL_PROGRAMS, ids=[p.name for p in ALL_PROGRAMS]
)
def test_packed_matches_dict_everywhere(program, packed_gen, dict_gen):
    assert_identical(program.source, packed_gen, dict_gen)


@pytest.mark.parametrize("case", range(8))
def test_packed_matches_dict_on_fuzz_programs(case, packed_gen, dict_gen):
    """The fuzzer's widened spec space (floats, unsigned compares, wide
    shifts, nested calls) reaches grammar corners the curated workload
    suite does not; the packed matcher must not diverge there either."""
    source = generate_workload(spec_for_case(1982, case))
    assert_identical(source, packed_gen, dict_gen)


@pytest.mark.parametrize(
    "fingerprint",
    sorted(p.name for p in CORPUS.iterdir() if p.is_dir())
    if CORPUS.is_dir() else ["<empty>"],
)
def test_packed_matches_dict_on_corpus_reproducers(
    fingerprint, packed_gen, dict_gen
):
    """Every checked-in fuzz reproducer once exposed a divergence; the
    two engines replay each one against each other."""
    if fingerprint == "<empty>":
        pytest.skip("fuzz corpus is empty")
    source = (CORPUS / fingerprint / "repro.c").read_text()
    assert_identical(source, packed_gen, dict_gen)


def test_packed_is_the_default(vax_bundle, vax_tables):
    gen = GrahamGlanvilleCodeGenerator(bundle=vax_bundle, tables=vax_tables)
    assert gen.engine == "packed"
