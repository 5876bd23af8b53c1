"""Shared benchmark fixtures and the experiment-report sink.

Every bench module regenerates one of the paper's tables/figures; besides
the pytest-benchmark timings, each writes its regenerated rows to
``benchmarks/results/<id>.txt`` so EXPERIMENTS.md can cite them.
"""

import os

import pytest

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.frontend import compile_c
from repro.tables.slr import construct_tables
from repro.vax.grammar_gen import build_vax_grammar
from repro.workloads import generate_workload

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_report(experiment_id: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
    with open(path, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    print(f"\n[{experiment_id}]\n{text}")


@pytest.fixture(scope="session")
def vax_bundle():
    return build_vax_grammar()


@pytest.fixture(scope="session")
def vax_tables(vax_bundle):
    return construct_tables(vax_bundle.grammar)


@pytest.fixture(scope="session")
def gg(vax_bundle, vax_tables):
    return GrahamGlanvilleCodeGenerator(bundle=vax_bundle, tables=vax_tables)


@pytest.fixture(scope="session")
def corpus_source():
    """The 'particular large C program' stand-in (section 8)."""
    return generate_workload(functions=20, statements_per_function=25,
                             seed=1982)


@pytest.fixture(scope="session")
def corpus_program(corpus_source):
    return compile_c(corpus_source)
