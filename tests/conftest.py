"""Shared fixtures.

Building the full VAX grammar and its parse tables costs a few hundred
milliseconds; tests share one session-scoped instance (the tables are
immutable; code generators keep per-compilation state elsewhere).
"""

import pytest
from hypothesis import settings

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.tables.slr import construct_tables
from repro.vax.grammar_gen import build_vax_grammar

# ``pytest --hypothesis-profile=frontend-reference --hypothesis-seed=0
# tests/frontend/test_reference.py``: more generated inputs for the
# lexer and parser to diverge from their references on.
settings.register_profile(
    "frontend-reference", max_examples=2000, deadline=None,
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite the golden assembly expectations under "
             "tests/goldens/ instead of asserting against them",
    )


@pytest.fixture()
def fresh_pool():
    """Retire the batch driver's keep-alive workers around a test, for
    tests that count one supervisor's events from zero or fault the
    spawn of its workers."""
    from repro.compile import shutdown_worker_pools

    shutdown_worker_pools()
    yield
    shutdown_worker_pools()


@pytest.fixture()
def dispatched_jobs(monkeypatch):
    """Every job the batch driver submits to its workers, as the
    ``(request, names)`` pair the pipe carries."""
    from repro.workers import WorkerSupervisor

    jobs = []
    submit = WorkerSupervisor.submit

    async def recording(self, request, only, timeout=None):
        jobs.append((dict(request), list(only)))
        return await submit(self, request, only, timeout)

    monkeypatch.setattr(WorkerSupervisor, "submit", recording)
    return jobs


@pytest.fixture(scope="session")
def vax_bundle():
    return build_vax_grammar()


@pytest.fixture(scope="session")
def vax_tables(vax_bundle):
    return construct_tables(vax_bundle.grammar)


@pytest.fixture(scope="session")
def gg(vax_bundle, vax_tables):
    """A shared Graham-Glanville code generator over the full VAX tables."""
    return GrahamGlanvilleCodeGenerator(bundle=vax_bundle, tables=vax_tables)


@pytest.fixture(scope="session")
def r32_gg():
    """A shared generator over the R32 tables (the second target)."""
    return GrahamGlanvilleCodeGenerator(target="r32")


@pytest.fixture(scope="session")
def gg_norev():
    """Generator without reversed operators (the E4 ablation grammar)."""
    return GrahamGlanvilleCodeGenerator(reversed_ops=False)
