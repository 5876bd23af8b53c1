"""Seeded inputs: the edit generator and the serve-mixed traffic mix."""

import pytest

import inputs
from repro.frontend import parse
from repro.result_cache import canonical_function_texts
from repro.workloads import generate_workload

SOURCE = generate_workload(functions=12, statements_per_function=6, seed=5)


def functions(source):
    return canonical_function_texts(parse(source))


def test_edits_change_exactly_the_chosen_functions():
    names = list(functions(SOURCE))
    chosen = inputs.edit_order(42, names)[:4]
    edited = SOURCE
    for number, name in enumerate(chosen, start=1):
        edited = inputs.apply_edit(edited, name, number)
    before, after = functions(SOURCE), functions(edited)
    assert {n for n in names if before[n] != after[n]} == set(chosen)
    assert edited.count("return x + y + z + ") == 4


def test_edit_order_is_a_seeded_permutation():
    names = list(functions(SOURCE))
    order = inputs.edit_order(42, names)
    assert sorted(order) == sorted(names)
    assert order == inputs.edit_order(42, names)
    assert order != inputs.edit_order(43, names)


def test_editing_an_unknown_function_is_refused():
    with pytest.raises(ValueError):
        inputs.apply_edit(SOURCE, "nowhere", 1)


def test_serve_mix_is_deterministic_per_seed():
    first, again, other = (inputs.serve_plan(seed) for seed in (9, 9, 10))
    assert first == again
    assert first.requests != other.requests


def test_serve_mix_is_half_hot_half_fresh():
    plan = inputs.serve_plan(9)
    kinds = [kind for kind, _ in plan.requests]
    assert len(kinds) == inputs.SERVE_REQUESTS
    assert kinds.count("hot") == kinds.count("fresh")
    assert len(set(plan.hot)) == inputs.HOT_UNITS
    fresh = [source for kind, source in plan.requests if kind == "fresh"]
    assert len(set(fresh)) == len(fresh)
    assert not set(fresh) & set(plan.hot)
    assert all(source in plan.hot
               for kind, source in plan.requests if kind == "hot")
    assert len(plan.fresh_checks) == inputs.FRESH_CHECKS
    assert all(plan.requests[i][0] == "fresh" for i in plan.fresh_checks)
