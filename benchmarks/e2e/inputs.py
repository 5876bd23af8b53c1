"""Every input of the end-to-end benchmark, derived from one seed.

Each kind of input draws from its own named random stream, so adding
draws to one (say, a longer serve mix) never changes another (the unit
or the edit order) for the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.workloads import generate_workload

#: The batch workloads' unit: 96 functions of about 80 statements,
#: about 112k tokens.
UNIT_SHAPE = dict(functions=24, statements_per_function=20, scale=4)

#: The correctness sample: small units whose interpreter run stays cheap.
ORACLE_UNITS = 8
ORACLE_SHAPE = dict(functions=6, statements_per_function=8)

#: The service mix: small units, half from a hot set the result cache
#: answers, half never seen before.
SERVE_SHAPE = dict(functions=3, statements_per_function=6)
SERVE_REQUESTS = 1000
HOT_UNITS = 8
FRESH_CHECKS = 16

#: Every generated function ends with this statement; an edit appends a
#: constant to it, which changes that function's code and nothing else.
RETURN = "return x + y + z;"


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _unit_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def unit_source(seed: int) -> str:
    return generate_workload(seed=seed, **UNIT_SHAPE)


def oracle_sources(seed: int) -> List[str]:
    rng = _stream(seed, "oracle")
    return [
        generate_workload(seed=_unit_seed(rng), **ORACLE_SHAPE)
        for _ in range(ORACLE_UNITS)
    ]


def edit_order(seed: int, names: Sequence[str]) -> List[str]:
    """The functions to edit, in edit order: a seeded permutation."""
    order = list(names)
    _stream(seed, "edits").shuffle(order)
    return order


def apply_edit(source: str, name: str, number: int) -> str:
    """*source* with function *name* returning ``x + y + z + number``."""
    header = source.find(f"\nint {name}(")
    end = source.find("\n}\n", header + 1)
    at = source.find(RETURN, header + 1, end)
    if header < 0 or end < 0 or at < 0:
        raise ValueError(f"no editable return in function {name!r}")
    edited = f"return x + y + z + {number};"
    return source[:at] + edited + source[at + len(RETURN):]


@dataclass
class ServePlan:
    hot: List[str]
    #: (class, source) per request, in send order; class is "hot" or
    #: "fresh" and is known by construction.
    requests: List[Tuple[str, str]]
    #: Indices into ``requests`` of the fresh units checked byte for byte.
    fresh_checks: List[int]


def serve_plan(seed: int) -> ServePlan:
    rng = _stream(seed, "serve")
    used = set()

    def distinct_unit() -> str:
        unit_seed = _unit_seed(rng)
        while unit_seed in used:
            unit_seed = _unit_seed(rng)
        used.add(unit_seed)
        return generate_workload(seed=unit_seed, **SERVE_SHAPE)

    hot = [distinct_unit() for _ in range(HOT_UNITS)]
    kinds = ["hot", "fresh"] * (SERVE_REQUESTS // 2)
    rng.shuffle(kinds)
    requests = [
        (kind, rng.choice(hot) if kind == "hot" else distinct_unit())
        for kind in kinds
    ]
    fresh = [i for i, (kind, _) in enumerate(requests) if kind == "fresh"]
    return ServePlan(hot, requests, sorted(rng.sample(fresh, FRESH_CHECKS)))
