"""The percentile rule and the metric names the benchmark prints."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import run
from metrics import (
    END_TO_END, MIN_BEYOND, PER_LAYER, percentile, windowed_rates,
)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_p99_of_1000_has_ten_samples_beyond():
    samples = list(range(1000))
    value = percentile(samples, 0.99)
    assert value == 989
    assert sum(1 for s in samples if s > value) == MIN_BEYOND


def test_percentile_refused_with_fewer_than_ten_beyond():
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(19)), 0.5) is None
    assert percentile([], 0.5) is None


def test_median_needs_twenty_samples_as_a_percentile():
    samples = [float(s) for s in reversed(range(20))]
    assert percentile(samples, 0.5) == 9.0


@pytest.mark.parametrize("q", [0.0, 1.0, 1.5])
def test_percentile_rejects_quantiles_outside_the_open_interval(q):
    with pytest.raises(ValueError):
        percentile([1.0] * 100, q)


def test_windowed_rates_follow_completion_order():
    finished = [2.0, 1.0, 4.0, 3.0, 4.5]
    sizes = [10, 10, 30, 30, 99]
    # windows {1.0, 2.0} and {3.0, 4.0}; the lone 4.5 is dropped
    assert windowed_rates(finished, sizes, 2) == [10.0, 30.0]


def declared(kind):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}


def test_benchmark_json_declares_exactly_the_emitted_metrics():
    assert declared("end_to_end") == END_TO_END
    assert declared("per_layer") == PER_LAYER
    names = [entry["name"] for kind in ("end_to_end", "per_layer")
             for entry in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_every_printed_metric_name_is_declared():
    result = {
        "attempted": 1, "failed": 0,
        "operations": {"count": 3, "p50_s": 1.0},
        "e2e": dict.fromkeys(END_TO_END, 1.0),
        "layers": dict.fromkeys(PER_LAYER, 1.0),
        "samples": {},
    }
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.print_table("unit-cold", result)
    table_names = {line.split()[0] for line in printed.getvalue().splitlines()
                   if not line.startswith("#")}
    json_names = set(run.metric_block(END_TO_END, result["e2e"])) | set(
        run.metric_block(PER_LAYER, result["layers"])
    )
    allowed = set(declared("end_to_end")) | set(declared("per_layer"))
    assert table_names == json_names == allowed
