"""Counters and histograms for the compile pipeline.

The registry answers "how many" and "how long" questions the spans
don't: shifts/reduces per compile, packed-vs-dict fallbacks, cache
hits/misses/quarantines, recovery-ladder rung usage.  Every event site
in the pipeline fires at per-function or per-cache-consult granularity
— never per token — so an *enabled* registry costs a dict lookup and an
integer add per event; a *disabled* one hands out shared null
instruments whose methods are empty (and the :func:`inc`/:func:`observe`
conveniences return after one attribute test).

Snapshots are plain dataclasses of primitives: picklable, so process
pool workers :meth:`~MetricsRegistry.drain` their registry after each
task and ship the delta to the parent, which :meth:`absorb`\\ s it.
Merging is associative and commutative — counter values add, histogram
states add bucket-wise — so any interleaving of worker deltas yields
the same totals.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default histogram boundaries, in seconds: decade buckets from 1 µs to
#: 10 s (an upper catch-all bucket holds anything slower).
SECONDS_BOUNDS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

ENV_DISABLE = "REPRO_OBS_METRICS"
_FALSEY = {"0", "off", "false", "no"}


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """A fixed-boundary histogram with count/sum/min/max sidecars."""

    __slots__ = ("name", "bounds", "buckets", "count", "total",
                 "vmin", "vmax", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 bounds: Sequence[float] = SECONDS_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self._lock = lock

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self.buckets[index] += 1
            self.count += 1
            self.total += value
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def state(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
        }


class _NullInstrument:
    """Shared stand-in when the registry is disabled."""

    __slots__ = ()
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()


@dataclass
class MetricsSnapshot:
    """A picklable, mergeable point-in-time copy of a registry."""

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """In-place merge of *other*; returns self for chaining."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, state in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = {
                    "bounds": list(state["bounds"]),
                    "buckets": list(state["buckets"]),
                    "count": state["count"], "total": state["total"],
                    "min": state["min"], "max": state["max"],
                }
                continue
            if tuple(mine["bounds"]) != tuple(state["bounds"]):
                raise ValueError(
                    f"histogram {name!r}: bucket boundaries differ"
                )
            mine["buckets"] = [
                a + b for a, b in zip(mine["buckets"], state["buckets"])
            ]
            mine["count"] += state["count"]
            mine["total"] += state["total"]
            for key, pick in (("min", min), ("max", max)):
                values = [v for v in (mine[key], state[key]) if v is not None]
                mine[key] = pick(values) if values else None
        return self

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: dict(state)
                for name, state in sorted(self.histograms.items())
            },
        }

    @property
    def empty(self) -> bool:
        return not self.counters and not self.histograms


class MetricsRegistry:
    """Lazily-created named counters and histograms behind one lock."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ---------------------------------------------------------- instruments
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    name, Counter(name, self._lock)
                )
        return counter

    def histogram(self, name: str,
                  bounds: Sequence[float] = SECONDS_BOUNDS) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, self._lock, bounds)
                )
        return histogram

    def inc(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counter(name).inc(amount)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = SECONDS_BOUNDS) -> None:
        if self.enabled:
            self.histogram(name, bounds).observe(value)

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters={
                    name: c.value for name, c in self._counters.items()
                    if c.value
                },
                histograms={
                    name: h.state() for name, h in self._histograms.items()
                    if h.count
                },
            )

    def drain(self) -> MetricsSnapshot:
        """Snapshot then reset — the per-job delta a worker ships."""
        snap = self.snapshot()
        self.reset()
        return snap

    def absorb(self, snapshot: Optional[MetricsSnapshot]) -> None:
        """Fold a worker's delta into this registry."""
        if snapshot is None or snapshot.empty or not self.enabled:
            return
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, state in snapshot.histograms.items():
            histogram = self.histogram(name, tuple(state["bounds"]))
            with self._lock:
                if tuple(histogram.bounds) != tuple(state["bounds"]):
                    raise ValueError(
                        f"histogram {name!r}: bucket boundaries differ"
                    )
                histogram.buckets = [
                    a + b for a, b in zip(histogram.buckets, state["buckets"])
                ]
                histogram.count += state["count"]
                histogram.total += state["total"]
                if state["min"] is not None:
                    histogram.vmin = min(histogram.vmin, state["min"])
                if state["max"] is not None:
                    histogram.vmax = max(histogram.vmax, state["max"])

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


def _default_enabled() -> bool:
    value = os.environ.get(ENV_DISABLE)
    if value is None:
        return True
    return value.strip().lower() not in _FALSEY


#: The process-wide registry every pipeline site records into.
REGISTRY = MetricsRegistry(enabled=_default_enabled())


def _reinit_after_fork() -> None:
    """A fork can land while another thread (the compile server's
    executor) holds the registry lock — the child would inherit it
    locked forever.  Hand the child a fresh lock and empty instruments;
    forked pool/supervisor workers reset their registry on first use
    anyway, and nothing outside the registry caches instrument objects.
    """
    REGISTRY._lock = threading.Lock()
    REGISTRY._counters.clear()
    REGISTRY._histograms.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)


def metrics() -> MetricsRegistry:
    return REGISTRY


def set_metrics_enabled(enabled: bool) -> None:
    REGISTRY.enabled = enabled
