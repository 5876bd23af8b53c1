"""The compile service's admission-side circuit breaker.

:class:`CircuitBreaker` tracks failure events per *class* (``crash``
for worker deaths and hangs, which the service's
:class:`~repro.workers.WorkerSupervisor` reports through its
``on_failure`` callback, and ``deadline`` for request deadline misses)
in a sliding window and trips open when a class exceeds its threshold,
shedding load with structured ``SERVER-CIRCUIT-OPEN`` errors instead of
queueing onto a failing backend; after a cooldown it goes half-open and
admits one trial request whose outcome closes or reopens it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from ..obs.metrics import REGISTRY


@dataclass
class BreakerPolicy:
    """One failure class's trip rule: *threshold* failures within
    *window* seconds open the breaker; after *cooldown* seconds it goes
    half-open and admits one trial request."""

    threshold: int = 5
    window: float = 30.0
    cooldown: float = 5.0


#: Failure classes the service distinguishes: worker deaths/hangs vs
#: request deadline misses.  Deadlines get a higher threshold — a burst
#: of slow requests is load, not necessarily a failing backend.
DEFAULT_POLICIES: Dict[str, BreakerPolicy] = {
    "crash": BreakerPolicy(threshold=5, window=30.0, cooldown=5.0),
    "deadline": BreakerPolicy(threshold=8, window=30.0, cooldown=5.0),
}


class CircuitBreaker:
    """Per-failure-class breaker: closed → open → half-open → closed.

    ``admit()`` is consulted at admission: ``None`` admits; a class
    name means shed (the caller answers ``SERVER-CIRCUIT-OPEN``).  In
    half-open state exactly one request is admitted as the trial; its
    recorded success closes the class, a recorded failure reopens it.
    *clock* is injectable for deterministic tests.
    """

    def __init__(
        self,
        policies: Optional[Dict[str, BreakerPolicy]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self.policies = dict(DEFAULT_POLICIES)
        if policies:
            self.policies.update(policies)
        self._events: Dict[str, Deque[float]] = {
            cls: deque() for cls in self.policies
        }
        self._state: Dict[str, str] = {
            cls: "closed" for cls in self.policies
        }
        self._opened_at: Dict[str, float] = {
            cls: 0.0 for cls in self.policies
        }
        self._trial: Dict[str, bool] = {
            cls: False for cls in self.policies
        }
        self.opens = 0
        self.shed = 0

    def admit(self) -> Optional[str]:
        """``None`` to admit, else the open class this request is shed
        for."""
        now = self._clock()
        for cls in self.policies:
            state = self._state[cls]
            if state == "closed":
                continue
            if state == "open":
                if now - self._opened_at[cls] < self.policies[cls].cooldown:
                    self.shed += 1
                    return cls
                self._state[cls] = "half-open"
                self._trial[cls] = False
            if self._trial[cls]:
                self.shed += 1
                return cls  # a trial is already in flight
            self._trial[cls] = True  # this request is the trial
        return None

    def record_failure(self, cls: str) -> None:
        if cls not in self._state:
            return
        now = self._clock()
        if self._state[cls] == "half-open":
            self._open(cls, now)  # the trial failed
            return
        if self._state[cls] == "open":
            return
        events = self._events[cls]
        events.append(now)
        window = self.policies[cls].window
        while events and now - events[0] > window:
            events.popleft()
        if len(events) >= self.policies[cls].threshold:
            self._open(cls, now)

    def record_success(self, cls: str) -> None:
        if cls in self._state and self._state[cls] == "half-open":
            self._state[cls] = "closed"
            self._trial[cls] = False
            self._events[cls].clear()

    def _open(self, cls: str, now: float) -> None:
        self._state[cls] = "open"
        self._opened_at[cls] = now
        self._trial[cls] = False
        self._events[cls].clear()
        self.opens += 1
        REGISTRY.inc("server.breaker.opens")

    def state(self, cls: str) -> str:
        return self._state.get(cls, "closed")

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": dict(self._state),
            "opens": self.opens,
            "shed": self.shed,
        }
