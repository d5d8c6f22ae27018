"""Deterministic fault injection for robustness testing.

Production faults -- a slow step, a crashed multiplication, a torn or
corrupted read -- are hard to reproduce from the outside and ugly to
simulate with monkeypatching.  This module gives the backend executor
and :class:`~repro.core.store.MatrixStore` explicit *injection points*:
each names a site (``"executor.step"``, ``"store.read"``,
``"store.write"``; the ``SITE_*`` names of :mod:`repro.core.scope`,
re-exported here) and consults the ambient
:class:`~repro.core.scope.ExecutionContext`'s :class:`FaultPlan`
every time it is reached.

A :class:`FaultPlan` is a list of :class:`FaultSpec` records matched by
``(site, occurrence)``, so "fail the 3rd multiplication" or "corrupt the
1st store read" is one declarative line, reproducible run after run.
:meth:`FaultPlan.sample` derives a spec list from a seed for randomised
robustness sweeps that remain replayable.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.scope import (
    SITE_EXECUTOR_STEP,
    SITE_STORE_READ,
    SITE_STORE_WRITE,
    ambient_faults,
)
from ..hin.errors import InjectedFaultError, QueryError
from ..obs.metrics import REGISTRY

_FAULTS_FIRED = REGISTRY.counter(
    "repro_fault_injections_total",
    "Injected faults that triggered, by site and action.",
)

__all__ = [
    "SITE_EXECUTOR_STEP",
    "SITE_STORE_READ",
    "SITE_STORE_WRITE",
    "FaultSpec",
    "FaultPlan",
    "ambient_faults",
]

_SITES = (SITE_EXECUTOR_STEP, SITE_STORE_READ, SITE_STORE_WRITE)
_ACTIONS = ("fail", "delay", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    site:
        Injection point name (one of the ``SITE_*`` constants).
    occurrence:
        0-based index of the firing at that site this spec targets.
    action:
        ``"fail"`` raises (:class:`~repro.hin.errors.InjectedFaultError`,
        or :class:`OSError` when ``transient`` -- the retryable kind IO
        retry loops must absorb); ``"delay"`` sleeps ``delay_s`` seconds;
        ``"corrupt"`` flips bytes in the payload passing the site.
    delay_s:
        Sleep duration for ``"delay"`` actions.
    transient:
        ``"fail"`` only: raise :class:`OSError` (simulating a transient
        IO error) instead of the terminal typed fault.
    """

    site: str
    occurrence: int
    action: str
    delay_s: float = 0.0
    transient: bool = False

    def __post_init__(self) -> None:
        if self.site not in _SITES:
            raise QueryError(
                f"unknown fault site {self.site!r} (expected one of {_SITES})"
            )
        if self.action not in _ACTIONS:
            raise QueryError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {_ACTIONS})"
            )
        if self.occurrence < 0:
            raise QueryError(
                f"occurrence must be >= 0, got {self.occurrence}"
            )
        if self.delay_s < 0:
            raise QueryError(f"delay_s must be >= 0, got {self.delay_s}")


class FaultPlan:
    """A deterministic schedule of injected faults.

    The plan keeps one monotonically increasing counter per site; every
    time an instrumented site is reached it calls :meth:`fire` (or
    :meth:`filter` for payload-carrying sites), the counter advances,
    and any spec matching ``(site, occurrence)`` triggers.  Determinism
    therefore follows from the program's own execution order -- no
    clocks, no randomness at fire time.

    Examples
    --------
    >>> from repro.runtime.faults import FaultPlan, FaultSpec
    >>> plan = FaultPlan([FaultSpec("executor.step", 1, "fail")])
    >>> plan.fire("executor.step")         # occurrence 0: no fault
    >>> plan.fire("executor.step")         # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
    repro.hin.errors.InjectedFaultError: injected fault at executor.step#1
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._counters: Dict[str, int] = {}
        # Sites fire from worker threads too (fan_out shares one
        # ambient context across the pool), so the per-site counters
        # must advance atomically.
        self._counter_lock = threading.Lock()
        #: Chronological ``(site, occurrence, action)`` log of every
        #: fault that actually triggered (for test assertions).
        self.fired: List[Tuple[str, int, str]] = []

    @classmethod
    def sample(
        cls,
        seed: int,
        n_faults: int = 1,
        sites: Sequence[str] = (SITE_EXECUTOR_STEP,),
        max_occurrence: int = 8,
        actions: Sequence[str] = ("fail", "delay"),
        delay_s: float = 0.01,
    ) -> "FaultPlan":
        """A seed-derived plan: same seed, same faults, every run."""
        rng = random.Random(seed)
        specs = [
            FaultSpec(
                site=rng.choice(tuple(sites)),
                occurrence=rng.randrange(max_occurrence),
                action=rng.choice(tuple(actions)),
                delay_s=delay_s,
            )
            for _ in range(n_faults)
        ]
        return cls(specs)

    def reset(self) -> None:
        """Rewind all site counters and the fired log (specs are kept)."""
        with self._counter_lock:
            self._counters.clear()
            self.fired.clear()

    def occurrences(self, site: str) -> int:
        """How many times ``site`` has been reached so far."""
        return self._counters.get(site, 0)

    def _advance(self, site: str) -> int:
        with self._counter_lock:
            occurrence = self._counters.get(site, 0)
            self._counters[site] = occurrence + 1
            return occurrence

    def _matching(self, site: str, occurrence: int) -> List[FaultSpec]:
        return [
            spec
            for spec in self.specs
            if spec.site == site and spec.occurrence == occurrence
        ]

    def fire(self, site: str) -> None:
        """Reach a payload-less site: may sleep or raise."""
        occurrence = self._advance(site)
        for spec in self._matching(site, occurrence):
            self._trigger(spec, site, occurrence)

    def filter(self, site: str, payload: bytes) -> bytes:
        """Reach a payload-carrying site: may sleep, raise, or corrupt."""
        occurrence = self._advance(site)
        out = payload
        for spec in self._matching(site, occurrence):
            if spec.action == "corrupt":
                self.fired.append((site, occurrence, "corrupt"))
                _FAULTS_FIRED.labels(site=site, action="corrupt").inc()
                out = _flip_bytes(out)
            else:
                self._trigger(spec, site, occurrence)
        return out

    def _trigger(self, spec: FaultSpec, site: str, occurrence: int) -> None:
        if spec.action == "delay":
            self.fired.append((site, occurrence, "delay"))
            _FAULTS_FIRED.labels(site=site, action="delay").inc()
            time.sleep(spec.delay_s)
        elif spec.action == "fail":
            self.fired.append((site, occurrence, "fail"))
            _FAULTS_FIRED.labels(site=site, action="fail").inc()
            if spec.transient:
                raise OSError(
                    f"injected transient IO fault at {site}#{occurrence}"
                )
            raise InjectedFaultError(site, occurrence)
        elif spec.action == "corrupt":
            # Corrupt at a payload-less site degenerates to a hard fail:
            # there is nothing to corrupt, but the fault must not be
            # silently dropped.
            self.fired.append((site, occurrence, "fail"))
            _FAULTS_FIRED.labels(site=site, action="fail").inc()
            raise InjectedFaultError(
                site, occurrence, "corrupt action at payload-less site"
            )


def _flip_bytes(payload: bytes) -> bytes:
    """Deterministically damage a payload (first byte XOR 0xFF).

    An empty payload is replaced by one junk byte so corruption is never
    a no-op.
    """
    if not payload:
        return b"\xff"
    return bytes([payload[0] ^ 0xFF]) + payload[1:]
