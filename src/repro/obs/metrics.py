"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The model is deliberately the Prometheus one -- named metric *families*
carrying labelled child series -- because that is what the exporters in
:mod:`repro.obs.export` emit and what every scraping stack understands:

* :class:`Counter` -- monotonically increasing totals (cache hits,
  halves materialisations, limit trips, injected faults).  Instance
  holders (one cache, one engine) take a labelled child and expose its
  value through their stats types, so per-instance stats are *views
  over* the registry, never parallel bookkeeping.
* :class:`Gauge` -- point-in-time levels (cache entries, held bytes).
* :class:`Histogram` -- fixed cumulative buckets plus sum and count
  (GEMM wall time and nnz, batch group sizes).  Buckets are fixed at
  construction.

Everything is thread-safe: one lock per child series, one registry
lock for family creation.  There is no background thread and no I/O --
reading happens only when an exporter snapshots the registry.

The module is import-cycle-free by construction: it depends only on the
standard library and :mod:`repro.hin.errors`, so any subsystem may
instrument itself without ordering concerns.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from ..hin.errors import QueryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "instance_label",
]

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default wall-time buckets (seconds): 100us .. 5s, log-ish spacing.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0
)
#: Default size buckets (nonzeros / cells): powers of ten.
NNZ_BUCKETS: Tuple[float, ...] = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0
)
#: Default batch group-size buckets: powers of two.
GROUP_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0
)


class Counter:
    """One monotonically increasing series.

    ``reset()`` exists for instance holders whose public API promises a
    counter restart (e.g. :meth:`PathMatrixCache.clear`); exporters see
    the reset like a process restart, which Prometheus rate functions
    already tolerate.
    """

    def __init__(self, labels: LabelPairs = ()) -> None:
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the series."""
        if amount < 0:
            raise QueryError(
                f"counters only increase; inc({amount}) is negative"
            )
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        """Zero the series (instance-holder restart semantics)."""
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        with self._lock:
            return self._value


class Gauge:
    """One point-in-time level series."""

    def __init__(self, labels: LabelPairs = ()) -> None:
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the level."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the level by ``-amount``."""
        self.inc(-amount)

    def reset(self) -> None:
        """Zero the level."""
        self.set(0.0)

    @property
    def value(self) -> float:
        """Current level."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket cumulative histogram with sum and count.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    always exists, so every observation lands somewhere.  Bucket counts
    are cumulative at export time (the Prometheus contract); internally
    one non-cumulative slot per bound keeps :meth:`observe` O(log n).
    """

    def __init__(
        self, buckets: Sequence[float], labels: LabelPairs = ()
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise QueryError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise QueryError(
                f"histogram buckets must be strictly increasing: {bounds}"
            )
        self.labels = labels
        self.bounds = bounds
        self._lock = threading.Lock()
        self._slots = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        slot = bisect.bisect_left(self.bounds, float(value))
        with self._lock:
            self._slots[slot] += 1
            self._sum += float(value)
            self._count += 1

    def reset(self) -> None:
        """Zero all buckets, the sum and the count."""
        with self._lock:
            self._slots = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``inf`` last."""
        with self._lock:
            slots = list(self._slots)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, slot in zip(self.bounds, slots):
            running += slot
            out.append((bound, running))
        out.append((float("inf"), running + slots[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile by intra-bucket interpolation.

        The ``histogram_quantile`` estimate Prometheus applies server
        side, computed locally: find the bucket the target rank lands
        in, then interpolate linearly between its bounds (the first
        bucket interpolates from 0).  Observations above the last
        finite bound clamp to that bound -- the histogram stores no
        upper edge for ``+Inf``.  Returns NaN while the histogram is
        empty, so callers can tell "no data" from "fast".
        """
        if not 0.0 <= q <= 1.0:
            raise QueryError(f"quantile q must be in [0, 1], got {q}")
        with self._lock:
            slots = list(self._slots)
            count = self._count
        if count == 0:
            return float("nan")
        rank = q * count
        cumulative = 0
        for position, slot in enumerate(slots[:-1]):
            previous = cumulative
            cumulative += slot
            if cumulative >= rank:
                lower = self.bounds[position - 1] if position else 0.0
                upper = self.bounds[position]
                if slot == 0:  # pragma: no cover - defensive
                    return upper
                fraction = (rank - previous) / slot
                return lower + (upper - lower) * fraction
        return self.bounds[-1]


#: Any concrete child series a family can hold.
MetricChild = Union[Counter, Gauge, Histogram]

#: The kinds that support ``inc`` (histograms only observe).
_Incrementable = Union[Counter, Gauge]

_KINDS: Dict[str, Callable[..., MetricChild]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricFamily:
    """All series sharing one metric name (and, for histograms, buckets).

    :meth:`labels` returns (creating on first use) the child series for
    one label combination; calling :meth:`inc` / :meth:`set` /
    :meth:`observe` on the family addresses the unlabelled child, so
    label-free metrics need no ceremony.
    """

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise QueryError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[LabelPairs, MetricChild] = {}

    def labels(self, **labels: str) -> MetricChild:
        """The child series for one label combination (created once)."""
        key: LabelPairs = tuple(
            sorted((k, str(v)) for k, v in labels.items())
        )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    if self.buckets is None:  # pragma: no cover
                        raise QueryError(
                            f"histogram {self.name!r} has no buckets"
                        )
                    child = Histogram(self.buckets, labels=key)
                else:
                    child = _KINDS[self.kind](labels=key)
                self._children[key] = child
            return child

    def children(self) -> List[MetricChild]:
        """Snapshot of every child series, label-sorted."""
        with self._lock:
            return [
                self._children[key] for key in sorted(self._children)
            ]

    # -- unlabelled-child conveniences ---------------------------------
    def inc(self, amount: float = 1.0) -> None:
        """``labels().inc(amount)`` (counters and gauges)."""
        cast(_Incrementable, self.labels()).inc(amount)

    def set(self, value: float) -> None:
        """``labels().set(value)`` (gauges)."""
        cast(Gauge, self.labels()).set(value)

    def dec(self, amount: float = 1.0) -> None:
        """``labels().dec(amount)`` (gauges)."""
        cast(Gauge, self.labels()).dec(amount)

    def observe(self, value: float) -> None:
        """``labels().observe(value)`` (histograms)."""
        cast(Histogram, self.labels()).observe(value)

    @property
    def value(self) -> float:
        """``labels().value`` of the unlabelled child."""
        return cast(_Incrementable, self.labels()).value

    def reset(self) -> None:
        """Reset every child series of the family."""
        for child in self.children():
            child.reset()


class MetricsRegistry:
    """A named collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create and
    idempotent, so every instrumentation site can declare the family it
    needs without import-order coordination; re-declaring a name under
    a different kind (or different histogram buckets) is a programming
    error and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        help: str,
        kind: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help, kind, buckets=buckets)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise QueryError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {kind}"
            )
        if kind == "histogram" and buckets is not None and family.buckets != tuple(buckets):
            raise QueryError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets}, requested {tuple(buckets)}"
            )
        return family

    def counter(self, name: str, help: str = "") -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, help, "counter")

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, help, "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = SECONDS_BUCKETS,
    ) -> MetricFamily:
        """Get or create a histogram family with fixed ``buckets``."""
        return self._family(name, help, "histogram", buckets=buckets)

    def families(self) -> List[MetricFamily]:
        """Snapshot of every family, name-sorted."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Reset every series in every family (tests and benchmarks)."""
        for family in self.families():
            family.reset()


#: The process-wide registry every subsystem instruments into.
REGISTRY = MetricsRegistry()

_INSTANCE_IDS = itertools.count()
_INSTANCE_LOCK = threading.Lock()


def instance_label(prefix: str) -> str:
    """A short process-unique label value (``"c0"``, ``"e3"``, ...).

    Instance holders (each cache, each engine) label their child series
    with one of these so per-instance stats views and the exported
    series stay distinguishable.  Sequential, not ``id()``-derived, so
    labels never collide through address reuse.
    """
    with _INSTANCE_LOCK:
        return f"{prefix}{next(_INSTANCE_IDS)}"
