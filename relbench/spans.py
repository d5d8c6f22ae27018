"""In-memory span recorder for the traced run.

Each span has a name, a layer (``None`` for an operation's root), start
and end (``time.perf_counter`` seconds), its parent's id and the id of
the operation it belongs to; every span of one operation shares that
operation id.  Spans are kept in memory and written out once, at the end
of the run.

When a program tracer is given (``repro.obs.trace``), every benchmark
span also opens a program span of the same name, so the spans the
program records itself (``batch.score_group``,
``engine.materialise_halves``, ``plan.step``, ``resilience.attempt``)
nest under the benchmark's.  The program subtrees of the first
:data:`KEEP_PROGRAM_TREES` operations are kept as samples.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional

KEEP_PROGRAM_TREES = 32


class Recorder:
    def __init__(self, program_trace=None) -> None:
        self.spans: List[dict] = []
        self.program_trees: List[dict] = []
        self._stack: List[dict] = []
        self._program = program_trace
        self._ops = 0

    def _open(self, name: str, layer: Optional[str], op: int) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "op": op, "parent": parent, "start": 0.0, "end": 0.0}
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def op(self, name: str) -> Iterator[dict]:
        """The root span of one operation; opens a new operation id."""
        self._ops += 1
        record = self._open(name, None, self._ops)
        with self._program_span(name) as program:
            with self._timed(record):
                yield record
        if program is not None and len(self.program_trees) < KEEP_PROGRAM_TREES:
            self.program_trees.append(program.to_dict())

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict]:
        """A span around one call into ``layer``."""
        record = self._open(name, layer, self._stack[-1]["op"])
        with self._program_span(name):
            with self._timed(record):
                yield record

    def add(self, name: str, layer: str, start: float, end: float) -> dict:
        """Record an externally timed span as its own operation."""
        self._ops += 1
        record = self._open(name, layer, self._ops)
        record["start"], record["end"] = start, end
        return record

    @contextlib.contextmanager
    def _timed(self, record: dict) -> Iterator[None]:
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _program_span(self, name: str):
        if self._program is None:
            return contextlib.nullcontext(None)
        return self._program.span(name)

    # -- analysis -----------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per layer, each span minus its children's cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            own = record["end"] - record["start"] - child_time[record["id"]]
            totals[record["layer"] or "(root)"] += own
        return dict(totals)

    def unattributed_share(self) -> float:
        """Share of the traced operations' wall time that no layer span
        covers (an operation root's own time; a root that carries a
        layer itself, such as a client-timed request, is covered)."""
        roots = [r for r in self.spans if r["parent"] is None]
        total = sum(r["end"] - r["start"] for r in roots)
        return self.self_times().get("(root)", 0.0) / total if total else 0.0

    def per_op(self) -> Dict[int, Dict[str, float]]:
        """``{op id: {span name: summed seconds}}``, root under ``"op"``."""
        ops: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for record in self.spans:
            key = "op" if record["parent"] is None else record["name"]
            ops[record["op"]][key] += record["end"] - record["start"]
        return ops

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "self_seconds_by_layer": self.self_times(),
            "program_trees": self.program_trees,
        }
