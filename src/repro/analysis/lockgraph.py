"""RPR004: static lock-discipline analysis over thread-safe classes.

:class:`~repro.core.cache.PathMatrixCache`,
:class:`~repro.runtime.limits.LimitTracker` and
:class:`~repro.runtime.faults.FaultPlan` are thread-safe by
hand-applied convention: every mutation of ``_``-prefixed shared state
happens under ``with self._lock``.  This module machine-checks that
convention:

* A class is **lock-disciplined** when a method assigns a
  ``threading.Lock()`` / ``RLock()`` to a ``self._*`` attribute (or its
  docstring says "thread-safe").
* Within such a class, every mutation of a ``_``-prefixed ``self``
  attribute must be *lock-held*: lexically inside ``with self.<lock>``,
  or inside a private helper that is **only ever called** with the lock
  held.  The latter is computed as a fixpoint over the intra-class call
  graph ("guaranteed-held" propagation), so the
  ``lookup() -> _touch()`` pattern needs no annotations.
* While scanning, the rule records a **lock-acquisition graph**
  (acquiring ``B`` while holding ``A`` adds the edge ``A -> B``,
  including acquisitions made by callees); :meth:`finalize` reports
  every cycle -- the static signature of a potential ABBA deadlock.

Known limits (by design, documented in ``docs/static_analysis.md``):
locks passed around as locals are invisible -- such sites are
baselined with a justification -- and the call graph is intra-class
only.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .core import BaseRule, Finding, SourceFile, dotted_name, register

__all__ = ["LockDisciplineRule"]

#: Method names on a ``self._x`` receiver that mutate the receiver.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: Methods that run before the object is shared (never flagged).
CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


@dataclass
class _Mutation:
    """One write to a ``_``-prefixed shared attribute."""

    attr: str
    line: int
    held: FrozenSet[str]


@dataclass
class _CallSite:
    """One ``self.<method>()`` call inside the class."""

    callee: str
    line: int
    held: FrozenSet[str]


@dataclass
class _Acquisition:
    """One ``with self.<lock>`` entry."""

    lock: str
    line: int
    held: FrozenSet[str]


@dataclass
class _MethodInfo:
    """Everything the analysis recorded about one method body."""

    mutations: List[_Mutation] = field(default_factory=list)
    calls: List[_CallSite] = field(default_factory=list)
    acquisitions: List[_Acquisition] = field(default_factory=list)


@dataclass
class _ClassInfo:
    """One lock-disciplined class, fully scanned."""

    name: str
    rel: str
    line: int
    lock_attrs: FrozenSet[str]
    methods: Dict[str, _MethodInfo]


@register
class LockDisciplineRule(BaseRule):
    """RPR004: shared-state mutations must hold the class lock; the
    acquisition graph must be acyclic.

    See the module docstring of :mod:`repro.analysis.lockgraph` for the
    exact model (guaranteed-held propagation, intra-class call graph,
    cycle detection in :meth:`finalize`).
    """

    rule_id = "RPR004"
    summary = (
        "unlocked mutation of shared state, or a lock-order cycle, in a "
        "thread-safe class"
    )

    def __init__(self) -> None:
        #: ``A -> B`` acquisition edges, with one witness site each.
        self._edges: Dict[Tuple[str, str], Tuple[str, int]] = {}

    def check(self, file: SourceFile) -> List[Finding]:
        """Per-file pass: flag unlocked mutations, collect lock edges."""
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _scan_class(node, file.rel)
            if info is None:
                continue
            findings.extend(self._check_class(file, info))
        return findings

    def finalize(self) -> List[Finding]:
        """Whole-project pass: report cycles in the acquisition graph."""
        findings: List[Finding] = []
        for cycle in _find_cycles(set(self._edges)):
            members = set(cycle)
            witness = min(
                edge
                for edge in self._edges
                if edge[0] in members and edge[1] in members
            )
            rel, line = self._edges[witness]
            chain = " -> ".join([*cycle, cycle[0]])
            findings.append(
                Finding(
                    path=rel,
                    line=line,
                    rule=self.rule_id,
                    severity="error",
                    message=(
                        f"lock-order cycle: {chain} (acquire these locks "
                        "in one consistent order to rule out ABBA "
                        "deadlock)"
                    ),
                )
            )
        self._edges.clear()
        return findings

    # ------------------------------------------------------------------
    # per-class analysis
    # ------------------------------------------------------------------
    def _check_class(
        self, file: SourceFile, info: _ClassInfo
    ) -> List[Finding]:
        guaranteed = _guaranteed_held(info)
        acquires = _acquires_closure(info)
        findings: List[Finding] = []
        for method_name, method in sorted(info.methods.items()):
            base = guaranteed.get(method_name, frozenset())
            for mutation in method.mutations:
                if mutation.attr in info.lock_attrs:
                    continue
                if not (mutation.held | base):
                    locks = ", ".join(
                        f"self.{name}" for name in sorted(info.lock_attrs)
                    )
                    findings.append(
                        Finding(
                            path=file.rel,
                            line=mutation.line,
                            rule=self.rule_id,
                            severity="error",
                            message=(
                                f"{info.name}.{method_name}: mutation of "
                                f"shared attribute self.{mutation.attr} "
                                f"outside a `with <lock>` block "
                                f"(class locks: {locks})"
                            ),
                        )
                    )
            for acquisition in method.acquisitions:
                for held in acquisition.held | base:
                    self._edge(
                        info, held, acquisition.lock, file.rel, acquisition.line
                    )
            for call in method.calls:
                for target in acquires.get(call.callee, frozenset()):
                    for held in call.held | base:
                        self._edge(info, held, target, file.rel, call.line)
        return findings

    def _edge(
        self, info: _ClassInfo, src: str, dst: str, rel: str, line: int
    ) -> None:
        if src == dst:
            return  # re-entrant acquisition; RLocks make this legal
        key = (f"{info.name}.{src}", f"{info.name}.{dst}")
        self._edges.setdefault(key, (rel, line))


# ----------------------------------------------------------------------
# class scanning
# ----------------------------------------------------------------------
def _scan_class(node: ast.ClassDef, rel: str) -> Optional[_ClassInfo]:
    """Scan one class; None when it is not lock-disciplined."""
    methods = {
        item.name: item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    lock_attrs = _find_lock_attrs(methods.values())
    docstring = ast.get_docstring(node) or ""
    if not lock_attrs and "thread-safe" not in docstring.lower():
        return None
    infos: Dict[str, _MethodInfo] = {}
    for name, method in methods.items():
        if name in CONSTRUCTION_METHODS:
            continue
        info = _MethodInfo()
        for statement in method.body:
            _scan(statement, frozenset(), lock_attrs, info)
        infos[name] = info
    return _ClassInfo(
        name=node.name,
        rel=rel,
        line=node.lineno,
        lock_attrs=lock_attrs,
        methods=infos,
    )


def _find_lock_attrs(
    methods: "Iterable[ast.AST]",
) -> FrozenSet[str]:
    """``self._x`` attributes assigned a ``Lock()`` / ``RLock()``."""
    attrs: Set[str] = set()
    for method in methods:
        for node in ast.walk(method):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            name = dotted_name(value.func)
            if name is None or name.split(".")[-1] not in ("Lock", "RLock"):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = _self_attr(target)
                if attr is not None and attr.startswith("_"):
                    attrs.add(attr)
    return frozenset(attrs)


def _scan(
    node: ast.AST,
    held: FrozenSet[str],
    lock_attrs: FrozenSet[str],
    info: _MethodInfo,
) -> None:
    """Walk a method body tracking the set of lexically held locks."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        acquired: Set[str] = set()
        for item in node.items:
            _scan(item.context_expr, held, lock_attrs, info)
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in lock_attrs:
                info.acquisitions.append(
                    _Acquisition(lock=attr, line=node.lineno, held=held)
                )
                acquired.add(attr)
        inner = held | acquired
        for statement in node.body:
            _scan(statement, inner, lock_attrs, info)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # A nested callable may run later, on another thread, without
        # the enclosing locks: analyse it with an empty held set.
        body = node.body if isinstance(node.body, list) else [node.body]
        for statement in body:
            _scan(statement, frozenset(), lock_attrs, info)
        return

    _record_events(node, held, info)
    for child in ast.iter_child_nodes(node):
        _scan(child, held, lock_attrs, info)


def _record_events(
    node: ast.AST, held: FrozenSet[str], info: _MethodInfo
) -> None:
    """Mutation and intra-class call events for one node."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            _record_target(target, node.lineno, held, info)
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        _record_target(node.target, node.lineno, held, info)
    elif isinstance(node, ast.AugAssign):
        _record_target(node.target, node.lineno, held, info)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            _record_target(target, node.lineno, held, info)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        receiver = node.func.value
        if node.func.attr in MUTATING_METHODS:
            attr = _shared_attr(receiver)
            if attr is not None:
                info.mutations.append(
                    _Mutation(attr=attr, line=node.lineno, held=held)
                )
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == "self"
        ):
            info.calls.append(
                _CallSite(
                    callee=node.func.attr, line=node.lineno, held=held
                )
            )


def _record_target(
    target: ast.expr, line: int, held: FrozenSet[str], info: _MethodInfo
) -> None:
    """Register assignment/delete targets that hit shared attributes."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _record_target(element, line, held, info)
        return
    if isinstance(target, ast.Starred):
        _record_target(target.value, line, held, info)
        return
    attr = _shared_attr(target)
    if attr is not None:
        info.mutations.append(_Mutation(attr=attr, line=line, held=held))


def _shared_attr(node: ast.expr) -> Optional[str]:
    """The ``_x`` of ``self._x`` / ``self._x[...]`` targets, else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    attr = _self_attr(node)
    if attr is not None and attr.startswith("_"):
        return attr
    return None


def _self_attr(node: ast.expr) -> Optional[str]:
    """The attribute name of a plain ``self.<attr>`` expression."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# ----------------------------------------------------------------------
# fixpoints over the intra-class call graph
# ----------------------------------------------------------------------
def _is_private(name: str) -> bool:
    """Private helpers (never dunders) can inherit callers' locks."""
    return name.startswith("_") and not name.startswith("__")


def _guaranteed_held(info: _ClassInfo) -> Dict[str, FrozenSet[str]]:
    """Locks provably held on *every* entry to each method.

    Public methods (and dunders) are callable from outside, so they
    guarantee nothing.  A private helper is guaranteed the intersection
    over all intra-class call sites of (lexically held at the site,
    plus the caller's own guarantee) -- computed as a decreasing
    fixpoint starting from "all locks".
    """
    callers: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
    for method_name, method in info.methods.items():
        for call in method.calls:
            if call.callee in info.methods:
                callers.setdefault(call.callee, []).append(
                    (method_name, call.held)
                )
    guaranteed: Dict[str, FrozenSet[str]] = {}
    for name in info.methods:
        if _is_private(name) and callers.get(name):
            guaranteed[name] = info.lock_attrs
        else:
            guaranteed[name] = frozenset()
    for _ in range(len(info.methods) + 1):
        changed = False
        for name in info.methods:
            if not (_is_private(name) and callers.get(name)):
                continue
            sites = [
                held | guaranteed[caller]
                for caller, held in callers[name]
            ]
            value: FrozenSet[str] = frozenset.intersection(*sites)
            if value != guaranteed[name]:
                guaranteed[name] = value
                changed = True
        if not changed:
            break
    return guaranteed


def _acquires_closure(info: _ClassInfo) -> Dict[str, FrozenSet[str]]:
    """Locks each method may acquire, directly or through callees."""
    acquires: Dict[str, FrozenSet[str]] = {
        name: frozenset(a.lock for a in method.acquisitions)
        for name, method in info.methods.items()
    }
    for _ in range(len(info.methods) + 1):
        changed = False
        for name, method in info.methods.items():
            value = acquires[name]
            for call in method.calls:
                value = value | acquires.get(call.callee, frozenset())
            if value != acquires[name]:
                acquires[name] = value
                changed = True
        if not changed:
            break
    return acquires


# ----------------------------------------------------------------------
# cycle detection
# ----------------------------------------------------------------------
def _find_cycles(edges: Set[Tuple[str, str]]) -> List[List[str]]:
    """Elementary cycles of the acquisition graph, deterministically.

    Tarjan SCC; every component with more than one node is reported as
    one cycle (listed in a stable order starting from its smallest
    node).  Self-loops never occur -- re-entrant acquisitions are
    filtered at edge-recording time.
    """
    graph: Dict[str, List[str]] = {}
    for src, dst in sorted(edges):
        graph.setdefault(src, []).append(dst)
        graph.setdefault(dst, [])

    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    def strongconnect(node: str) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for successor in graph[node]:
            if successor not in index:
                strongconnect(successor)
                low[node] = min(low[node], low[successor])
            elif successor in on_stack:
                low[node] = min(low[node], index[successor])
        if low[node] == index[node]:
            component: List[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                components.append(component)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    cycles: List[List[str]] = []
    for component in components:
        start = min(component)
        ordered = sorted(component)
        ordered.remove(start)
        cycles.append([start, *ordered])
    return sorted(cycles)
