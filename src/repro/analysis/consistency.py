"""Project-scoped consistency rules (RPR012, RPR013).

These rules run in the *project pass*: after every file is parsed, the
runner hands them one :class:`~repro.analysis.project.ProjectContext`
and they check invariants no single file can witness:

* **RPR012** -- the metrics catalogue is consistent: every family is
  registered at exactly one site, all registration sites agree on the
  metric kind, every ``.labels(...)`` site for a family uses the same
  label-key set (a convenience ``inc`` / ``set`` / ``observe`` on the
  family is the empty set -- mixing it with labelled children splits
  the series), and the family name appears in the catalogue table of
  ``docs/observability.md`` (and vice versa: no ghost rows).
* **RPR013** -- import layering: the package's layer DAG is declared in
  :data:`LAYER_RANKS` and every ``repro``-internal import must point at
  the same or a lower layer.  Top-level import cycles between modules
  are reported as well (Tarjan SCC, the same machinery as RPR004's
  lock-order cycles).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .core import BaseRule, Finding, SourceFile, dotted_name, register
from .project import ImportEdge, ProjectContext

__all__ = [
    "LAYER_RANKS",
    "MetricsCatalogueRule",
    "ImportLayeringRule",
]

#: The declared layer DAG, bottom-up.  ``hin`` (graph model, typed
#: errors) is the foundation; ``obs`` / ``analysis`` / ``datasets``
#: depend only on it; ``core`` (measures, planner, caches) builds on
#: those; ``runtime`` / ``learning`` / ``baselines`` wrap core;
#: ``serve`` orchestrates everything below; ``experiments`` and the
#: CLI sit on top.  An import from a lower to a strictly higher rank
#: is an upward (layer-violating) import.
LAYER_RANKS: Dict[str, int] = {
    "hin": 0,
    "obs": 1,
    "analysis": 1,
    "datasets": 1,
    "core": 2,
    "runtime": 3,
    "learning": 3,
    "baselines": 3,
    "serve": 4,
    "experiments": 5,
    "cli": 5,
}

_METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})
_CONVENIENCE = frozenset({"inc", "dec", "set", "observe"})
_DOC_METRIC = re.compile(r"`(repro_[a-z0-9_]+)`")


def _project_finding(
    rule: BaseRule, rel: str, line: int, message: str
) -> Finding:
    return Finding(
        path=rel,
        line=int(line),
        rule=rule.rule_id,
        severity="error",
        message=message,
    )


# ----------------------------------------------------------------------
# RPR012: metrics catalogue consistency
# ----------------------------------------------------------------------
@register
class MetricsCatalogueRule(BaseRule):
    """RPR012: registered once, label sets agree, catalogued in docs."""

    rule_id = "RPR012"
    summary = (
        "metrics-catalogue consistency: single registration site, "
        "agreeing label sets, documented in docs/observability.md"
    )

    def __init__(
        self,
        library_prefix: str = "src/repro",
        catalogue_doc: str = "docs/observability.md",
    ) -> None:
        self.library_prefix = library_prefix
        self.catalogue_doc = catalogue_doc

    def check_project(self, project: ProjectContext) -> List[Finding]:
        """Cross-check every registration/label/doc site of each family.

        Three sweeps: (1) registrations plus the bindings they create
        per module, (2) one import-resolution round so a ``from .base
        import FAMILY`` alias attributes to the defining module's
        family (one hop covers the tree; re-export chains would need a
        fixpoint), (3) label/convenience sites against the merged
        binding tables.
        """
        registrations: Dict[str, List[Tuple[str, int, str]]] = {}
        label_sites: Dict[str, List[Tuple[str, int, FrozenSet[str]]]] = {}
        bindings: Dict[str, Dict[str, str]] = {}
        scanned = [
            info
            for name, info in sorted(project.modules.items())
            if info.file.rel.startswith(self.library_prefix)
        ]
        for info in scanned:
            bindings[info.name] = self._collect_registrations(
                info.file, registrations
            )
        for info in scanned:
            table = bindings[info.name]
            for edge in info.imports:
                exported = bindings.get(edge.target)
                if not exported:
                    continue
                for original, local in zip(edge.names, edge.bound):
                    if original in exported:
                        table.setdefault(local, exported[original])
        for info in scanned:
            self._collect_label_sites(
                info.file, bindings[info.name], label_sites
            )
        findings: List[Finding] = []
        findings.extend(self._check_registrations(registrations))
        findings.extend(self._check_labels(registrations, label_sites))
        findings.extend(self._check_docs(project, registrations))
        return findings

    # -- per-module sweeps --------------------------------------------
    def _collect_registrations(
        self,
        file: SourceFile,
        registrations: Dict[str, List[Tuple[str, int, str]]],
    ) -> Dict[str, str]:
        """Registrations in one module; returns the bindings they create.

        Bindings map a module-level name or a ``self._attr`` attribute
        name to the metric family it holds, so later ``.labels`` /
        convenience calls on that name can be attributed.
        """
        parents = file.parents()
        bindings: Dict[str, str] = {}
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            metric = self._registration(node)
            if metric is None:
                continue
            name, kind = metric
            registrations.setdefault(name, []).append(
                (file.rel, int(node.lineno), kind)
            )
            self._bind(parents, node, name, bindings)
        return bindings

    def _collect_label_sites(
        self,
        file: SourceFile,
        bindings: Dict[str, str],
        label_sites: Dict[str, List[Tuple[str, int, FrozenSet[str]]]],
    ) -> None:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            family = self._family_of(node.func.value, bindings)
            if family is None:
                continue
            if node.func.attr == "labels":
                keys = self._label_keys(node)
                if keys is not None:
                    label_sites.setdefault(family, []).append(
                        (file.rel, int(node.lineno), keys)
                    )
            elif node.func.attr in _CONVENIENCE:
                label_sites.setdefault(family, []).append(
                    (file.rel, int(node.lineno), frozenset())
                )

    def _registration(self, call: ast.Call) -> Optional[Tuple[str, str]]:
        """``(metric_name, kind)`` when ``call`` registers a family."""
        if not isinstance(call.func, ast.Attribute):
            return None
        if call.func.attr not in _METRIC_KINDS:
            return None
        receiver = dotted_name(call.func.value)
        if receiver is None or receiver.rsplit(".", 1)[-1] != "REGISTRY":
            return None
        if not call.args or not isinstance(call.args[0], ast.Constant):
            return None
        name = call.args[0].value
        if not isinstance(name, str):
            return None
        return (name, call.func.attr)

    def _bind(
        self,
        parents: Dict[ast.AST, ast.AST],
        registration: ast.Call,
        metric: str,
        bindings: Dict[str, str],
    ) -> None:
        """Record what name (if any) the registration result is bound to.

        ``FAM = REGISTRY.counter(...)`` binds a module-level name;
        ``self._fam = REGISTRY.counter(...)`` binds an attribute name.
        A chained ``REGISTRY.counter(...).labels(...)`` binds a *child*,
        not the family -- the chained ``.labels`` call itself is picked
        up in pass 2 via :meth:`_family_of` on the inline registration.
        """
        parent = parents.get(registration)
        if not isinstance(parent, ast.Assign) or parent.value is not registration:
            return
        for target in parent.targets:
            if isinstance(target, ast.Name):
                bindings[target.id] = metric
            elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                bindings[f"{target.value.id}.{target.attr}"] = metric

    def _family_of(
        self, receiver: ast.expr, bindings: Dict[str, str]
    ) -> Optional[str]:
        """The metric family a call receiver denotes, if resolvable."""
        inline = self._registration_expr(receiver)
        if inline is not None:
            return inline
        dotted = dotted_name(receiver)
        if dotted is None:
            return None
        if dotted in bindings:
            return bindings[dotted]
        leaf = dotted.rsplit(".", 1)[-1]
        return bindings.get(leaf)

    def _registration_expr(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Call):
            metric = self._registration(expr)
            if metric is not None:
                return metric[0]
        return None

    def _label_keys(self, call: ast.Call) -> Optional[FrozenSet[str]]:
        keys: Set[str] = set()
        for keyword in call.keywords:
            if keyword.arg is None:  # **kwargs: label set unknowable
                return None
        for keyword in call.keywords:
            if keyword.arg is not None:
                keys.add(keyword.arg)
        return frozenset(keys)

    # -- cross-site checks --------------------------------------------
    def _check_registrations(
        self, registrations: Dict[str, List[Tuple[str, int, str]]]
    ) -> List[Finding]:
        findings: List[Finding] = []
        for name, sites in sorted(registrations.items()):
            ordered = sorted(sites)
            kinds = {kind for _, _, kind in ordered}
            if len(ordered) > 1:
                first = ordered[0]
                for rel, line, _ in ordered[1:]:
                    findings.append(
                        _project_finding(
                            self,
                            rel,
                            line,
                            f"metric family `{name}` registered more than "
                            f"once (first at {first[0]}:{first[1]}); "
                            "register once and share the family object",
                        )
                    )
            if len(kinds) > 1:
                for rel, line, kind in ordered:
                    findings.append(
                        _project_finding(
                            self,
                            rel,
                            line,
                            f"metric family `{name}` registered as "
                            f"`{kind}` here but as "
                            f"{sorted(kinds - {kind})} elsewhere",
                        )
                    )
        return findings

    def _check_labels(
        self,
        registrations: Dict[str, List[Tuple[str, int, str]]],
        label_sites: Dict[str, List[Tuple[str, int, FrozenSet[str]]]],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for name in sorted(label_sites):
            if name not in registrations:
                continue
            sites = label_sites[name]
            by_keys: Dict[FrozenSet[str], int] = {}
            for _, _, keys in sites:
                by_keys[keys] = by_keys.get(keys, 0) + 1
            if len(by_keys) <= 1:
                continue
            majority = max(
                by_keys.items(), key=lambda item: (item[1], sorted(item[0]))
            )[0]
            for rel, line, keys in sorted(sites):
                if keys == majority:
                    continue
                findings.append(
                    _project_finding(
                        self,
                        rel,
                        line,
                        f"metric family `{name}` used with label set "
                        f"{sorted(keys)} here but {sorted(majority)} at "
                        "its other call sites; series split across "
                        "label schemas",
                    )
                )
        return findings

    def _check_docs(
        self,
        project: ProjectContext,
        registrations: Dict[str, List[Tuple[str, int, str]]],
    ) -> List[Finding]:
        if not registrations:
            # Linting a tree with no metric registrations at all (a
            # test fixture, a subset run): the catalogue belongs to a
            # different tree, so "not registered anywhere" would be
            # vacuously true for every row.
            return []
        doc_path = project.root / self.catalogue_doc
        if not doc_path.is_file():
            return []
        documented: Dict[str, int] = {}
        for number, line in enumerate(
            doc_path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for match in _DOC_METRIC.finditer(line):
                documented.setdefault(match.group(1), number)
        findings: List[Finding] = []
        for name, sites in sorted(registrations.items()):
            if name not in documented:
                rel, line, _ = sorted(sites)[0]
                findings.append(
                    _project_finding(
                        self,
                        rel,
                        line,
                        f"metric family `{name}` is not in the catalogue "
                        f"table of {self.catalogue_doc}; add a row",
                    )
                )
        for name, line in sorted(documented.items()):
            if name not in registrations:
                findings.append(
                    _project_finding(
                        self,
                        self.catalogue_doc,
                        line,
                        f"documented metric `{name}` is not registered "
                        "anywhere; delete the stale catalogue row",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RPR013: import layering
# ----------------------------------------------------------------------
@register
class ImportLayeringRule(BaseRule):
    """RPR013: no upward imports against the declared layer DAG."""

    rule_id = "RPR013"
    summary = (
        "import layering: repro-internal imports must point at the "
        "same or a lower layer; no top-level import cycles"
    )

    def __init__(self, package: str = "repro") -> None:
        self.package = package

    def check_project(self, project: ProjectContext) -> List[Finding]:
        """Flag upward imports and top-level import cycles."""
        findings: List[Finding] = []
        for name in sorted(project.modules):
            info = project.modules[name]
            importer_rank = self._rank(name)
            if importer_rank is None:
                continue
            for edge in info.imports:
                importee_rank = self._rank(edge.target)
                if importee_rank is None or importee_rank <= importer_rank:
                    continue
                flavour = "top-level" if edge.top_level else "lazy"
                findings.append(
                    _project_finding(
                        self,
                        info.file.rel,
                        edge.line,
                        f"{flavour} import of `{edge.target}` "
                        f"(layer {importee_rank}) from layer "
                        f"{importer_rank} module `{name}` inverts the "
                        "declared layer DAG",
                    )
                )
        findings.extend(self._cycles(project))
        return findings

    def _rank(self, module: Optional[str]) -> Optional[int]:
        if module is None:
            return None
        parts = module.split(".")
        if parts[0] != self.package or len(parts) < 2:
            return None
        return LAYER_RANKS.get(parts[1])

    def _resolve_targets(
        self, project: ProjectContext, edge: ImportEdge
    ) -> List[str]:
        """Project modules an import edge depends on."""
        targets: List[str] = []
        if edge.target in project.modules:
            targets.append(edge.target)
        for name in edge.names:
            candidate = f"{edge.target}.{name}"
            if candidate in project.modules:
                targets.append(candidate)
        return targets

    def _cycles(self, project: ProjectContext) -> List[Finding]:
        """Tarjan SCCs over the top-level import graph (size > 1)."""
        graph: Dict[str, Set[str]] = {}
        edge_lines: Dict[Tuple[str, str], int] = {}
        for name, info in project.modules.items():
            graph.setdefault(name, set())
            for edge in info.imports:
                if not edge.top_level:
                    continue
                for target in self._resolve_targets(project, edge):
                    if target == name:
                        continue
                    graph[name].add(target)
                    graph.setdefault(target, set())
                    edge_lines.setdefault((name, target), edge.line)

        index_counter = [0]
        stack: List[str] = []
        on_stack: Set[str] = set()
        indices: Dict[str, int] = {}
        low: Dict[str, int] = {}
        components: List[List[str]] = []

        def strongconnect(node: str) -> None:
            indices[node] = low[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(graph[node]):
                if succ not in indices:
                    strongconnect(succ)
                    low[node] = min(low[node], low[succ])
                elif succ in on_stack:
                    low[node] = min(low[node], indices[succ])
            if low[node] == indices[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))

        for node in sorted(graph):
            if node not in indices:
                strongconnect(node)

        findings: List[Finding] = []
        for component in sorted(components):
            anchor = component[0]
            member_set = set(component)
            line = 1
            for (src, dst), edge_line in sorted(edge_lines.items()):
                if src == anchor and dst in member_set:
                    line = edge_line
                    break
            findings.append(
                _project_finding(
                    self,
                    project.modules[anchor].file.rel,
                    line,
                    "top-level import cycle: "
                    + " -> ".join(component + [component[0]]),
                )
            )
        return findings
