"""Framework primitives of repro-lint (the repository invariant checker).

The pieces every rule builds on:

* :class:`Finding` -- one reported violation (file / line / rule id /
  severity / message), hashable and ordered so reports and baselines
  are deterministic.
* :class:`SourceFile` -- a module parsed **once**; the runner hands the
  same :class:`ast.Module` to every rule, so adding rules never adds
  parses.  Lazily exposes a child-to-parent node map for rules that
  need lexical context.
* :class:`Rule` -- the protocol rules implement: a per-file
  :meth:`~Rule.check` pass plus a :meth:`~Rule.finalize` hook for
  whole-project analyses (the lock-order graph of
  :mod:`repro.analysis.lockgraph` reports cycles there).
* the registry -- :func:`register` collects rule classes,
  :func:`default_rules` instantiates the default pack.

Rules are plain AST analyses with no third-party dependencies; the
whole package imports only the standard library so it can lint the
repository from any environment that can run the test suite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Type,
    TypeVar,
)

if TYPE_CHECKING:
    from .project import ProjectContext

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Finding",
    "SourceFile",
    "Rule",
    "BaseRule",
    "register",
    "registered_rules",
    "default_rules",
    "dotted_name",
]

#: Severity of a finding that must be fixed or baselined.
SEVERITY_ERROR = "error"
#: Severity of an advisory finding (reported, still blocking unless baselined).
SEVERITY_WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One violation reported by a rule.

    ``path`` is the file's path relative to the lint root in POSIX form
    (the stable key baselines match on); ``line`` is 1-based.  Field
    order makes the natural sort ``(path, line, rule)`` -- the order
    reports print in.
    """

    path: str
    line: int
    rule: str
    severity: str
    message: str

    def location(self) -> str:
        """``path:line`` -- the clickable prefix of the text report."""
        return f"{self.path}:{self.line}"


class SourceFile:
    """One module parsed exactly once and shared by every rule.

    Parsing is the expensive part of linting; the runner constructs one
    :class:`SourceFile` per path and every rule walks the same tree.
    The child-to-parent map is built lazily on first use and cached.
    """

    def __init__(self, path: Path, rel: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    @classmethod
    def parse(cls, path: Path, rel: str) -> "SourceFile":
        """Read and parse ``path`` (raises :class:`SyntaxError` as-is)."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(path, rel, source, tree)

    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child-to-parent map over the module tree (built once)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain of enclosing nodes of ``node``, innermost first."""
        parents = self.parents()
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """Nearest enclosing function definition, or None at module level."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None


class Rule(Protocol):
    """The protocol every lint rule implements.

    ``rule_id`` is the stable identifier findings and baselines carry
    (``"RPR001"``); ``summary`` is the one-line description the docs
    and ``--format json`` expose.  :meth:`check` runs once per file;
    :meth:`check_project` runs once after parsing with the
    cross-module :class:`~repro.analysis.project.ProjectContext`;
    :meth:`finalize` runs last, for rules that accumulated state
    during the per-file pass.
    """

    rule_id: str
    summary: str

    def check(self, file: SourceFile) -> List[Finding]:
        """Findings for one parsed file."""
        ...

    def check_project(self, project: "ProjectContext") -> List[Finding]:
        """Findings over the whole parsed set (empty for local rules)."""
        ...

    def finalize(self) -> List[Finding]:
        """Findings that need the whole project (empty for local rules)."""
        ...


class BaseRule:
    """Convenience base: local rules only override :meth:`check`."""

    rule_id: str = "RPR000"
    summary: str = "abstract rule"

    def check(self, file: SourceFile) -> List[Finding]:
        """Findings for one parsed file (default: none)."""
        return []

    def check_project(self, project: "ProjectContext") -> List[Finding]:
        """Project-pass findings (default: none -- local rule)."""
        return []

    def finalize(self) -> List[Finding]:
        """Whole-project findings (default: none)."""
        return []

    def finding(
        self,
        file: SourceFile,
        node: ast.AST,
        message: str,
        severity: str = SEVERITY_ERROR,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` in ``file``."""
        line = getattr(node, "lineno", 0)
        return Finding(
            path=file.rel,
            line=int(line),
            rule=self.rule_id,
            severity=severity,
            message=message,
        )


R = TypeVar("R", bound=Type[BaseRule])

_REGISTRY: Dict[str, Type[BaseRule]] = {}


def register(rule_class: R) -> R:
    """Class decorator adding a rule to the default registry.

    Rules are keyed by ``rule_id``; registering a second class under an
    existing id replaces the first (useful for tests overriding a rule).
    """
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def registered_rules() -> Dict[str, Type[BaseRule]]:
    """Snapshot of the registry (rule id to rule class)."""
    _load_builtin_rules()
    return dict(_REGISTRY)


def default_rules() -> List[BaseRule]:
    """Fresh instances of every registered rule, in rule-id order."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def _load_builtin_rules() -> None:
    """Import the built-in rule modules so their ``@register`` calls ran."""
    from . import consistency, lockgraph, pairs, rules  # noqa: F401


def dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted source form of a name/attribute chain, else None.

    ``np.random.default_rng`` for the corresponding attribute chain,
    ``time`` for a bare name.  Chains containing calls or subscripts
    yield None -- rules match textual API names, not arbitrary values.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = dotted_name(node.value)
        if prefix is None:
            return None
        return f"{prefix}.{node.attr}"
    return None
