"""Cross-module project context for whole-project rules.

The per-file pass hands every rule one :class:`~repro.analysis.core.
SourceFile` at a time; the project pass hands them a single
:class:`ProjectContext` built over *all* parsed files:

* a **module map** -- dotted module names derived from paths
  (``src/repro/hin/graph.py`` -> ``repro.hin.graph``; ``__init__.py``
  names the package), so rules can reason about the import structure,
* an **import graph** -- one :class:`ImportEdge` per ``import`` /
  ``from ... import`` with relative levels resolved against the
  importing module's package, tagged top-level vs lazy (inside a
  function).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .core import SourceFile

__all__ = [
    "ImportEdge",
    "ModuleInfo",
    "ProjectContext",
    "module_name_for",
]


def module_name_for(rel: str) -> Optional[str]:
    """Dotted module name for a lint-root-relative path, if derivable.

    Leading ``src/`` components are stripped (the import root), and
    ``__init__.py`` names its package.  Non-Python paths yield None.
    """
    if not rel.endswith(".py"):
        return None
    parts = list(Path(rel).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    last = parts[-1][: -len(".py")]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = last
    if not parts or any(not part.isidentifier() for part in parts):
        return None
    return ".".join(parts)


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to an absolute dotted target."""

    target: str
    line: int
    top_level: bool
    #: Names bound by a ``from target import a, b`` (empty for ``import``).
    names: Tuple[str, ...] = ()
    #: The local names the import binds (``asname`` when given).
    bound: Tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One parsed module and its resolved imports."""

    name: str
    file: SourceFile
    imports: List[ImportEdge] = field(default_factory=list)


class ProjectContext:
    """Everything the project-scoped rules see, built once per run."""

    def __init__(self, files: Sequence[SourceFile], root: Path) -> None:
        self.root = root
        self.files: Tuple[SourceFile, ...] = tuple(files)
        self.modules: Dict[str, ModuleInfo] = {}
        for file in self.files:
            name = module_name_for(file.rel)
            if name is None:
                continue
            info = ModuleInfo(name=name, file=file)
            info.imports = _collect_imports(file, name)
            self.modules[name] = info


# ----------------------------------------------------------------------
# collection helpers
# ----------------------------------------------------------------------
def _collect_imports(file: SourceFile, module: str) -> List[ImportEdge]:
    is_package = Path(file.rel).name == "__init__.py"
    edges: List[ImportEdge] = []
    for node in ast.walk(file.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if _type_checking_only(file, node):
            # Erased at runtime: no runtime dependency, no cycle; mypy
            # owns whatever the annotations reference.
            continue
        if isinstance(node, ast.Import):
            top = file.enclosing_function(node) is None
            for alias in node.names:
                edges.append(
                    ImportEdge(
                        target=alias.name,
                        line=int(node.lineno),
                        top_level=top,
                    )
                )
        else:
            top = file.enclosing_function(node) is None
            target = _resolve_from(node, module, is_package)
            if target is None:
                continue
            names = tuple(alias.name for alias in node.names)
            bound = tuple(
                alias.asname or alias.name for alias in node.names
            )
            edges.append(
                ImportEdge(
                    target=target,
                    line=int(node.lineno),
                    top_level=top,
                    names=names,
                    bound=bound,
                )
            )
    return edges


def _type_checking_only(file: SourceFile, node: ast.AST) -> bool:
    """Whether an import sits under an ``if TYPE_CHECKING:`` guard."""
    for ancestor in file.ancestors(node):
        if isinstance(ancestor, ast.If):
            test = ancestor.test
            name = (
                test.id
                if isinstance(test, ast.Name)
                else test.attr
                if isinstance(test, ast.Attribute)
                else None
            )
            if name == "TYPE_CHECKING":
                return True
    return False


def _resolve_from(
    node: ast.ImportFrom, module: str, is_package: bool
) -> Optional[str]:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    # level=1 is the importing module's own package: the module itself
    # for an ``__init__.py``, the containing package otherwise; each
    # extra level climbs one package higher.
    package = module.split(".") if is_package else module.split(".")[:-1]
    climb = node.level - 1
    if climb > len(package):
        return None
    base = package[: len(package) - climb]
    if node.module:
        base = base + node.module.split(".")
    if not base:
        return None
    return ".".join(base)
