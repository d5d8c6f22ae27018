"""repro-lint: AST-based invariant checking for this repository.

PRs 1-3 introduced invariants enforced only by convention: densify only
through the planned backend step, raise only typed
:class:`~repro.hin.errors.ReproError` subclasses, seed every RNG,
propagate the ambient :class:`~repro.runtime.limits.ExecutionContext`
into worker threads, and guard shared state with locks.  This package
makes those invariants machine-checked on every push:

* :mod:`repro.analysis.core` -- the framework: :class:`Finding`,
  the :class:`Rule` protocol, the registry, single-parse-per-file
  :class:`SourceFile` handling.
* :mod:`repro.analysis.rules` -- the local rule pack (RPR001 unbudgeted
  densification, RPR002 typed errors, RPR003 nondeterminism, RPR005
  context propagation, RPR006 float-literal equality, RPR008 direct
  materialisation imports, RPR011 contextvar-token reset).
* :mod:`repro.analysis.lockgraph` -- RPR004 lock discipline: static
  guaranteed-held analysis plus lock-order cycle detection.
* :mod:`repro.analysis.pairs` -- RPR007 paired-state atomicity:
  unlocked same-key accesses to two separate ``_``-prefixed dicts
  (the stale-halves TOCTOU shape fixed in PR 5).
* :mod:`repro.analysis.project` -- the whole-project view: module
  naming and the resolved import graph.
* :mod:`repro.analysis.consistency` -- the project rule pack (RPR012
  metrics-catalogue consistency, RPR013 import layering).
* :mod:`repro.analysis.runner` / :mod:`~repro.analysis.report` -- the
  driver and the text/JSON emitters behind ``hetesim lint``.
* :mod:`repro.analysis.baseline` -- the justification-required
  allowlist (``lint_baseline.toml``).

The package imports only the standard library, so the linter runs in
any environment that can run the tests.  Usage::

    hetesim lint                      # text report, exit 1 on findings
    hetesim lint --format json        # machine-readable
    hetesim lint --write-baseline     # grandfather the current tree
"""

from .baseline import (
    Baseline,
    PLACEHOLDER_REASON,
    Suppression,
    load_baseline,
    write_baseline,
)
from .consistency import ImportLayeringRule, MetricsCatalogueRule
from .core import (
    Finding,
    BaseRule,
    Rule,
    SourceFile,
    default_rules,
    register,
    registered_rules,
)
from .lockgraph import LockDisciplineRule
from .pairs import PairedStateRule
from .project import ProjectContext
from .report import render_json, render_text
from .rules import (
    ContextPropagationRule,
    ContextTokenRule,
    DensifyRule,
    FloatEqualityRule,
    MaterialiseImportRule,
    NondeterminismRule,
    TypedErrorRule,
)
from .runner import LintResult, iter_python_files, run_lint

__all__ = [
    "Baseline",
    "BaseRule",
    "ContextPropagationRule",
    "ContextTokenRule",
    "DensifyRule",
    "Finding",
    "FloatEqualityRule",
    "ImportLayeringRule",
    "LintResult",
    "LockDisciplineRule",
    "MaterialiseImportRule",
    "MetricsCatalogueRule",
    "NondeterminismRule",
    "PLACEHOLDER_REASON",
    "PairedStateRule",
    "ProjectContext",
    "Rule",
    "SourceFile",
    "Suppression",
    "TypedErrorRule",
    "default_rules",
    "iter_python_files",
    "load_baseline",
    "register",
    "registered_rules",
    "render_json",
    "render_text",
    "run_lint",
    "write_baseline",
]
