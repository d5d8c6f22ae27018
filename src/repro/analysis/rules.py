"""The built-in local rule pack (RPR001-003, RPR005, RPR006, RPR008, RPR011).

Each rule machine-checks one invariant PRs 1-3 introduced by
convention:

* **RPR001** -- densification (``.toarray()`` / ``.todense()``) happens
  only in the backend's densify step, where the chain order decided it
  and the :class:`~repro.runtime.limits.LimitTracker` can veto it.
* **RPR002** -- library code raises typed
  :class:`~repro.hin.errors.ReproError` subclasses, never bare
  builtins, so ``except ReproError`` keeps catching everything.
* **RPR003** -- no ambient nondeterminism: RNGs must be seeded and
  wall-clock reads must go through an injectable clock.
* **RPR005** -- thread pools must propagate the ambient
  :class:`~repro.runtime.limits.ExecutionContext` via
  :func:`~repro.runtime.limits.adopt_context`, or limits and fault
  plans silently stop applying inside workers.
* **RPR006** -- no ``==`` / ``!=`` against float literals; use a
  tolerance (:func:`math.isclose`) instead.
* **RPR008** -- path materialisation outside :mod:`repro.core` goes
  through the shared measure context
  (:class:`~repro.core.measures.base.MeasureContext`) or a
  :class:`~repro.core.cache.PathMatrixCache`, never by importing
  ``materialise`` directly -- a direct call skips the cache's byte
  budget and its plan metrics.
* **RPR011** -- every ``ContextVar.set()`` token is ``reset()`` in the
  ``finally`` of the ``try`` that directly follows it, or handed over
  to an owner that resets it later.

The lock-discipline rule **RPR004** lives in
:mod:`repro.analysis.lockgraph` (it builds whole-project state).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Sequence, Set

from .core import BaseRule, Finding, SourceFile, dotted_name, register

__all__ = [
    "DensifyRule",
    "TypedErrorRule",
    "NondeterminismRule",
    "ContextPropagationRule",
    "FloatEqualityRule",
    "MaterialiseImportRule",
    "ContextTokenRule",
]


@register
class DensifyRule(BaseRule):
    """RPR001: densify only through the backend's densify step.

    ``.toarray()`` / ``.todense()`` allocate ``O(rows * cols)`` memory in
    one call; every chain-intermediate densification goes through
    :func:`repro.core.backend.materialise`, where the chain order
    decides it and the limit tracker can veto it
    (``max_densified_cells``).  Any call site elsewhere is either a
    bounded result-layer densification (baseline it, with a
    justification) or a bug.
    """

    rule_id = "RPR001"
    summary = (
        "densification (.toarray()/.todense()) outside the backend "
        "densify step"
    )

    def __init__(
        self,
        allowed_files: Sequence[str] = ("src/repro/core/backend.py",),
    ) -> None:
        self.allowed_files: FrozenSet[str] = frozenset(allowed_files)

    def check(self, file: SourceFile) -> List[Finding]:
        """Flag every ``.toarray()`` / ``.todense()`` call site."""
        if file.rel in self.allowed_files:
            return []
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("toarray", "todense")
            ):
                findings.append(
                    self.finding(
                        file,
                        node,
                        f"unbudgeted densification: .{node.func.attr}() "
                        "outside the backend densify step "
                        "(repro.core.backend.materialise)",
                    )
                )
        return findings


@register
class TypedErrorRule(BaseRule):
    """RPR002: library code raises :class:`ReproError` subclasses only.

    ``except ReproError`` is the documented catch-all of the public API
    (the CLI maps it to exit code 2); a bare ``ValueError`` escaping a
    library module bypasses it.  ``AssertionError`` (internal
    invariants) and ``OSError``-family (real IO surfaces, plus the
    fault injector's transient-failure simulation) stay allowed.
    """

    rule_id = "RPR002"
    summary = "library raise of a bare builtin instead of a ReproError"

    #: Builtin exception names library code must not raise directly.
    FORBIDDEN = frozenset(
        {
            "ValueError",
            "RuntimeError",
            "KeyError",
            "TypeError",
            "IndexError",
            "Exception",
        }
    )

    def __init__(self, library_prefix: str = "src/repro") -> None:
        self.library_prefix = library_prefix

    def check(self, file: SourceFile) -> List[Finding]:
        """Flag ``raise <Forbidden>(...)`` statements in library code."""
        if not file.rel.startswith(self.library_prefix):
            return []
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = _raised_name(node.exc)
            if name in self.FORBIDDEN:
                findings.append(
                    self.finding(
                        file,
                        node,
                        f"raise {name}: library code must raise a "
                        "ReproError subclass (repro.hin.errors)",
                    )
                )
        return findings


def _raised_name(exc: ast.expr) -> Optional[str]:
    """The exception class name of a raise operand, when syntactic."""
    if isinstance(exc, ast.Call):
        return dotted_name(exc.func)
    return dotted_name(exc)


@register
class NondeterminismRule(BaseRule):
    """RPR003: no ambient nondeterminism in library code.

    Three patterns break replayability: a seedless
    ``np.random.default_rng()``, calls into the global :mod:`random`
    module (a seeded ``random.Random(seed)`` instance is fine), and
    ``time.time()`` (inject a clock instead, the way
    :class:`~repro.runtime.limits.LimitTracker` takes ``clock=``).
    ``time.monotonic`` / ``time.perf_counter`` for *measuring* spans
    are allowed -- they never feed results.
    """

    rule_id = "RPR003"
    summary = "seedless RNG, global random.*, or time.time() in library code"

    def __init__(
        self,
        allowed_files: Sequence[str] = ("src/repro/runtime/limits.py",),
    ) -> None:
        self.allowed_files: FrozenSet[str] = frozenset(allowed_files)

    def check(self, file: SourceFile) -> List[Finding]:
        """Flag seedless RNG construction and wall-clock reads."""
        if file.rel in self.allowed_files:
            return []
        from_random = _names_imported_from(file.tree, "random")
        from_time = _names_imported_from(file.tree, "time")
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            seeded = bool(node.args) or bool(node.keywords)
            if (name == "default_rng" or name.endswith(".default_rng")) and not seeded:
                findings.append(
                    self.finding(
                        file,
                        node,
                        "seedless np.random.default_rng(): pass an "
                        "explicit seed so runs replay",
                    )
                )
            elif name.startswith("random.") or name.split(".")[0] in from_random:
                tail = name.split(".")[-1]
                if tail == "Random" and seeded:
                    continue
                findings.append(
                    self.finding(
                        file,
                        node,
                        f"{name}(): global random module in library code; "
                        "use a seeded random.Random(seed) or "
                        "np.random.default_rng(seed)",
                    )
                )
            elif name == "time.time" or (
                name == "time" and "time" in from_time
            ):
                findings.append(
                    self.finding(
                        file,
                        node,
                        "time.time(): wall-clock read in library code; "
                        "inject a clock (cf. repro.runtime.limits "
                        "LimitTracker(clock=...))",
                    )
                )
        return findings


def _names_imported_from(tree: ast.Module, module: str) -> Set[str]:
    """Local names bound by ``from <module> import ...`` statements."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


@register
class ContextPropagationRule(BaseRule):
    """RPR005: thread pools must adopt the ambient execution context.

    :mod:`contextvars` values do not cross thread boundaries, so a
    ``ThreadPoolExecutor`` whose tasks are not wrapped in
    :func:`~repro.runtime.limits.adopt_context` silently drops the
    submitting thread's deadline, budgets and fault plan.  The rule
    flags any function that constructs a ``ThreadPoolExecutor`` without
    referencing ``adopt_context`` anywhere in its body (the wrapping
    closure counts -- that is exactly how
    :meth:`repro.serve.dispatch.Dispatcher.map` passes).
    """

    rule_id = "RPR005"
    summary = "ThreadPoolExecutor submit/map without adopt_context"

    def check(self, file: SourceFile) -> List[Finding]:
        """Flag pool construction in scopes that never adopt context."""
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or not name.endswith("ThreadPoolExecutor"):
                continue
            scope = file.enclosing_function(node) or file.tree
            if not _references(scope, "adopt_context"):
                findings.append(
                    self.finding(
                        file,
                        node,
                        "ThreadPoolExecutor without adopt_context: "
                        "worker threads lose the ambient "
                        "ExecutionContext (wrap tasks with "
                        "repro.runtime.limits.adopt_context)",
                    )
                )
        return findings


def _references(scope: ast.AST, identifier: str) -> bool:
    """Whether ``identifier`` appears as a name or attribute in scope."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and node.id == identifier:
            return True
        if isinstance(node, ast.Attribute) and node.attr == identifier:
            return True
    return False


@register
class FloatEqualityRule(BaseRule):
    """RPR006: no ``==`` / ``!=`` against float literals.

    Accumulated floating-point error makes exact comparison against a
    float literal a latent bug (the seed tree's
    ``dropped_mass == 0.0``); compare with a tolerance
    (:func:`math.isclose`, or ``<=`` against an epsilon) instead.
    Integer literals are untouched -- ``x == 0`` over ints is exact.
    """

    rule_id = "RPR006"
    summary = "== / != comparison against a float literal"

    def check(self, file: SourceFile) -> List[Finding]:
        """Flag equality comparisons whose operand is a float literal."""
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands: List[ast.expr] = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (operands[index], operands[index + 1])
                values = [
                    value
                    for value in map(_float_literal_value, pair)
                    if value is not None
                ]
                if values:
                    findings.append(
                        self.finding(
                            file,
                            node,
                            f"float-literal equality (against "
                            f"{values[0]!r}): use math.isclose or a "
                            "tolerance comparison",
                        )
                    )
        return findings


@register
class MaterialiseImportRule(BaseRule):
    """RPR008: no ``materialise`` imports outside :mod:`repro.core`.

    :func:`repro.core.backend.materialise` is the raw planned-compute
    entry point; code outside the core package that imports it skips
    the :class:`~repro.core.cache.PathMatrixCache` byte-budget
    accounting and the per-plan metrics that
    :class:`~repro.core.measures.base.MeasureContext` (and the cache's
    own methods) layer on top.  PR 6's bugfix removed exactly such a
    bypass from the PathSim baseline; this rule keeps new ones out.
    Library-internal exceptions (e.g. the degradation ladder, which
    *is* a limits-enforcement layer) are baselined with justification.
    """

    rule_id = "RPR008"
    summary = "materialise imported outside repro/core"

    def __init__(
        self,
        library_prefix: str = "src/repro",
        core_prefix: str = "src/repro/core/",
    ) -> None:
        self.library_prefix = library_prefix
        self.core_prefix = core_prefix

    def check(self, file: SourceFile) -> List[Finding]:
        """Flag ``from ... import materialise`` outside the core."""
        if not file.rel.startswith(self.library_prefix):
            return []
        if file.rel.startswith(self.core_prefix):
            return []
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if alias.name == "materialise":
                    findings.append(
                        self.finding(
                            file,
                            node,
                            "materialise import outside repro/core: "
                            "route path materialisation through "
                            "MeasureContext (repro.core.measures) or "
                            "PathMatrixCache so the byte budget and "
                            "plan metrics apply",
                        )
                    )
        return findings


@register
class ContextTokenRule(BaseRule):
    """RPR011: every ``ContextVar.set()`` token is ``reset()``.

    A token dropped on one path leaves the ambient context (limits,
    fault plans, span parents) permanently replaced for the rest of the
    thread's life -- exactly the class of bug ``adopt_context`` /
    ``execution_scope`` exist to prevent.

    The check is lexical.  ``token = VAR.set(...)`` on a module-level
    ``ContextVar`` must be followed directly by a ``try`` whose
    ``finally`` calls ``VAR.reset(token)``; that shape resets on every
    path out of the block.  A token that is returned, or stored on an
    attribute (an ``__enter__`` that its ``__exit__`` resets), is handed
    over to a new owner.  A bare ``VAR.set(...)`` statement discards
    the token and is always flagged.
    """

    rule_id = "RPR011"
    summary = (
        "ContextVar.set() token not reset() on every control-flow path"
    )

    def __init__(self, library_prefix: str = "src/repro") -> None:
        self.library_prefix = library_prefix

    def check(self, file: SourceFile) -> List[Finding]:
        """Flag unreset or discarded ``ContextVar.set`` tokens."""
        if not file.rel.startswith(self.library_prefix):
            return []
        declared = _context_vars(file.tree)
        if not declared:
            return []
        findings: List[Finding] = []
        # Every statement list: module, function, loop and branch
        # bodies, handlers, ``else`` and ``finally`` blocks.
        for node in ast.walk(file.tree):
            for _, block in ast.iter_fields(node):
                if isinstance(block, list):
                    findings.extend(
                        self._check_block(file, block, declared)
                    )
        return findings

    def _check_block(
        self,
        file: SourceFile,
        statements: List[ast.AST],
        declared: FrozenSet[str],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for position, stmt in enumerate(statements):
            if isinstance(stmt, ast.Expr):
                var = _context_var_set(stmt.value, declared)
                if var is not None:
                    findings.append(
                        self.finding(
                            file,
                            stmt,
                            f"`{var}.set(...)` token discarded; bind it "
                            "and `reset()` in `finally`",
                        )
                    )
                continue
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                continue  # an attribute target hands the token over
            var = _context_var_set(stmt.value, declared)
            if var is None:
                continue
            token = stmt.targets[0].id
            following = statements[position + 1 : position + 2]
            if following and _finally_resets(following[0], var, token):
                continue
            scope = file.enclosing_function(stmt) or file.tree
            if _handed_over(scope, token):
                continue
            findings.append(
                self.finding(
                    file,
                    stmt,
                    f"token of `{var}.set(...)` has a path to function "
                    "exit without `reset()`; reset in `finally`",
                )
            )
        return findings


def _context_vars(tree: ast.Module) -> FrozenSet[str]:
    """Module-level names bound to ``ContextVar(...)``."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if isinstance(target, ast.Name) and isinstance(value, ast.Call):
            ctor = dotted_name(value.func)
            if ctor is not None and ctor.rsplit(".", 1)[-1] == "ContextVar":
                names.add(target.id)
    return frozenset(names)


def _context_var_set(
    value: ast.expr, declared: FrozenSet[str]
) -> Optional[str]:
    """The receiver of a ``VAR.set(...)`` call on a declared variable."""
    if not (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "set"
    ):
        return None
    receiver = dotted_name(value.func.value)
    if receiver is None or receiver.rsplit(".", 1)[-1] not in declared:
        return None
    return receiver


def _finally_resets(stmt: ast.AST, var: str, token: str) -> bool:
    """``stmt`` is a ``try`` whose ``finally`` calls ``var.reset(token)``."""
    if not isinstance(stmt, ast.Try):
        return False
    for node in stmt.finalbody:
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "reset"
                and dotted_name(call.func.value) == var
                and any(
                    isinstance(arg, ast.Name) and arg.id == token
                    for arg in call.args
                )
            ):
                return True
    return False


def _handed_over(scope: ast.AST, token: str) -> bool:
    """``scope`` returns ``token`` or stores it on an attribute."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Return):
            value = node.value
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Attribute) for target in node.targets
        ):
            value = node.value
        else:
            continue
        if isinstance(value, ast.Name) and value.id == token:
            return True
    return False


def _float_literal_value(node: ast.expr) -> Optional[float]:
    """The value of a literal ``float`` constant (unary minus included)."""
    negate = False
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
        negate = True
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return -node.value if negate else node.value
    return None
