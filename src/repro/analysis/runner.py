"""The lint driver: discover files, parse each once, run the rule pack.

:func:`run_lint` is what the CLI (``hetesim lint``), CI and the
self-audit test call.  Every file is parsed exactly once, in order on
the calling thread (concurrent ``ast.parse`` calls can fail on CPython
3.11, and a parse pool measured slower than parsing in order), and the
same :class:`~repro.analysis.core.SourceFile` is handed to every rule.
After the per-file pass, the successfully parsed set is wrapped in one
:class:`~repro.analysis.project.ProjectContext` and every rule's
:meth:`~repro.analysis.core.Rule.check_project` runs once over it --
the project pass behind RPR012-RPR014.  Files that fail to parse are
reported as rule ``RPR000`` findings rather than crashing the run.

``select`` / ``ignore`` filter the rule pack by id (the CLI's
``--select`` / ``--ignore``); unknown ids are a hard
:class:`~repro.hin.errors.AnalysisError` so a typo cannot silently
disable a check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, List, Optional, Sequence, Union

from ..hin.errors import AnalysisError
from .baseline import Baseline, Suppression
from .core import Finding, Rule, SourceFile, default_rules, registered_rules
from .project import ProjectContext

__all__ = ["LintResult", "run_lint", "iter_python_files"]

#: Rule id under which unparseable files are reported.
SYNTAX_RULE = "RPR000"


@dataclass
class LintResult:
    """Outcome of one lint run.

    ``findings`` are the *unbaselined* violations (what blocks CI);
    ``suppressed`` were matched by the baseline; ``unused`` lists
    baseline entries that covered nothing (stale debt worth deleting).
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    unused: List[Suppression] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing unbaselined was found."""
        return not self.findings


def iter_python_files(
    paths: Iterable[Union[str, Path]],
) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen = {}
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            seen[candidate.resolve()] = candidate
    return [seen[key] for key in sorted(seen)]


def run_lint(
    paths: Sequence[Union[str, Path]],
    *,
    root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    select: Optional[Collection[str]] = None,
    ignore: Collection[str] = (),
) -> LintResult:
    """Lint ``paths`` and return a :class:`LintResult`.

    ``root`` anchors the relative paths findings (and baseline entries)
    carry; it defaults to the current working directory.  ``rules``
    defaults to the registered pack
    (:func:`~repro.analysis.core.default_rules`).

    ``select`` (when given) keeps only the named rule ids; ``ignore``
    drops the named ids afterwards.  Both accept ``RPR000`` to control
    syntax-error reporting; any other unknown id raises
    :class:`~repro.hin.errors.AnalysisError`.
    """
    root_dir = Path(root) if root is not None else Path.cwd()
    active: List[Rule] = list(rules) if rules is not None else list(default_rules())
    active = _filter_rules(active, select, ignore)
    report_syntax = _syntax_rule_active(select, ignore)
    files = iter_python_files(paths)

    findings: List[Finding] = []
    sources: List[SourceFile] = []
    for path in files:
        outcome = _parse_one(path, root_dir)
        if isinstance(outcome, Finding):
            if report_syntax:
                findings.append(outcome)
            continue
        sources.append(outcome)
        for rule in active:
            findings.extend(rule.check(outcome))
    project = ProjectContext(sources, root_dir)
    for rule in active:
        # getattr: ad-hoc rule objects predating the project pass (tests,
        # third-party packs) may implement only check/finalize.
        project_pass = getattr(rule, "check_project", None)
        if project_pass is not None:
            findings.extend(project_pass(project))
    for rule in active:
        findings.extend(rule.finalize())
    findings.sort()

    result = LintResult(files_checked=len(files))
    if baseline is None:
        result.findings = findings
    else:
        result.findings, result.suppressed, result.unused = (
            baseline.partition(findings)
        )
    return result


def _filter_rules(
    rules: List[Rule],
    select: Optional[Collection[str]],
    ignore: Collection[str],
) -> List[Rule]:
    """Apply ``select`` / ``ignore`` to the active pack, validating ids."""
    if select is None and not ignore:
        return rules
    known = set(registered_rules()) | {rule.rule_id for rule in rules}
    known.add(SYNTAX_RULE)
    for requested in list(select or []) + list(ignore):
        if requested not in known:
            raise AnalysisError(
                f"unknown rule id {requested!r} in --select/--ignore "
                f"(known: {', '.join(sorted(known))})"
            )
    kept = rules
    if select is not None:
        wanted = set(select)
        kept = [rule for rule in kept if rule.rule_id in wanted]
    if ignore:
        dropped = set(ignore)
        kept = [rule for rule in kept if rule.rule_id not in dropped]
    return kept


def _syntax_rule_active(
    select: Optional[Collection[str]], ignore: Collection[str]
) -> bool:
    """Whether RPR000 parse-failure findings should be reported."""
    if SYNTAX_RULE in ignore:
        return False
    if select is not None and SYNTAX_RULE not in select:
        return False
    return True


def _parse_one(path: Path, root_dir: Path) -> Union[SourceFile, Finding]:
    """One file's :class:`SourceFile`, or an ``RPR000`` finding."""
    rel = _relative(path, root_dir)
    try:
        return SourceFile.parse(path, rel)
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return Finding(
            path=rel,
            line=int(line),
            rule=SYNTAX_RULE,
            severity="error",
            message=f"file could not be parsed: {exc}",
        )


def _relative(path: Path, root_dir: Path) -> str:
    """POSIX-form path relative to the lint root (absolute if outside)."""
    try:
        return path.resolve().relative_to(root_dir.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
