"""Self-audit: the shipped tree must lint clean against the shipped baseline.

This is the test-suite twin of the blocking CI step: zero unbaselined
findings over ``src/repro`` *and* zero unused baseline entries, so the
baseline can only shrink -- a fixed site whose entry lingers fails the
build until the entry is deleted.
"""

from pathlib import Path

import pytest

from repro.analysis import load_baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint_baseline.toml"


@pytest.fixture(scope="module")
def audit():
    assert BASELINE.is_file(), "lint_baseline.toml missing from repo root"
    return run_lint(
        [SOURCE], root=REPO_ROOT, baseline=load_baseline(BASELINE)
    )


def test_no_unbaselined_findings(audit):
    formatted = "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in audit.findings
    )
    assert audit.ok, (
        "src/repro has unbaselined lint findings; fix them or add a "
        f"justified baseline entry:\n{formatted}"
    )


def test_no_stale_baseline_entries(audit):
    stale = "\n".join(
        f"{entry.rule} {entry.path} ({entry.reason})"
        for entry in audit.unused
    )
    assert not audit.unused, (
        f"stale lint_baseline.toml entries (their sites are fixed -- "
        f"delete them):\n{stale}"
    )


def test_every_baseline_entry_is_justified(audit):
    baseline = load_baseline(BASELINE)
    for entry in baseline.suppressions:
        assert entry.reason.strip(), f"{entry} lacks a justification"
        assert "unreviewed" not in entry.reason, (
            f"{entry.rule} {entry.path}: placeholder --write-baseline "
            "reason was committed; write a real justification"
        )


def test_audit_covered_the_tree(audit):
    # Guards against the audit silently linting an empty directory.
    assert audit.files_checked > 50


def test_project_rules_are_registered_and_ran():
    # The project pass is part of the audit: every project-scoped rule
    # must be in the default pack, so a clean audit really means the
    # cross-module invariants held (not that the rules were dropped).
    from repro.analysis import registered_rules

    assert {"RPR011", "RPR012", "RPR013"} <= set(registered_rules())


def test_project_findings_all_baselined(audit):
    # No *unbaselined* project-rule findings; the baselined RPR013
    # entries are the documented core->runtime/serve inversions.
    project_rules = {"RPR011", "RPR012", "RPR013"}
    leaked = [f for f in audit.findings if f.rule in project_rules]
    assert leaked == [], [f.location() for f in leaked]


def test_metrics_catalogue_matches_docs(audit):
    # RPR012 runs unbaselined: the catalogue in docs/observability.md
    # and the registrations in src/repro must agree exactly.
    suppressed_rules = {f.rule for f in audit.suppressed}
    assert "RPR012" not in suppressed_rules
    assert not any(f.rule == "RPR012" for f in audit.findings)
