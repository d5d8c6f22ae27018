"""Project-scoped rules: RPR012 (metrics), RPR013 (layers)."""

import ast
import textwrap
from pathlib import Path

from repro.analysis import ImportLayeringRule, MetricsCatalogueRule
from repro.analysis.core import SourceFile
from repro.analysis.project import ProjectContext


def source(rel, code):
    text = textwrap.dedent(code)
    return SourceFile(None, rel, text, ast.parse(text))


def project(files, root=None):
    return ProjectContext(
        [source(rel, code) for rel, code in files],
        root if root is not None else Path("/nonexistent-lint-root"),
    )


def run(rule, files, root=None):
    findings = rule.check_project(project(files, root))
    return [(f.rule, f.path, f.line) for f in findings], findings


class TestMetricsCatalogueRule:
    def test_duplicate_registration_flagged_at_second_site(self):
        triples, findings = run(
            MetricsCatalogueRule(),
            [
                (
                    "src/repro/obs/a.py",
                    'DUP = REGISTRY.counter("repro_dup_total", "h")\n',
                ),
                (
                    "src/repro/obs/b.py",
                    'DUP = REGISTRY.counter("repro_dup_total", "h")\n',
                ),
            ],
        )
        assert triples == [("RPR012", "src/repro/obs/b.py", 1)]
        assert "registered more than once" in findings[0].message
        assert "src/repro/obs/a.py:1" in findings[0].message

    def test_kind_conflict_flagged_at_every_site(self):
        triples, findings = run(
            MetricsCatalogueRule(),
            [
                (
                    "src/repro/obs/a.py",
                    'X = REGISTRY.counter("repro_x_total", "h")\n',
                ),
                (
                    "src/repro/obs/b.py",
                    'X = REGISTRY.gauge("repro_x_total", "h")\n',
                ),
            ],
        )
        kind_findings = [
            f for f in findings if "registered as" in f.message
        ]
        assert {f.path for f in kind_findings} == {
            "src/repro/obs/a.py",
            "src/repro/obs/b.py",
        }

    def test_minority_label_set_flagged(self):
        triples, findings = run(
            MetricsCatalogueRule(),
            [
                (
                    "src/repro/obs/m.py",
                    """\
                    HITS = REGISTRY.counter("repro_hits_total", "h")

                    def a(engine):
                        HITS.labels(engine=engine).inc()

                    def b(engine):
                        HITS.labels(engine=engine).inc()

                    def c():
                        HITS.inc()
                    """,
                ),
            ],
        )
        assert triples == [("RPR012", "src/repro/obs/m.py", 10)]
        assert "label set [] here but ['engine']" in findings[0].message

    def test_import_alias_attributes_to_defining_family(self):
        # The label site lives in a module that imports the family;
        # one resolution hop must attribute it to the real metric.
        triples, findings = run(
            MetricsCatalogueRule(),
            [
                (
                    "src/repro/obs/base.py",
                    """\
                    FAM = REGISTRY.counter("repro_fam_total", "h")

                    def a():
                        FAM.labels(engine="e").inc()

                    def b():
                        FAM.labels(engine="e").inc()
                    """,
                ),
                (
                    "src/repro/core/user.py",
                    """\
                    from repro.obs.base import FAM as METRIC

                    def c(cache):
                        METRIC.labels(cache=cache).inc()
                    """,
                ),
            ],
        )
        assert triples == [("RPR012", "src/repro/core/user.py", 4)]
        assert "repro_fam_total" in findings[0].message

    def test_consistent_usage_silent(self):
        triples, _ = run(
            MetricsCatalogueRule(),
            [
                (
                    "src/repro/obs/m.py",
                    """\
                    HITS = REGISTRY.counter("repro_hits_total", "h")

                    def a(engine):
                        HITS.labels(engine=engine).inc()
                    """,
                ),
            ],
        )
        assert triples == []

    def test_doc_cross_check(self, tmp_path):
        doc = tmp_path / "docs" / "observability.md"
        doc.parent.mkdir()
        doc.write_text(
            "| `repro_doc_total` | counter | - | documented |\n"
            "| `repro_ghost_total` | counter | - | stale row |\n"
        )
        triples, findings = run(
            MetricsCatalogueRule(),
            [
                (
                    "src/repro/obs/m.py",
                    'DOC = REGISTRY.counter("repro_doc_total", "h")\n'
                    'UNDOC = REGISTRY.counter("repro_undoc_total", "h")\n',
                ),
            ],
            root=tmp_path,
        )
        assert sorted(triples) == [
            ("RPR012", "docs/observability.md", 2),
            ("RPR012", "src/repro/obs/m.py", 2),
        ]
        by_path = {f.path: f.message for f in findings}
        assert "not registered anywhere" in by_path["docs/observability.md"]
        assert "not in the catalogue" in by_path["src/repro/obs/m.py"]

    def test_missing_doc_file_skips_doc_check(self):
        triples, _ = run(
            MetricsCatalogueRule(),
            [
                (
                    "src/repro/obs/m.py",
                    'X = REGISTRY.counter("repro_x_total", "h")\n',
                ),
            ],
        )
        assert triples == []


class TestImportLayeringRule:
    def test_upward_top_level_import_flagged(self):
        triples, findings = run(
            ImportLayeringRule(),
            [
                (
                    "src/repro/hin/graph.py",
                    "from repro.core.engine import HeteSimEngine\n",
                ),
                ("src/repro/core/engine.py", "class HeteSimEngine:\n    pass\n"),
            ],
        )
        assert triples == [("RPR013", "src/repro/hin/graph.py", 1)]
        assert findings[0].message.startswith("top-level import")

    def test_upward_lazy_import_flagged_as_lazy(self):
        triples, findings = run(
            ImportLayeringRule(),
            [
                (
                    "src/repro/core/engine.py",
                    """\
                    def warm():
                        from repro.serve.dispatch import Dispatcher
                        return Dispatcher
                    """,
                ),
            ],
        )
        assert triples == [("RPR013", "src/repro/core/engine.py", 2)]
        assert findings[0].message.startswith("lazy import")

    def test_downward_and_same_layer_imports_silent(self):
        triples, _ = run(
            ImportLayeringRule(),
            [
                (
                    "src/repro/core/engine.py",
                    "from repro.hin.graph import HeteroGraph\n"
                    "from repro.core.backend import execute_plan\n",
                ),
                ("src/repro/hin/graph.py", "class HeteroGraph:\n    pass\n"),
                ("src/repro/core/backend.py", "def execute_plan():\n    pass\n"),
            ],
        )
        assert triples == []

    def test_top_level_cycle_reported_once_at_first_member(self):
        triples, findings = run(
            ImportLayeringRule(),
            [
                (
                    "src/repro/core/alpha.py",
                    "from repro.core import beta\n",
                ),
                (
                    "src/repro/core/beta.py",
                    "import repro.core.alpha\n",
                ),
            ],
        )
        assert triples == [("RPR013", "src/repro/core/alpha.py", 1)]
        assert (
            "top-level import cycle: repro.core.alpha -> repro.core.beta"
            " -> repro.core.alpha" in findings[0].message
        )

    def test_lazy_back_edge_breaks_no_cycle(self):
        triples, _ = run(
            ImportLayeringRule(),
            [
                (
                    "src/repro/core/alpha.py",
                    """\
                    def late():
                        import repro.core.beta
                    """,
                ),
                ("src/repro/core/beta.py", "import repro.core.alpha\n"),
            ],
        )
        assert triples == []
