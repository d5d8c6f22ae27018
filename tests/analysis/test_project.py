"""ProjectContext: module naming and import resolution."""

import ast
import textwrap
from pathlib import Path

from repro.analysis.core import SourceFile
from repro.analysis.project import ProjectContext, module_name_for


def source(rel, code):
    text = textwrap.dedent(code)
    return SourceFile(None, rel, text, ast.parse(text))


def project(*files):
    return ProjectContext([source(rel, code) for rel, code in files], Path("."))


class TestModuleNaming:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/hin/graph.py") == "repro.hin.graph"

    def test_init_names_the_package(self):
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"

    def test_plain_layout_without_src(self):
        assert module_name_for("tools/check.py") == "tools.check"

    def test_non_python_and_non_identifier_rejected(self):
        assert module_name_for("README.md") is None
        assert module_name_for("src/bench-results/x.py") is None


class TestImportResolution:
    def test_absolute_and_relative_imports(self):
        ctx = project(
            (
                "src/repro/core/engine.py",
                """\
                import os
                from repro.hin import graph
                from .backend import materialise
                from ..hin.errors import AnalysisError
                """,
            )
        )
        edges = ctx.modules["repro.core.engine"].imports
        assert [(e.target, e.top_level) for e in edges] == [
            ("os", True),
            ("repro.hin", True),
            ("repro.core.backend", True),
            ("repro.hin.errors", True),
        ]

    def test_package_init_level_one_is_the_package_itself(self):
        # The shape that regressed during development: ``from .core
        # import X`` inside ``repro/analysis/__init__.py`` must resolve
        # to repro.analysis.core, not repro.core.
        ctx = project(
            (
                "src/repro/analysis/__init__.py",
                "from .core import Finding\n",
            )
        )
        edges = ctx.modules["repro.analysis"].imports
        assert [e.target for e in edges] == ["repro.analysis.core"]

    def test_over_deep_relative_import_dropped(self):
        ctx = project(("src/repro/top.py", "from ...nowhere import x\n"))
        assert ctx.modules["repro.top"].imports == []

    def test_lazy_import_tagged(self):
        ctx = project(
            (
                "src/repro/core/engine.py",
                """\
                def warm():
                    from repro.serve.dispatch import Dispatcher
                    return Dispatcher
                """,
            )
        )
        (edge,) = ctx.modules["repro.core.engine"].imports
        assert edge.target == "repro.serve.dispatch"
        assert not edge.top_level

    def test_type_checking_imports_erased(self):
        ctx = project(
            (
                "src/repro/core/a.py",
                """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.serve.dispatch import Dispatcher
                """,
            )
        )
        targets = {e.target for e in ctx.modules["repro.core.a"].imports}
        assert targets == {"typing"}

    def test_bound_names_track_asname(self):
        ctx = project(
            ("src/repro/m.py", "from .base import FAMILY as METRIC\n")
        )
        (edge,) = ctx.modules["repro.m"].imports
        assert edge.names == ("FAMILY",)
        assert edge.bound == ("METRIC",)
