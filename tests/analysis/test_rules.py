"""Fixture-driven tests for the local rule pack (RPR001-003, 005, 006, 008, 011).

Each rule gets at least one *bad* snippet (asserting the exact rule id
and line) and one *good* snippet (asserting silence), so every rule is
proven to both fire and not over-fire.
"""

import ast
import textwrap

import pytest

from repro.analysis import (
    ContextPropagationRule,
    ContextTokenRule,
    DensifyRule,
    FloatEqualityRule,
    MaterialiseImportRule,
    NondeterminismRule,
    TypedErrorRule,
)
from repro.analysis.core import SourceFile


def lint(rule, source, rel="src/repro/example.py"):
    """Findings of one rule over one in-memory snippet."""
    code = textwrap.dedent(source)
    file = SourceFile(None, rel, code, ast.parse(code))
    return list(rule.check(file)) + list(rule.finalize())


class TestDensifyRule:
    def test_toarray_flagged_with_line(self):
        findings = lint(
            DensifyRule(),
            """\
            def score(matrix):
                rows = matrix.sum(axis=1)
                return matrix.toarray()
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR001", 3)]

    def test_todense_flagged(self):
        findings = lint(DensifyRule(), "x = m.todense()\n")
        assert [(f.rule, f.line) for f in findings] == [("RPR001", 1)]

    def test_allowed_file_silent(self):
        findings = lint(
            DensifyRule(),
            "x = m.toarray()\n",
            rel="src/repro/core/backend.py",
        )
        assert findings == []

    def test_sparse_ops_silent(self):
        findings = lint(
            DensifyRule(),
            """\
            def chain(a, b):
                return (a @ b).tocsr()
            """,
        )
        assert findings == []


class TestTypedErrorRule:
    def test_bare_valueerror_flagged(self):
        findings = lint(
            TypedErrorRule(),
            """\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR002", 3)]

    @pytest.mark.parametrize(
        "name", ["RuntimeError", "KeyError", "TypeError", "IndexError", "Exception"]
    )
    def test_each_forbidden_builtin(self, name):
        findings = lint(TypedErrorRule(), f"raise {name}('x')\n")
        assert [f.rule for f in findings] == ["RPR002"]

    def test_repro_error_allowed(self):
        findings = lint(
            TypedErrorRule(),
            """\
            from repro.hin.errors import QueryError

            def f():
                raise QueryError("bad direction")
            """,
        )
        assert findings == []

    def test_bare_reraise_allowed(self):
        findings = lint(
            TypedErrorRule(),
            """\
            def f():
                try:
                    g()
                except Exception:
                    raise
            """,
        )
        assert findings == []

    def test_non_library_file_silent(self):
        findings = lint(
            TypedErrorRule(),
            "raise ValueError('tests may raise anything')\n",
            rel="tests/test_x.py",
        )
        assert findings == []

    def test_assertion_error_allowed(self):
        findings = lint(
            TypedErrorRule(), "raise AssertionError('invariant')\n"
        )
        assert findings == []


class TestNondeterminismRule:
    def test_seedless_default_rng_flagged(self):
        findings = lint(
            NondeterminismRule(),
            """\
            import numpy as np
            rng = np.random.default_rng()
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR003", 2)]

    def test_seeded_default_rng_allowed(self):
        findings = lint(
            NondeterminismRule(),
            "rng = np.random.default_rng(42)\n",
        )
        assert findings == []

    def test_global_random_flagged(self):
        findings = lint(
            NondeterminismRule(),
            """\
            import random
            x = random.random()
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR003", 2)]

    def test_seeded_random_instance_allowed(self):
        findings = lint(
            NondeterminismRule(),
            """\
            import random
            rng = random.Random(7)
            """,
        )
        assert findings == []

    def test_time_time_flagged(self):
        findings = lint(
            NondeterminismRule(),
            """\
            import time
            start = time.time()
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR003", 2)]

    def test_monotonic_allowed(self):
        findings = lint(
            NondeterminismRule(),
            """\
            import time
            start = time.perf_counter()
            elapsed = time.monotonic()
            """,
        )
        assert findings == []

    def test_allowed_file_silent(self):
        findings = lint(
            NondeterminismRule(),
            "import time\nnow = time.time()\n",
            rel="src/repro/runtime/limits.py",
        )
        assert findings == []


class TestContextPropagationRule:
    def test_pool_without_adopt_context_flagged(self):
        findings = lint(
            ContextPropagationRule(),
            """\
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(tasks):
                with ThreadPoolExecutor(4) as pool:
                    return list(pool.map(run, tasks))
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR005", 4)]

    def test_pool_with_adopt_context_allowed(self):
        findings = lint(
            ContextPropagationRule(),
            """\
            from concurrent.futures import ThreadPoolExecutor
            from repro.runtime.limits import adopt_context

            def fan_out(tasks):
                wrapped = [adopt_context(t) for t in tasks]
                with ThreadPoolExecutor(4) as pool:
                    return list(pool.map(lambda t: t(), wrapped))
            """,
        )
        assert findings == []


class TestFloatEqualityRule:
    def test_float_eq_flagged(self):
        findings = lint(
            FloatEqualityRule(),
            """\
            def is_exact(mass):
                return mass == 0.0
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR006", 2)]

    def test_float_noteq_flagged(self):
        findings = lint(FloatEqualityRule(), "ok = x != 1.5\n")
        assert [f.rule for f in findings] == ["RPR006"]

    def test_negative_float_literal_flagged(self):
        findings = lint(FloatEqualityRule(), "ok = x == -1.0\n")
        assert [f.rule for f in findings] == ["RPR006"]

    def test_integer_eq_allowed(self):
        findings = lint(FloatEqualityRule(), "ok = count == 0\n")
        assert findings == []

    def test_ordering_against_float_allowed(self):
        findings = lint(FloatEqualityRule(), "ok = mass <= 0.0\n")
        assert findings == []

    def test_isclose_pattern_allowed(self):
        findings = lint(
            FloatEqualityRule(),
            """\
            import math
            ok = mass <= 0.0 or math.isclose(mass, 0.0, abs_tol=1e-12)
            """,
        )
        assert findings == []


class TestMaterialiseImportRule:
    def test_import_outside_core_flagged_with_line(self):
        findings = lint(
            MaterialiseImportRule(),
            """\
            import numpy as np
            from repro.core.backend import materialise

            def score(graph, path):
                return materialise(graph, path)
            """,
            rel="src/repro/baselines/example.py",
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR008", 2)]
        assert "MeasureContext" in findings[0].message

    def test_relative_import_outside_core_flagged(self):
        findings = lint(
            MaterialiseImportRule(),
            "from ..core.backend import materialise\n",
            rel="src/repro/serve/example.py",
        )
        assert [f.rule for f in findings] == ["RPR008"]

    def test_core_file_allowed(self):
        findings = lint(
            MaterialiseImportRule(),
            "from ..backend import materialise\n",
            rel="src/repro/core/measures/example.py",
        )
        assert findings == []

    def test_other_names_from_backend_allowed(self):
        findings = lint(
            MaterialiseImportRule(),
            "from repro.core.backend import plan_chain\n",
            rel="src/repro/baselines/example.py",
        )
        assert findings == []

    def test_non_library_file_silent(self):
        findings = lint(
            MaterialiseImportRule(),
            "from repro.core.backend import materialise\n",
            rel="tests/test_x.py",
        )
        assert findings == []


class TestContextTokenRule:
    def test_unreset_token_flagged(self):
        findings = lint(
            ContextTokenRule(),
            """\
            from contextvars import ContextVar

            LIMITS = ContextVar("limits")

            def apply(ctx, fast):
                token = LIMITS.set(ctx)
                if fast:
                    return None
                LIMITS.reset(token)
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR011", 6)]

    def test_discarded_token_flagged(self):
        findings = lint(
            ContextTokenRule(),
            """\
            from contextvars import ContextVar

            LIMITS = ContextVar("limits")

            def apply(ctx):
                LIMITS.set(ctx)
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR011", 6)]

    def test_finally_reset_passes(self):
        findings = lint(
            ContextTokenRule(),
            """\
            from contextvars import ContextVar

            LIMITS = ContextVar("limits")

            def apply(ctx):
                token = LIMITS.set(ctx)
                try:
                    work()
                finally:
                    LIMITS.reset(token)
            """,
        )
        assert findings == []

    def test_returned_token_is_ownership_transfer(self):
        findings = lint(
            ContextTokenRule(),
            """\
            from contextvars import ContextVar

            LIMITS = ContextVar("limits")

            def enter(ctx):
                token = LIMITS.set(ctx)
                return token
            """,
        )
        assert findings == []

    def test_non_contextvar_set_ignored(self):
        findings = lint(
            ContextTokenRule(),
            """\
            from contextvars import ContextVar

            LIMITS = ContextVar("limits")

            def store(bag, value):
                bag.set(value)
            """,
        )
        assert findings == []

    def test_attribute_token_is_ownership_transfer(self):
        findings = lint(
            ContextTokenRule(),
            """\
            from contextvars import ContextVar

            LIMITS = ContextVar("limits")

            class Scope:
                def __enter__(self):
                    self._token = LIMITS.set(self)

                def __exit__(self, *exc_info):
                    LIMITS.reset(self._token)
            """,
        )
        assert findings == []

    def test_finally_without_reset_flagged(self):
        findings = lint(
            ContextTokenRule(),
            """\
            from contextvars import ContextVar

            LIMITS = ContextVar("limits")

            def apply(ctx):
                token = LIMITS.set(ctx)
                try:
                    work()
                finally:
                    cleanup(token)
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR011", 6)]
