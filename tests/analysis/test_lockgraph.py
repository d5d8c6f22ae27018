"""Fixture tests for RPR004: lock discipline and lock-order cycles.

The snippets exercise each part of the model separately: detection of
lock-disciplined classes, unlocked-mutation flagging, guaranteed-held
propagation into private helpers, nested-callable resets, and the
whole-project acquisition-graph cycle report.
"""

import ast
import textwrap

from repro.analysis import LockDisciplineRule
from repro.analysis.core import SourceFile


def lint(source, rel="src/repro/example.py", rule=None):
    """RPR004 findings (check + finalize) over one snippet."""
    rule = rule or LockDisciplineRule()
    code = textwrap.dedent(source)
    file = SourceFile(None, rel, code, ast.parse(code))
    return list(rule.check(file)) + list(rule.finalize())


LOCKED_CLASS = """\
import threading


class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value

    def get(self, key):
        return self._entries.get(key)
"""


class TestMutationDiscipline:
    def test_clean_class_silent(self):
        assert lint(LOCKED_CLASS) == []

    def test_unlocked_assignment_flagged_with_line(self):
        findings = lint(
            """\
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    self._entries[key] = value
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR004", 10)]
        assert "self._entries" in findings[0].message

    def test_unlocked_mutating_call_flagged(self):
        findings = lint(
            """\
            import threading


            class Log:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    self._items.append(item)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR004", 10)]

    def test_init_exempt(self):
        findings = lint(
            """\
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}
                    self._entries["warm"] = 1
            """
        )
        assert findings == []

    def test_public_attribute_not_tracked(self):
        findings = lint(
            """\
            import threading


            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    self.count = 1
            """
        )
        assert findings == []

    def test_undisciplined_class_ignored(self):
        findings = lint(
            """\
            class Plain:
                def put(self, key, value):
                    self._entries[key] = value
            """
        )
        assert findings == []

    def test_thread_safe_docstring_opts_in(self):
        findings = lint(
            '''\
            class Shared:
                """A thread-safe registry (lock managed externally)."""

                def put(self, key, value):
                    self._entries[key] = value
            '''
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR004", 5)]


class TestGuaranteedHeld:
    def test_private_helper_called_under_lock_is_clean(self):
        # The lookup() -> _touch() pattern: the helper mutates
        # without a lexical with-block, but its only caller holds the
        # lock, so the fixpoint proves it safe.
        findings = lint(
            """\
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._order = []

                def touch(self, key):
                    with self._lock:
                        self._touch(key)

                def _touch(self, key):
                    self._order.append(key)
            """
        )
        assert findings == []

    def test_helper_with_one_unlocked_caller_flagged(self):
        findings = lint(
            """\
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._order = []

                def touch(self, key):
                    with self._lock:
                        self._touch(key)

                def sloppy(self, key):
                    self._touch(key)

                def _touch(self, key):
                    self._order.append(key)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR004", 17)]

    def test_nested_callable_loses_lock(self):
        # A closure may run later on another thread; the held set must
        # not leak into it.
        findings = lint(
            """\
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def deferred(self, key, value):
                    with self._lock:
                        def write():
                            self._entries[key] = value
                        return write
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("RPR004", 12)]


class TestLockOrderCycles:
    def test_abba_cycle_reported(self):
        findings = lint(
            """\
            import threading


            class Transfer:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        cycles = [f for f in findings if "lock-order cycle" in f.message]
        assert len(cycles) == 1
        assert cycles[0].rule == "RPR004"
        assert "Transfer._a" in cycles[0].message
        assert "Transfer._b" in cycles[0].message

    def test_consistent_order_silent(self):
        findings = lint(
            """\
            import threading


            class Transfer:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def also_forward(self):
                    with self._a:
                        with self._b:
                            pass
            """
        )
        assert findings == []

    def test_cycle_through_callee_detected(self):
        # forward holds _a and calls a helper that acquires _b;
        # backward does the opposite -- the edge must flow through the
        # intra-class call graph.
        findings = lint(
            """\
            import threading


            class Transfer:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        self._grab_b()

                def _grab_b(self):
                    with self._b:
                        pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        cycles = [f for f in findings if "lock-order cycle" in f.message]
        assert len(cycles) == 1

    def test_reentrant_acquisition_not_a_cycle(self):
        findings = lint(
            """\
            import threading


            class Reentrant:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        assert findings == []
