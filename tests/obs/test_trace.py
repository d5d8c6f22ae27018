"""Unit tests for the span tracer: nesting, threads, cost when off.

The ambient-span contextvar is module-global while :class:`Tracer`
instances are not, so tests build private tracers and never enable the
process-wide ``TRACER`` (the CLI owns that).
"""

from __future__ import annotations

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    ROOT_LIMIT,
    Span,
    Tracer,
    adopt_span,
    current_span,
)


class TestDisabledTracer:
    def test_span_is_the_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("anything", key="value") is NULL_SPAN

    def test_noop_supports_full_span_surface(self):
        with Tracer().span("x") as span:
            assert span is NULL_SPAN
            assert span.set(a=1) is span
            span.add_child(Span("child"))
            span.finish()
        assert span.duration_ms == 0.0
        assert current_span() is None

    def test_disabled_records_no_roots(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        assert tracer.roots == []


class TestNesting:
    def test_children_attach_to_ambient_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            assert current_span() is root
            with tracer.span("child") as child:
                with tracer.span("grandchild"):
                    pass
            assert current_span() is root
        assert current_span() is None
        assert [c.name for c in root.children] == ["child"]
        assert [c.name for c in child.children] == ["grandchild"]
        assert tracer.roots == [root]

    def test_attributes_and_set(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", path="APC") as span:
            span.set(nnz=42)
        assert span.attributes == {"path": "APC", "nnz": 42}

    def test_exception_recorded_and_reraised(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing"):
                raise ValueError("boom")
        (root,) = tracer.roots
        assert root.error == "ValueError: boom"
        assert root.seconds is not None

    def test_durations_are_stamped(self):
        tracer = Tracer(enabled=True)
        with tracer.span("timed") as span:
            assert span.seconds is None
        assert span.seconds >= 0.0
        assert span.duration_ms == span.seconds * 1e3

    def test_root_ring_is_bounded(self):
        tracer = Tracer(enabled=True)
        for index in range(ROOT_LIMIT + 10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.roots) == ROOT_LIMIT
        assert tracer.roots[0].name == "s10"
        tracer.reset()
        assert tracer.roots == []


class TestRendering:
    def test_to_dict_shape(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root", path="APC"):
            with tracer.span("child"):
                pass
        node = tracer.roots[0].to_dict()
        assert node["name"] == "root"
        assert node["attributes"] == {"path": "APC"}
        assert [c["name"] for c in node["children"]] == ["child"]
        assert "error" not in node

    def test_render_indents_children(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("child", nnz=3):
                pass
        text = tracer.roots[0].render()
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "[nnz=3]" in lines[1]


class TestThreadPropagation:
    def test_adopt_span_installs_and_restores(self):
        parent = Span("parent")
        assert current_span() is None
        with adopt_span(parent):
            assert current_span() is parent
        assert current_span() is None

    def test_adopt_none_is_noop_scope(self):
        with adopt_span(None):
            assert current_span() is None
