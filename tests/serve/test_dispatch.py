"""The host CPU count that serving worker counts are compared against.

The thread fan-out itself is :func:`repro.core.scope.fan_out`
(``tests/core/test_scope.py``); one build per key under concurrency is
the cache's job (``tests/core/test_cache.py::TestGetOrBuild``).
"""

from __future__ import annotations

from repro.serve import usable_cpus


def test_usable_cpus_positive():
    assert usable_cpus() >= 1
