"""Host introspection: how many CPUs this process can run on in parallel."""

from __future__ import annotations

import os

__all__ = ["usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process can actually burn in parallel.

    Scheduler affinity, clamped by the cgroup-v2 CPU quota when one is
    set: a container pinned to one core frequently still *sees* every
    host CPU in its affinity mask, and sizing a worker pool off that
    number buys pure overhead.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    try:
        with open("/sys/fs/cgroup/cpu.max", "r", encoding="ascii") as fh:
            quota_text, period_text = fh.read().split()[:2]
        if quota_text != "max":
            cpus = min(
                cpus, max(1, int(quota_text) // int(period_text))
            )
    except (OSError, ValueError, IndexError):
        pass
    return max(1, cpus)
