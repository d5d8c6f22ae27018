"""Automatic object profiling as a first-class feature (Task 1).

Tables 1-2 are instances of a general operation: given one object, find
its top related objects *of every other type*.  :func:`build_profile`
automates the path choice that the paper leaves to the user for the
common case -- for each target type it takes the *shortest* relevance
path from the object's type (ties broken deterministically), computes
the top-k, and returns a structured profile that renders to text.

For full control (specific paths, learned weights) use
:meth:`HeteSimEngine.profile` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hin.enumerate import enumerate_paths
from ..hin.errors import QueryError
from ..hin.metapath import MetaPath
from .engine import HeteSimEngine

__all__ = ["ProfileSection", "ObjectProfile", "build_profile"]


@dataclass
class ProfileSection:
    """Top related objects of one target type.

    Attributes
    ----------
    target_type:
        The profiled dimension (e.g. ``"conference"``).
    path:
        The relevance path used.
    ranking:
        Top-k ``(key, score)`` pairs.
    """

    target_type: str
    path: MetaPath
    ranking: List[Tuple[str, float]]


@dataclass
class ObjectProfile:
    """A full multi-type profile of one object (Tables 1-2 generalised)."""

    object_type: str
    object_key: str
    sections: List[ProfileSection]

    def section(self, target_type: str) -> ProfileSection:
        """The section for one target type (raises :class:`QueryError`)."""
        for candidate in self.sections:
            if candidate.target_type == target_type:
                return candidate
        raise QueryError(
            f"profile has no section for type {target_type!r} "
            f"(has: {[s.target_type for s in self.sections]})"
        )

    def to_text(self) -> str:
        """Human-readable rendering (one block per section)."""
        lines = [f"Profile of {self.object_type} {self.object_key!r}:"]
        for section in self.sections:
            lines.append(
                f"  {section.target_type} (path {section.path.code()}):"
            )
            for rank, (key, score) in enumerate(section.ranking, start=1):
                lines.append(f"    {rank}. {key}  {score:.4f}")
        return "\n".join(lines)


def build_profile(
    engine: HeteSimEngine,
    object_type: str,
    object_key: str,
    k: int = 5,
    max_path_length: int = 4,
    target_types: Optional[Sequence[str]] = None,
) -> ObjectProfile:
    """Profile one object against every reachable type.

    Parameters
    ----------
    engine:
        Engine over the network.
    object_type / object_key:
        The object to profile.
    k:
        Results per section.
    max_path_length:
        Bound for the automatic path search.
    target_types:
        Restrict the profile to these types (default: every type except
        the object's own, in schema order; unreachable types are simply
        omitted).

    The path chosen per type is the shortest enumerated relevance path;
    among equal-length candidates the lexicographically first relation
    sequence wins, so profiles are deterministic.
    """
    graph = engine.graph
    if not graph.has_node(object_type, object_key):
        raise QueryError(
            f"{object_key!r} is not a {object_type!r} node"
        )
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")

    if target_types is None:
        target_types = [
            t.name
            for t in graph.schema.object_types
            if t.name != object_type
        ]

    sections: List[ProfileSection] = []
    for target in target_types:
        candidates = enumerate_paths(
            graph.schema, object_type, target, max_length=max_path_length
        )
        if not candidates:
            continue
        path = candidates[0]  # shortest, lexicographically first
        ranking = engine.top_k(object_key, path, k=k)
        sections.append(
            ProfileSection(target_type=target, path=path, ranking=ranking)
        )
    return ObjectProfile(
        object_type=object_type, object_key=object_key, sections=sections
    )
