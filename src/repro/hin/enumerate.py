"""Meta-path enumeration over a schema.

Section 5.1 leaves path choice to the user ("select proper paths
according to domain knowledge", "try multiple relevance paths", or learn
weights).  Both the trying and the learning need a candidate set; this
module enumerates every relevance path between two object types up to a
length bound by walking the *schema* graph (forward relations and their
inverses), optionally excluding immediate back-tracking
(``A -R-> B -R^-1-> A``), which usually adds length without semantics.
"""

from __future__ import annotations

from typing import List

from .errors import PathError
from .metapath import MetaPath
from .schema import NetworkSchema, RelationType

__all__ = ["enumerate_paths", "enumerate_symmetric_paths"]


def _steps_from(schema: NetworkSchema, type_name: str) -> List[RelationType]:
    """Every relation (forward or inverse) leaving ``type_name``."""
    steps: List[RelationType] = []
    for relation in schema.relations:
        if relation.source.name == type_name:
            steps.append(relation)
        if relation.target.name == type_name:
            steps.append(relation.inverse())
    return steps


def enumerate_paths(
    schema: NetworkSchema,
    source: str,
    target: str,
    max_length: int,
    allow_backtrack: bool = True,
) -> List[MetaPath]:
    """All relevance paths from ``source`` to ``target`` type, length
    1..``max_length``.

    Parameters
    ----------
    source, target:
        Object-type names (validated against the schema).
    max_length:
        Inclusive bound on the number of relations.
    allow_backtrack:
        When True (default) a step may immediately invert the previous
        one -- these paths are usually meaningful at the meta level
        (``writes`` then ``writes^-1`` is co-authorship, the APA path).
        Set False to prune them when the candidate set must stay small;
        note this removes APA-style round trips too.

    Results are ordered by length, then lexicographically by relation
    names, so output is deterministic.
    """
    schema.object_type(source)
    schema.object_type(target)
    if max_length < 1:
        raise PathError(f"max_length must be >= 1, got {max_length}")

    results: List[MetaPath] = []

    def extend(prefix: List[RelationType], position: str) -> None:
        if len(prefix) >= max_length:
            return
        for step in sorted(
            _steps_from(schema, position), key=lambda r: r.name
        ):
            if (
                not allow_backtrack
                and prefix
                and step == prefix[-1].inverse()
            ):
                continue
            extended = prefix + [step]
            if step.target.name == target:
                results.append(MetaPath(schema, extended))
            extend(extended, step.target.name)

    extend([], source)
    results.sort(
        key=lambda path: (
            path.length,
            tuple(relation.name for relation in path.relations),
        )
    )
    return results


def enumerate_symmetric_paths(
    schema: NetworkSchema,
    type_name: str,
    max_length: int,
) -> List[MetaPath]:
    """All *symmetric* round-trip paths ``type -> ... -> type``.

    Built as ``PL + PL^-1`` for every half-path ``PL`` of length up to
    ``max_length // 2`` -- the construction PathSim requires and the form
    every same-typed similarity query uses (APA, APCPA, ...).
    """
    schema.object_type(type_name)
    if max_length < 2:
        raise PathError(f"max_length must be >= 2, got {max_length}")

    half_bound = max_length // 2
    seen = set()
    results: List[MetaPath] = []

    def extend(prefix: List[RelationType], position: str) -> None:
        if prefix:
            half = MetaPath(schema, prefix)
            round_trip = half.concat(half.reverse())
            if round_trip not in seen:
                seen.add(round_trip)
                results.append(round_trip)
        if len(prefix) >= half_bound:
            return
        for step in sorted(
            _steps_from(schema, position), key=lambda r: r.name
        ):
            if prefix and step == prefix[-1].inverse():
                continue
            extend(prefix + [step], step.target.name)

    extend([], type_name)
    results.sort(
        key=lambda path: (
            path.length,
            tuple(relation.name for relation in path.relations),
        )
    )
    return results
