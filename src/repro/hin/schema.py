"""Network schemas for heterogeneous information networks.

Definition 1 of the paper models an information network as a directed graph
``G = (V, E)`` with an object-type mapping ``phi: V -> A`` and a link-type
mapping ``psi: E -> R`` drawn from a *schema* ``S = (A, R)``.  This module
implements the schema half of that definition:

* :class:`ObjectType` -- a named node type (``A`` in the paper), e.g.
  ``author`` with short code ``A``.
* :class:`RelationType` -- a named, directed relation ``A -R-> B`` between
  two object types, together with its inverse ``R^-1`` (``B -> A``).
* :class:`NetworkSchema` -- the full schema: a set of object types plus a
  set of relations, with lookup helpers used by meta-path parsing.

Short codes
-----------
The paper abbreviates meta paths by single-letter type codes (``APVC`` =
Author-Paper-Venue-Conference).  Every :class:`ObjectType` therefore carries
a ``code`` -- a short, unique, upper-case identifier -- so that
:meth:`NetworkSchema.path` can parse the compact string form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .errors import SchemaError

if TYPE_CHECKING:
    from .metapath import MetaPath

__all__ = ["ObjectType", "RelationType", "NetworkSchema"]

#: Parsed compact path strings memoised per schema.  A fixed-size LRU:
#: network clients can send any path string.
PATH_MEMO_SIZE = 256


@dataclass(frozen=True)
class ObjectType:
    """A node type in the schema (an element of ``A`` in Definition 1).

    Parameters
    ----------
    name:
        Full human-readable name, e.g. ``"author"``.  Unique per schema.
    code:
        Short upper-case code used in compact meta-path strings, e.g.
        ``"A"``.  Unique per schema.
    """

    name: str
    code: str

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("object type name must be non-empty")
        if not self.code:
            raise SchemaError("object type code must be non-empty")
        if not self.code.isupper():
            raise SchemaError(
                f"object type code {self.code!r} must be upper-case "
                "(codes are used in compact meta-path strings)"
            )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class RelationType:
    """A directed relation ``A -R-> B`` between two object types.

    ``source`` is ``R.S`` and ``target`` is ``R.T`` in the paper's notation.
    The inverse relation ``R^-1`` (``B -> A``) always exists implicitly; it
    is exposed via :meth:`inverse`.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"writes"``.  Unique per schema together with
        its endpoint pair.
    source, target:
        The endpoint object types.
    """

    name: str
    source: ObjectType
    target: ObjectType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")

    @property
    def endpoints(self) -> Tuple[ObjectType, ObjectType]:
        """``(source, target)`` pair."""
        return (self.source, self.target)

    def inverse(self) -> "RelationType":
        """Return the inverse relation ``R^-1`` (``target -> source``).

        Following the paper, ``R^-1`` holds naturally for every relation;
        the inverse of a relation named ``"writes"`` is named
        ``"writes^-1"``, and inverting twice restores the original name.
        """
        if self.name.endswith("^-1"):
            inv_name = self.name[: -len("^-1")]
        else:
            inv_name = self.name + "^-1"
        return RelationType(inv_name, self.target, self.source)

    @property
    def is_self_relation(self) -> bool:
        """True when source and target types coincide."""
        return self.source == self.target

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.source.name}-[{self.name}]->{self.target.name}"


class NetworkSchema:
    """A heterogeneous-network schema ``S = (A, R)`` (Definition 1).

    The schema owns a set of :class:`ObjectType` and a set of
    :class:`RelationType` whose endpoints are registered object types.  It
    provides the lookups required by meta-path parsing: by type name, by
    short code, and by endpoint pair.

    Examples
    --------
    >>> schema = NetworkSchema()
    >>> author = schema.add_object_type("author", "A")
    >>> paper = schema.add_object_type("paper", "P")
    >>> writes = schema.add_relation("writes", "author", "paper")
    >>> schema.relation_between("author", "paper").name
    'writes'
    """

    def __init__(self) -> None:
        from .metapath import parse_path

        self._types_by_name: Dict[str, ObjectType] = {}
        self._types_by_code: Dict[str, ObjectType] = {}
        self._relations: Dict[str, RelationType] = {}
        # (source name, target name) -> list of relations in that direction
        self._by_endpoints: Dict[Tuple[str, str], List[RelationType]] = {}
        # Compact string spec -> parsed MetaPath (immutable, so one
        # instance can be shared); thread-safe, and a spec that raises
        # is not stored.
        self._parse_code: Callable[[str], "MetaPath"] = functools.lru_cache(
            maxsize=PATH_MEMO_SIZE
        )(functools.partial(parse_path, self))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_object_type(self, name: str, code: Optional[str] = None) -> ObjectType:
        """Register a new object type and return it.

        ``code`` defaults to the upper-cased first letter of ``name``.
        Raises :class:`SchemaError` on duplicate names or codes.
        """
        if code is None:
            code = name[0].upper()
        if name in self._types_by_name:
            raise SchemaError(f"duplicate object type name {name!r}")
        if code in self._types_by_code:
            raise SchemaError(
                f"duplicate object type code {code!r} "
                f"(already used by {self._types_by_code[code].name!r})"
            )
        otype = ObjectType(name, code)
        self._types_by_name[name] = otype
        self._types_by_code[code] = otype
        self._clear_path_memo()
        return otype

    def add_relation(
        self,
        name: str,
        source: str,
        target: str,
    ) -> RelationType:
        """Register a relation ``source -name-> target`` and return it.

        Endpoints are given by object-type *name*; both must already be
        registered.  The inverse relation is available implicitly via
        :meth:`RelationType.inverse` and is also resolvable through
        :meth:`relation_between` in the reverse direction.
        """
        if name in self._relations:
            raise SchemaError(f"duplicate relation name {name!r}")
        src = self.object_type(source)
        tgt = self.object_type(target)
        rel = RelationType(name, src, tgt)
        self._relations[name] = rel
        self._by_endpoints.setdefault((src.name, tgt.name), []).append(rel)
        self._clear_path_memo()
        return rel

    def _clear_path_memo(self) -> None:
        """Forget parsed paths: a new type or relation can change what a
        code string means (or make it ambiguous)."""
        self._parse_code.cache_clear()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def object_type(self, name: str) -> ObjectType:
        """Look up an object type by full name (raises :class:`SchemaError`)."""
        try:
            return self._types_by_name[name]
        except KeyError:
            raise SchemaError(f"unknown object type {name!r}") from None

    def object_type_by_code(self, code: str) -> ObjectType:
        """Look up an object type by short code (raises :class:`SchemaError`)."""
        try:
            return self._types_by_code[code]
        except KeyError:
            raise SchemaError(f"unknown object type code {code!r}") from None

    def has_object_type(self, name: str) -> bool:
        """True when an object type with this full name is registered."""
        return name in self._types_by_name

    def relation(self, name: str) -> RelationType:
        """Look up a relation by name.

        Names ending in ``^-1`` resolve to the inverse of the base relation,
        so ``schema.relation("writes^-1")`` works without separate
        registration.
        """
        if name in self._relations:
            return self._relations[name]
        if name.endswith("^-1"):
            base = name[: -len("^-1")]
            if base in self._relations:
                return self._relations[base].inverse()
        raise SchemaError(f"unknown relation {name!r}")

    def has_relation(self, name: str) -> bool:
        """True when ``name`` resolves via :meth:`relation`."""
        try:
            self.relation(name)
        except SchemaError:
            return False
        return True

    def relations_between(self, source: str, target: str) -> List[RelationType]:
        """All relations from ``source`` to ``target`` (by type name).

        Includes inverses of relations registered in the opposite
        direction, so that a meta path may traverse any edge backwards.
        Forward registrations come first.
        """
        forward = list(self._by_endpoints.get((source, target), []))
        backward = [
            rel.inverse()
            for rel in self._by_endpoints.get((target, source), [])
        ]
        # A self-relation appears in both lists as itself + its inverse;
        # keep both since they are distinct direction choices.
        return forward + backward

    def relation_between(self, source: str, target: str) -> RelationType:
        """The unique relation from ``source`` to ``target``.

        This is the lookup used when parsing compact meta-path strings
        (``"APVC"``), which -- per the paper -- is only unambiguous when at
        most one relation exists between each type pair.  Raises
        :class:`SchemaError` when zero or several relations qualify.
        """
        candidates = self.relations_between(source, target)
        if not candidates:
            raise SchemaError(
                f"no relation between {source!r} and {target!r}"
            )
        if len(candidates) > 1:
            names = [rel.name for rel in candidates]
            raise SchemaError(
                f"ambiguous relation between {source!r} and {target!r}: "
                f"{names}; use explicit relation names"
            )
        return candidates[0]

    # ------------------------------------------------------------------
    # meta-path construction (delegates to repro.hin.metapath)
    # ------------------------------------------------------------------
    def path(self, spec) -> "MetaPath":
        """Parse ``spec`` into a :class:`repro.hin.metapath.MetaPath`.

        ``spec`` may be a compact code string (``"APVC"``), a sequence of
        type names (``["author", "paper", "venue"]``), or a sequence of
        relation names.  See :func:`repro.hin.metapath.parse_path`.

        Parsed code strings are memoised in a :data:`PATH_MEMO_SIZE`
        entry LRU, cleared whenever the schema gains a type or a
        relation; a spec that fails to parse is never stored.
        """
        if isinstance(spec, str):
            return self._parse_code(spec)
        from .metapath import parse_path

        return parse_path(self, spec)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def object_types(self) -> List[ObjectType]:
        """All registered object types, in registration order."""
        return list(self._types_by_name.values())

    @property
    def relations(self) -> List[RelationType]:
        """All registered (forward) relations, in registration order."""
        return list(self._relations.values())

    @property
    def is_heterogeneous(self) -> bool:
        """Definition 1: heterogeneous iff ``|A| > 1`` or ``|R| > 1``."""
        return len(self._types_by_name) > 1 or len(self._relations) > 1

    def __contains__(self, name: str) -> bool:
        return name in self._types_by_name

    def __iter__(self) -> Iterator[ObjectType]:
        return iter(self._types_by_name.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkSchema(types={[t.name for t in self.object_types]}, "
            f"relations={[r.name for r in self.relations]})"
        )

    def to_dot(self, name: str = "schema") -> str:
        """Graphviz DOT rendering of the schema (types as nodes,
        relations as labelled directed edges) -- paste into any DOT
        viewer to get the Fig. 3-style schema diagram."""
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for otype in self.object_types:
            lines.append(
                f'  "{otype.name}" [label="{otype.name} ({otype.code})"];'
            )
        for relation in self.relations:
            lines.append(
                f'  "{relation.source.name}" -> "{relation.target.name}"'
                f' [label="{relation.name}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        types: Sequence[Tuple[str, str]],
        relations: Iterable[Tuple[str, str, str]],
    ) -> "NetworkSchema":
        """Build a schema from ``(name, code)`` pairs and
        ``(relation, source, target)`` triples.

        Examples
        --------
        >>> schema = NetworkSchema.from_spec(
        ...     [("author", "A"), ("paper", "P")],
        ...     [("writes", "author", "paper")],
        ... )
        """
        schema = cls()
        for name, code in types:
            schema.add_object_type(name, code)
        for rel_name, src, tgt in relations:
            schema.add_relation(rel_name, src, tgt)
        return schema
