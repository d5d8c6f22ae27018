"""On-disk materialisation of reachable probability matrices (§4.6, item 1).

"For frequently-used relevance paths, the relatedness matrix can be
calculated off-line.  The on-line search will be very fast."

:class:`MatrixStore` persists the sparse ``PM_P`` matrices of chosen
paths to a directory (scipy ``.npz`` per path) and reloads them into a
:class:`~repro.core.cache.PathMatrixCache`, so a fresh process answers
long-path queries without recomputing the chains.

The store is **crash-safe**: every payload and the ``index.json`` are
written to a temporary file and atomically renamed into place, so a
crash mid-save never leaves a torn file behind; each payload's SHA-256
is recorded in the index and verified on load
(:class:`~repro.hin.errors.StoreIntegrityError` on mismatch); and
transient IO errors are absorbed by a bounded retry with exponential
backoff.  IO goes through the fault sites ``store.read`` /
``store.write`` of the ambient scope (:mod:`repro.core.scope`), so all
of this behaviour is deterministically testable.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from scipy import sparse

from ..hin.errors import QueryError, StoreIntegrityError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath
from .cache import PathMatrixCache
from .scope import SITE_STORE_READ, SITE_STORE_WRITE, ambient_faults

__all__ = ["MatrixStore"]

_INDEX_NAME = "index.json"
_INDEX_FORMAT = 2

#: Transient-IO retry policy: attempts and base backoff (doubled per
#: retry).  Kept small -- the retries target blips, not outages.
DEFAULT_IO_RETRIES = 3
DEFAULT_IO_BACKOFF_S = 0.005

__all__ += ["DEFAULT_IO_RETRIES", "DEFAULT_IO_BACKOFF_S"]


def _slug(text: str) -> str:
    """Filesystem-safe name for a relation-name tuple."""
    return re.sub(r"[^A-Za-z0-9_-]+", "_", text)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class MatrixStore:
    """A directory of persisted ``PM_P`` matrices.

    The store keeps an ``index.json`` mapping each stored path's
    relation-name tuple to its ``.npz`` file and SHA-256 checksum, so
    lookups never guess at filenames and corruption never goes
    unnoticed.  Legacy (pre-checksum) indexes are read transparently;
    the next :meth:`save` upgrades them.

    Parameters
    ----------
    directory:
        Where payloads and the index live (created if absent).
    io_retries / io_backoff_s:
        Bounded-retry policy for transient :class:`OSError` during
        payload IO: up to ``io_retries`` attempts, sleeping
        ``io_backoff_s * 2**attempt`` between them.

    Examples
    --------
    >>> store = MatrixStore(tmp_path)                     # doctest: +SKIP
    >>> store.save(graph, [schema.path("APVC")])          # doctest: +SKIP
    >>> cache = PathMatrixCache(graph)                    # doctest: +SKIP
    >>> store.load_into(cache)                            # doctest: +SKIP
    """

    def __init__(
        self,
        directory: Union[str, Path],
        io_retries: int = DEFAULT_IO_RETRIES,
        io_backoff_s: float = DEFAULT_IO_BACKOFF_S,
    ) -> None:
        if io_retries < 1:
            raise QueryError(f"io_retries must be >= 1, got {io_retries}")
        if io_backoff_s < 0:
            raise QueryError(
                f"io_backoff_s must be >= 0, got {io_backoff_s}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.io_retries = io_retries
        self.io_backoff_s = io_backoff_s

    # ------------------------------------------------------------------
    # low-level IO (fault-injectable, retried, atomic)
    # ------------------------------------------------------------------
    def _with_retries(self, operation):
        """Run ``operation`` absorbing transient OSError with backoff."""
        last: Optional[OSError] = None
        for attempt in range(self.io_retries):
            try:
                return operation()
            except OSError as exc:
                last = exc
                if attempt + 1 < self.io_retries:
                    time.sleep(self.io_backoff_s * (2 ** attempt))
        assert last is not None
        raise last

    def _atomic_write_bytes(self, target: Path, payload: bytes) -> None:
        """Write-tmp-then-rename so readers never observe a torn file."""

        def write() -> None:
            faults = ambient_faults()
            data = payload
            if faults is not None:
                data = faults.filter(SITE_STORE_WRITE, data)
            tmp = target.with_name(target.name + ".tmp")
            with tmp.open("wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)

        self._with_retries(write)

    def _read_bytes(self, source: Path) -> bytes:
        def read() -> bytes:
            data = source.read_bytes()
            faults = ambient_faults()
            if faults is not None:
                data = faults.filter(SITE_STORE_READ, data)
            return data

        return self._with_retries(read)

    # ------------------------------------------------------------------
    # index handling
    # ------------------------------------------------------------------
    def _index_path(self) -> Path:
        return self.directory / _INDEX_NAME

    def _read_index(self) -> Dict[str, Dict[str, Optional[str]]]:
        """Entries as ``{key: {"file": ..., "sha256": ... | None}}``.

        Accepts both the current checksummed format and the legacy flat
        ``{key: filename}`` mapping (``sha256`` None = unverifiable).
        """
        index_path = self._index_path()
        if not index_path.exists():
            return {}
        with index_path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and data.get("format") == _INDEX_FORMAT:
            return {
                key: {
                    "file": entry["file"],
                    "sha256": entry.get("sha256"),
                }
                for key, entry in data["entries"].items()
            }
        # Legacy flat mapping: no checksums recorded.
        return {
            key: {"file": filename, "sha256": None}
            for key, filename in data.items()
        }

    def _write_index(
        self, index: Dict[str, Dict[str, Optional[str]]]
    ) -> None:
        document = {
            "format": _INDEX_FORMAT,
            "entries": {
                key: index[key] for key in sorted(index)
            },
        }
        payload = json.dumps(document, indent=2, sort_keys=True).encode(
            "utf-8"
        )
        self._atomic_write_bytes(self._index_path(), payload)

    @staticmethod
    def _key(path: MetaPath) -> str:
        return "|".join(relation.name for relation in path.relations)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(
        self,
        graph: HeteroGraph,
        paths: List[MetaPath],
        cache: Union[PathMatrixCache, None] = None,
    ) -> None:
        """Compute (or fetch from ``cache``) and persist ``PM_P`` for each
        path.  Existing entries for the same paths are overwritten.

        Each payload is serialised in memory, checksummed, and written
        atomically; the index is rewritten atomically afterwards, so a
        crash at any point leaves the previous index (and therefore a
        consistent store) in place.
        """
        if cache is None:
            cache = PathMatrixCache(graph)
        index = self._read_index()
        for path in paths:
            matrix = cache.reach_prob(path)
            key = self._key(path)
            filename = _slug(key) + ".npz"
            buffer = io.BytesIO()
            sparse.save_npz(buffer, matrix)
            payload = buffer.getvalue()
            self._atomic_write_bytes(self.directory / filename, payload)
            index[key] = {"file": filename, "sha256": _sha256(payload)}
        self._write_index(index)

    def stored_paths(self) -> List[str]:
        """Relation-name keys of every stored matrix (sorted)."""
        return sorted(self._read_index())

    def entries(self) -> Dict[str, Dict[str, Optional[str]]]:
        """Index entries: ``{key: {"file": ..., "sha256": ...}}``.

        ``sha256`` is None for entries written by pre-checksum versions
        of the store (the ``repro doctor`` command reports those as
        unverifiable but present).
        """
        return self._read_index()

    def contains(self, path: MetaPath) -> bool:
        """True when ``PM_path`` is on disk."""
        return self._key(path) in self._read_index()

    def load_key(self, key: str) -> sparse.csr_matrix:
        """Load one stored matrix by its relation-name key.

        Verifies the recorded checksum before deserialising; raises
        :class:`~repro.hin.errors.StoreIntegrityError` on mismatch and
        :class:`~repro.hin.errors.QueryError` for unknown keys.
        """
        index = self._read_index()
        if key not in index:
            raise QueryError(
                f"no stored matrix for key {key!r} "
                f"(stored: {sorted(index)})"
            )
        entry = index[key]
        payload = self._read_bytes(self.directory / entry["file"])
        expected = entry.get("sha256")
        if expected is not None:
            actual = _sha256(payload)
            if actual != expected:
                raise StoreIntegrityError(
                    f"checksum mismatch for stored matrix {key!r} "
                    f"({entry['file']}): expected {expected[:12]}..., "
                    f"got {actual[:12]}... -- the payload is corrupted "
                    "or was torn mid-write"
                )
        try:
            return sparse.load_npz(io.BytesIO(payload)).tocsr()
        except Exception as exc:
            raise StoreIntegrityError(
                f"stored matrix {key!r} ({entry['file']}) failed to "
                f"deserialise: {exc}"
            ) from exc

    def load(self, path: MetaPath) -> sparse.csr_matrix:
        """Load one stored matrix (raises :class:`QueryError` if absent)."""
        key = self._key(path)
        if key not in self._read_index():
            raise QueryError(
                f"no stored matrix for path {path.code()} "
                f"(stored: {sorted(self._read_index())})"
            )
        return self.load_key(key)

    def load_into(self, cache: PathMatrixCache) -> int:
        """Load every stored matrix into ``cache``; returns the count.

        The cache's graph schema must be able to resolve the stored
        relation names (i.e. same or compatible schema).
        """
        index = self._read_index()
        schema = cache.graph.schema
        loaded = 0
        for key in index:
            relations = [schema.relation(name) for name in key.split("|")]
            path = MetaPath(schema, relations)
            cache.put(path, self.load_key(key))
            loaded += 1
        return loaded
