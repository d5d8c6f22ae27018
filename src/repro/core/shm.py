"""Shared-memory publication of materialised CSR halves.

The process-parallel tier (:mod:`repro.serve.procs`) moves sparse
matrices between processes without serialising them: a CSR matrix is
*published* as three named :class:`multiprocessing.shared_memory`
buffers (``data`` / ``indices`` / ``indptr``) plus a picklable
*manifest* describing their names, shapes and dtypes, and a worker
*attaches* by name -- ``numpy`` views over the mapped buffers wrapped
in a ``csr_matrix`` with ``copy=False``, so attachment costs one
``shm_open`` + ``mmap`` per buffer regardless of matrix size.

Lifetime follows a strict ownership discipline (machine-checked by
lint rule RPR009):

* every segment is adopted into a :class:`ShmLease` the moment it is
  created or attached -- ``SharedMemory(...)`` never floats free;
* an *owning* lease (``owner=True``) both closes its mappings and
  unlinks the named segments on release; a non-owning lease only
  closes.  Exactly one lease owns a segment at any time;
* :meth:`ShmLease.handoff` transfers ownership out of a publisher
  (close without unlink) so a *consumer* in another process can attach
  and later unlink -- the pattern worker-published warm results use;
* leases are context managers and idempotent, so a ``finally`` /
  ``with`` always reclaims the segments even on a crashed task.

The stdlib ``resource_tracker`` is deliberately bypassed (the
behaviour Python 3.13 exposes as ``track=False``): segments here are
created in one process and unlinked in another, a handoff the
per-process tracker cannot follow -- forked pool workers re-register
every attachment with *their* tracker and then warn about "leaked"
segments the parent already destroyed.  :func:`create_segment` /
:func:`open_segment` therefore suppress registration and the lease
discipline above is the tracking.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Iterator, List, Optional, Tuple

import numpy as np
from scipy import sparse

from ..hin.errors import QueryError
from ..obs.metrics import REGISTRY
from .hetesim import Halves

__all__ = [
    "ArraySpec",
    "CSRManifest",
    "HalvesManifest",
    "ShmLease",
    "create_segment",
    "open_segment",
    "publish_array",
    "attach_array",
    "publish_csr",
    "attach_csr",
    "publish_halves",
    "attach_halves",
]

_SEGMENTS_OPEN = REGISTRY.gauge(
    "repro_shm_segments_open",
    "Shared-memory segments currently held open by live leases.",
)
_BYTES_PUBLISHED = REGISTRY.counter(
    "repro_shm_bytes_published_total",
    "Bytes copied into newly created shared-memory segments.",
)
_SEGMENTS_UNLINKED = REGISTRY.counter(
    "repro_shm_segments_unlinked_total",
    "Shared-memory segments destroyed by an owning lease.",
)


@dataclass(frozen=True)
class ArraySpec:
    """Picklable description of one dense array in shared memory."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (the segment may be 1 byte larger for
        empty arrays -- a zero-size segment cannot be created)."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class CSRManifest:
    """Picklable description of one CSR matrix in shared memory."""

    shape: Tuple[int, int]
    data: ArraySpec
    indices: ArraySpec
    indptr: ArraySpec


@dataclass(frozen=True)
class HalvesManifest:
    """One engine halves tuple ``(left, right, left_norms, right_norms)``
    published to shared memory.

    ``symmetric`` marks paths whose two walkers share one half matrix
    (``right is left`` in the engine memo): the right half is then not
    published twice, and attachment reuses the left matrix object just
    like the engine does.
    """

    left: CSRManifest
    right: Optional[CSRManifest]
    left_norms: ArraySpec
    right_norms: ArraySpec
    symmetric: bool

    def segment_names(self) -> List[str]:
        """Names of every distinct segment the manifest references."""
        manifests = [self.left]
        if not self.symmetric and self.right is not None:
            manifests.append(self.right)
        names: List[str] = []
        for csr in manifests:
            names.extend(
                [csr.data.name, csr.indices.name, csr.indptr.name]
            )
        names.extend([self.left_norms.name, self.right_norms.name])
        return names


class ShmLease:
    """Owns the lifetime of a set of shared-memory segments.

    ``owner=True`` leases unlink (destroy) the named segments on
    :meth:`release`; non-owning leases only close their mappings.
    Release is idempotent and runs from ``finally`` blocks and
    ``__exit__``, so a lease-guarded segment cannot leak past its
    scope.  Thread-safe: a lease may be released from a different
    thread than the one that adopted into it.
    """

    def __init__(self, owner: bool) -> None:
        self.owner = owner
        self._lock = threading.Lock()
        self._segments: List[shared_memory.SharedMemory] = []
        self._released = False

    def adopt(
        self, segment: shared_memory.SharedMemory
    ) -> shared_memory.SharedMemory:
        """Register ``segment`` for cleanup; returns it for chaining."""
        with self._lock:
            if self._released:
                # Late adoption into a dead lease must not leak the
                # segment: clean it up with the lease's own policy.
                _close_segment(segment, unlink=self.owner)
                raise QueryError(
                    "cannot adopt a segment into a released lease"
                )
            self._segments.append(segment)
        _SEGMENTS_OPEN.inc()
        return segment

    def release(self) -> None:
        """Close every mapping; unlink the segments when owning."""
        self._finish(unlink=self.owner)

    def handoff(self) -> None:
        """Close the mappings but leave the named segments alive.

        Transfers ownership to whoever holds the manifest: the
        publisher stops being responsible for unlinking, and the
        consumer's owning lease (see :func:`attach_halves`) destroys
        the segments once it has read them.
        """
        self._finish(unlink=False)

    def _finish(self, unlink: bool) -> None:
        with self._lock:
            if self._released:
                return
            self._released = True
            segments = list(self._segments)
            self._segments.clear()
        for segment in segments:
            _close_segment(segment, unlink=unlink)
            _SEGMENTS_OPEN.dec()
            if unlink:
                _SEGMENTS_UNLINKED.inc()

    def __enter__(self) -> "ShmLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


_TRACKER_LOCK = threading.Lock()


@contextlib.contextmanager
def _untracked() -> Iterator[None]:
    """Run stdlib shared-memory calls without resource-tracker chatter.

    Pre-3.13 ``SharedMemory`` registers every *attachment* (not just
    creations) with the per-process ``resource_tracker``; with our
    create-here / unlink-there ownership handoff those trackers end up
    holding names they can neither match to an unregister nor unlink,
    and print leak warnings at shutdown.  Registration and
    unregistration are patched to no-ops for the duration of the call
    -- the :class:`ShmLease` discipline is the tracking.
    """
    def _noop(name: object, rtype: object) -> None:
        pass

    with _TRACKER_LOCK:
        register = resource_tracker.register
        unregister = resource_tracker.unregister
        resource_tracker.register = _noop
        resource_tracker.unregister = _noop
        try:
            yield
        finally:
            resource_tracker.register = register
            resource_tracker.unregister = unregister


def create_segment(
    nbytes: int, lease: ShmLease
) -> shared_memory.SharedMemory:
    """A fresh named segment, untracked and adopted by ``lease``.

    A zero-size segment cannot be created, so ``nbytes=0`` still maps
    one byte (manifest shapes record the true payload size).
    """
    with _untracked():
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, nbytes)
        )
    return lease.adopt(segment)


def open_segment(
    name: str, lease: ShmLease
) -> shared_memory.SharedMemory:
    """Attach an existing segment by name, untracked and adopted.

    Raises :class:`FileNotFoundError` when the segment is already
    destroyed -- callers reclaiming handed-off manifests tolerate it.
    """
    with _untracked():
        segment = shared_memory.SharedMemory(name=name)
    return lease.adopt(segment)


def _close_segment(
    segment: shared_memory.SharedMemory, unlink: bool
) -> None:
    """Close (and optionally unlink) one segment, tolerating repeats."""
    try:
        segment.close()
    except OSError:  # pragma: no cover - mapping already gone
        pass
    if unlink:
        try:
            with _untracked():
                segment.unlink()
        except FileNotFoundError:  # already destroyed by the owner
            pass


def publish_array(array: np.ndarray, lease: ShmLease) -> ArraySpec:
    """Copy ``array`` into a fresh named segment adopted by ``lease``."""
    array = np.ascontiguousarray(array)
    segment = create_segment(array.nbytes, lease)
    view = np.ndarray(
        array.shape, dtype=array.dtype, buffer=segment.buf
    )
    view[...] = array
    _BYTES_PUBLISHED.inc(array.nbytes)
    return ArraySpec(
        name=segment.name,
        shape=tuple(array.shape),
        dtype=str(array.dtype),
    )


def attach_array(
    spec: ArraySpec, lease: ShmLease, copy: bool = False
) -> np.ndarray:
    """An ndarray over the published buffer (zero-copy by default).

    ``copy=False`` views stay valid only while ``lease`` is open;
    ``copy=True`` returns an independent array, letting the caller
    release the lease immediately.
    """
    segment = open_segment(spec.name, lease)
    view = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    return view.copy() if copy else view


def publish_csr(
    matrix: sparse.csr_matrix, lease: ShmLease
) -> CSRManifest:
    """Publish a CSR matrix as three named segments."""
    matrix = sparse.csr_matrix(matrix)
    return CSRManifest(
        shape=tuple(matrix.shape),
        data=publish_array(matrix.data, lease),
        indices=publish_array(matrix.indices, lease),
        indptr=publish_array(matrix.indptr, lease),
    )


def attach_csr(
    manifest: CSRManifest, lease: ShmLease, copy: bool = False
) -> sparse.csr_matrix:
    """Reattach a published CSR matrix (zero-copy by default)."""
    data = attach_array(manifest.data, lease, copy=copy)
    indices = attach_array(manifest.indices, lease, copy=copy)
    indptr = attach_array(manifest.indptr, lease, copy=copy)
    return sparse.csr_matrix(
        (data, indices, indptr), shape=manifest.shape, copy=False
    )


def publish_halves(halves: Halves, lease: ShmLease) -> HalvesManifest:
    """Publish one engine halves tuple under ``lease``.

    ``halves`` is the engine's ``(left, right, left_norms,
    right_norms)``; a shared half matrix (``right is left``) is
    published once and marked ``symmetric``.
    """
    left, right, left_norms, right_norms = halves
    symmetric = right is left
    return HalvesManifest(
        left=publish_csr(left, lease),
        right=None if symmetric else publish_csr(right, lease),
        left_norms=publish_array(left_norms, lease),
        right_norms=publish_array(right_norms, lease),
        symmetric=symmetric,
    )


def attach_halves(
    manifest: HalvesManifest, lease: ShmLease, copy: bool = False
) -> Halves:
    """Reattach a published halves tuple.

    ``copy=False`` (worker side): zero-copy views valid while
    ``lease`` is open.  ``copy=True`` (consumer side): independent
    arrays -- used by the parent to adopt worker-materialised halves
    into the engine memo before unlinking the segments.
    """
    left = attach_csr(manifest.left, lease, copy=copy)
    if manifest.symmetric:
        right = left
    else:
        if manifest.right is None:
            raise QueryError(
                "non-symmetric halves manifest is missing its right half"
            )
        right = attach_csr(manifest.right, lease, copy=copy)
    left_norms = attach_array(manifest.left_norms, lease, copy=copy)
    right_norms = attach_array(manifest.right_norms, lease, copy=copy)
    return (left, right, left_norms, right_norms)
