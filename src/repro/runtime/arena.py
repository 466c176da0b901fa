"""Shared-memory columnar arena for zero-copy round payloads.

The sharded :class:`~repro.parallel.engine.ParallelEngine` exchanges
numpy column buffers between the parent and shard workers every round
(generate / classify / finish).  Without an arena those buffers ride the
``ProcessPoolExecutor`` pickle channel — and broadcast rounds pickle the
same merged payload once *per worker*.  The arena instead places each
array in a POSIX shared-memory segment and ships only a tiny descriptor
tuple ``(segment-name, offset, length, dtype, shape)``; the receiver
attaches the segment once and maps the bytes in place.

Design notes
------------
* An arena is **owned by exactly one process** (the parent owns its
  broadcast arena; each shard worker owns one result arena).  Owners
  allocate with a bump pointer inside named *pools*; readers only ever
  attach.
* Pools make lifetime explicit: the per-round pool (``ROUND_POOL``) is
  reset at the start of every round — safe because rounds are barriered,
  so all reads of round *R* complete before round *R+1* bytes are
  written — while region-scoped pools (generated-trace columns cached by
  the iteration memo) live until ``release_pool``.
* Segment names are deterministic per run (``<token>-w<shard>``) so the
  parent can best-effort unlink every worker segment in its ``finally``
  block even if a worker died mid-round: no leaked ``/dev/shm`` entries
  after an abort.
* CPython < 3.13 registers *attached* segments with the
  ``resource_tracker`` as if the attacher owned them (bpo-39959), which
  triggers both double-unlink warnings and premature cleanup.  Read-side
  attaches suppress that registration (:func:`_attach_untracked`) so the
  fork-shared tracker holds exactly one entry per segment — the
  creator's, retired by its ``unlink``.

Serial fallback: when POSIX shared memory is unavailable (``shm_open``
denied, ``/dev/shm`` missing) :func:`shm_available` reports ``False``
and callers fall back to plain pickled payloads — ``encode``/``decode``
with ``arena=None`` are identity transforms.
"""

from __future__ import annotations

import os
import secrets
from typing import Any, Iterable

import numpy as np

from repro.errors import SharedMemoryError

__all__ = [
    "ArrayRef",
    "ShmArena",
    "ArenaReader",
    "shm_available",
    "encode_payload",
    "decode_payload",
    "run_token",
    "worker_segment",
    "force_unlink",
    "list_segments",
]

#: Marker heading the descriptor tuple so ``decode_payload`` can spot it.
_REF_TAG = "__shmref__"

#: Pool used for per-round payloads (reset every round).
ROUND_POOL = "round"

#: Default size of a freshly created segment.  Segments grow by doubling;
#: round payloads at bench scales are typically well under this.
DEFAULT_SEGMENT_BYTES = 1 << 20  # 1 MiB

#: Alignment for bump allocations (numpy prefers 64-byte alignment).
_ALIGN = 64


def _attach_untracked(name: str):
    """Attach to an existing segment without registering it.

    CPython < 3.13 registers *attached* segments with the
    resource_tracker as if the attacher owned them (bpo-39959).
    Unregistering afterwards is wrong under fork: children share the
    parent's tracker process, and tracker state is set-membership, not a
    refcount — a child's unregister would erase the creator's entry and
    make the eventual ``unlink`` crash the tracker. Suppressing the
    registration during the attach leaves exactly one entry, the
    creator's, which its ``unlink`` retires.
    """
    sm = _shared_memory()
    try:
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        try:
            return sm.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig
    except ImportError:  # pragma: no cover - tracker-less platforms
        return sm.SharedMemory(name=name)


def _shared_memory():
    """Import hook kept separate so tests can force the fallback path."""
    from multiprocessing import shared_memory

    return shared_memory


_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """True when POSIX shared memory works on this host (cached probe)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            shm = _shared_memory().SharedMemory(create=True, size=64)
            try:
                shm.buf[:4] = b"ok\x00\x00"
            finally:
                shm.close()
                shm.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def run_token() -> str:
    """A fresh per-run segment-name prefix, unique across processes."""
    return f"repro-arena-{os.getpid()}-{secrets.token_hex(4)}"


def worker_segment(token: str, shard_id: int) -> str:
    """Deterministic base name for shard ``shard_id``'s arena segments."""
    return f"{token}-w{shard_id}"


class ArrayRef(tuple):
    """Descriptor for an array living in a shared segment.

    A plain tuple subclass — ``(_REF_TAG, segment, offset, nbytes,
    dtype-str, shape)`` — so it pickles as cheaply as possible while
    still being type-checkable on the decode side.
    """

    __slots__ = ()

    @staticmethod
    def make(segment: str, offset: int, nbytes: int, dtype: str,
             shape: tuple) -> "ArrayRef":
        return ArrayRef((_REF_TAG, segment, offset, nbytes, dtype, shape))

    @staticmethod
    def is_ref(obj: Any) -> bool:
        return (
            isinstance(obj, tuple)
            and len(obj) == 6
            and obj[0] == _REF_TAG
        )


class _Segment:
    """One owned shared-memory segment with a bump pointer."""

    __slots__ = ("shm", "used")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.used = 0


class ShmArena:
    """Owner-side arena: named pools of bump-allocated shared segments.

    One process creates it (and ultimately unlinks it); any number of
    processes may attach read-side views via :class:`ArenaReader`.
    """

    def __init__(self, base_name: str,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        self.base_name = base_name
        self.segment_bytes = segment_bytes
        self._pools: dict[Any, list[_Segment]] = {}
        self._seq = 0
        self._closed = False

    # -- allocation ---------------------------------------------------

    def _new_segment(self, min_bytes: int) -> _Segment:
        size = max(self.segment_bytes, min_bytes)
        # Round up to a power-of-two multiple of the base size so repeated
        # growth converges instead of fragmenting.
        while size < min_bytes:  # pragma: no cover - max() already covers
            size *= 2
        name = f"{self.base_name}-{self._seq}"
        self._seq += 1
        try:
            shm = _shared_memory().SharedMemory(
                name=name, create=True, size=size
            )
        except OSError as exc:
            # A failed create leaves no segment behind (SharedMemory
            # unlinks its own half-made one), so the run can stop here.
            raise SharedMemoryError(
                f"cannot create shared-memory segment {name} ({size} "
                f"bytes): {exc.strerror or exc}; free space in /dev/shm "
                "or rerun with --no-shm"
            ) from None
        return _Segment(shm)

    def alloc(self, nbytes: int, pool: Any = ROUND_POOL):
        """Reserve ``nbytes`` in ``pool``; returns (segment, offset)."""
        if self._closed:
            raise RuntimeError("arena is closed")
        segs = self._pools.setdefault(pool, [])
        nbytes = max(nbytes, 1)
        for seg in segs:
            start = -seg.used % _ALIGN + seg.used
            if start + nbytes <= seg.shm.size:
                seg.used = start + nbytes
                return seg, start
        seg = self._new_segment(nbytes)
        segs.append(seg)
        seg.used = nbytes
        return seg, 0

    def put(self, arr: np.ndarray, pool: Any = ROUND_POOL) -> ArrayRef:
        """Copy ``arr`` into shared memory, returning its descriptor."""
        arr = np.ascontiguousarray(arr)
        seg, off = self.alloc(arr.nbytes, pool)
        dst = np.ndarray(arr.shape, dtype=arr.dtype,
                         buffer=seg.shm.buf, offset=off)
        if arr.size:
            dst[...] = arr
        return ArrayRef.make(seg.shm.name, off, arr.nbytes,
                             arr.dtype.str, arr.shape)

    def alloc_array(self, shape, dtype, pool: Any = ROUND_POOL):
        """Allocate a writable array inside ``pool``; returns
        ``(view, ref)``.  The view is backed directly by the segment, so
        fills happen in place with no staging copy."""
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in np.atleast_1d(shape)) \
            if not np.isscalar(shape) else (int(shape),)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        seg, off = self.alloc(nbytes, pool)
        view = np.ndarray(shape, dtype=dtype, buffer=seg.shm.buf, offset=off)
        ref = ArrayRef.make(seg.shm.name, off, nbytes, dtype.str, shape)
        return view, ref

    # -- lifetime -----------------------------------------------------

    def reset(self, pool: Any = ROUND_POOL) -> None:
        """Rewind ``pool``'s bump pointers (segments are kept mapped)."""
        for seg in self._pools.get(pool, ()):
            seg.used = 0

    def release_pool(self, pool: Any) -> None:
        """Unlink every segment of ``pool`` and forget it."""
        for seg in self._pools.pop(pool, ()):  # pragma: no branch
            try:
                seg.shm.close()
                seg.shm.unlink()
            except FileNotFoundError:
                pass

    def pool_bytes(self, pool: Any = None) -> int:
        """Bytes currently mapped (all pools, or one pool)."""
        pools: Iterable[list[_Segment]]
        if pool is None:
            pools = self._pools.values()
        else:
            pools = [self._pools.get(pool, [])]
        return sum(seg.shm.size for segs in pools for seg in segs)

    def destroy(self) -> None:
        """Close and unlink every owned segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for pool in list(self._pools):
            self.release_pool(pool)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.destroy()
        except Exception:
            pass


class ArenaReader:
    """Read-side attach cache: maps descriptors to zero-copy views.

    Attachments stay open for the reader's lifetime (views returned by
    :meth:`get` point straight into the mapping, so closing early would
    invalidate them).  Call :meth:`close` only once no views are live.
    """

    def __init__(self) -> None:
        self._attached: dict[str, Any] = {}

    def _segment(self, name: str):
        shm = self._attached.get(name)
        if shm is None:
            shm = _attach_untracked(name)
            self._attached[name] = shm
        return shm

    def get(self, ref: ArrayRef) -> np.ndarray:
        """Materialise a descriptor as a read-only zero-copy view."""
        _, name, offset, _nbytes, dtype, shape = ref
        shm = self._segment(name)
        arr = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                         buffer=shm.buf, offset=offset)
        arr.flags.writeable = False
        return arr

    def close(self) -> None:
        for shm in self._attached.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - defensive
                pass
        self._attached.clear()


# -- payload codec ----------------------------------------------------

#: Arrays smaller than this pickle faster than they attach; leave inline.
MIN_SHM_ARRAY_BYTES = 512


def encode_payload(obj: Any, arena: ShmArena | None,
                   pool: Any = ROUND_POOL) -> Any:
    """Replace large ndarrays in ``obj`` with shared-memory descriptors.

    Walks dicts / lists / tuples; any other object passes through
    untouched (and still rides the pickle channel).  With ``arena=None``
    this is the identity — the pickled-payload fallback.
    """
    if arena is None:
        return obj
    if isinstance(obj, np.ndarray):
        if obj.nbytes >= MIN_SHM_ARRAY_BYTES:
            return arena.put(obj, pool)
        return obj
    if isinstance(obj, dict):
        return {k: encode_payload(v, arena, pool) for k, v in obj.items()}
    if isinstance(obj, list):
        return [encode_payload(v, arena, pool) for v in obj]
    if isinstance(obj, tuple) and not ArrayRef.is_ref(obj):
        return tuple(encode_payload(v, arena, pool) for v in obj)
    return obj


def decode_payload(obj: Any, reader: ArenaReader | None) -> Any:
    """Inverse of :func:`encode_payload`: descriptors become views."""
    if ArrayRef.is_ref(obj):
        if reader is None:
            raise RuntimeError(
                "received a shared-memory descriptor without a reader"
            )
        return reader.get(obj)
    if isinstance(obj, dict):
        return {k: decode_payload(v, reader) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_payload(v, reader) for v in obj]
    if isinstance(obj, tuple):
        return tuple(decode_payload(v, reader) for v in obj)
    return obj


# -- abort-path cleanup ----------------------------------------------


def force_unlink(base_name: str, max_seq: int = 64) -> int:
    """Best-effort unlink of ``base_name``'s segments by name.

    Used by the parent's abort path to reap segments owned by a worker
    that may already be dead.  Returns the number of segments removed.
    """
    sm = _shared_memory()
    names = list_segments(f"{base_name}-")
    if not names:  # /dev/shm listing unavailable: fall back to a seq scan
        names = [f"{base_name}-{seq}" for seq in range(max_seq)]
    removed = 0
    for name in names:
        try:
            shm = sm.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except Exception:  # pragma: no cover - defensive
            continue
        # No manual tracker unregister here: the attach registered the
        # name (bpo-39959) and ``unlink`` unregisters it — balanced.
        try:
            shm.close()
            shm.unlink()
            removed += 1
        except FileNotFoundError:  # pragma: no cover - raced cleanup
            pass
    return removed


def list_segments(prefix: str = "repro-arena-") -> list[str]:
    """Names of live ``/dev/shm`` segments with ``prefix`` (Linux only)."""
    try:
        return sorted(
            n for n in os.listdir("/dev/shm") if n.startswith(prefix)
        )
    except OSError:  # pragma: no cover - non-Linux
        return []
