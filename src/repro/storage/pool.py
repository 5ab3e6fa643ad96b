"""Record pools (Figure 6) and the shared-memory segment pool.

:class:`RecordPool` stores the contents of one materialized view:
records of a fixed format (key fields = the view's schema, one value
field = the tuple multiplicity).  Slots freed by deletions are recycled
through a free list.  A unique hash index over the full key serves
``get`` / ``update`` / ``delete``; non-unique hash indexes over column
subsets serve ``slice`` operations, with per-slot membership kept
consistent on every mutation (the paper's index back-references).

Each slot has a stable *virtual address* so a cache simulator can
replay the pool's access trace; pass a ``tracer`` callable taking
``(address, record_bytes)``.

The pool intentionally exposes the same read interface as
:class:`~repro.ring.GMR` (``items``, ``get``, ``__len__``,
``add_inplace``, ``add_tuple``, ``is_zero``, ``data``) so execution
engines can swap pools in wherever a GMR is expected.

:class:`SegmentPool` is the coordinator-side allocator behind the
``multiproc`` backend's shared-memory data plane: ref-counted
power-of-two shared-memory segments, recycled at sync barriers so a
steady-state stream allocates no new segments.  The coordinator
*creates* every segment (workers only attach via
:func:`attach_segment`), which keeps unlink responsibility in exactly
one process — a crashed worker can never leak a segment it owns.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Iterator

from repro.ring.gmr import is_zero as _is_zero

Tracer = Callable[[int, int], None]

#: Spacing between consecutive pools in the synthetic address space,
#: large enough that pools never overlap.
_POOL_ADDRESS_STRIDE = 1 << 32


class RecordPool:
    """A record pool with a unique index and optional slice indexes."""

    _next_base_address = _POOL_ADDRESS_STRIDE

    def __init__(
        self,
        cols: tuple[str, ...],
        slice_indexes: tuple[tuple[str, ...], ...] = (),
        tracer: Tracer | None = None,
    ):
        self.cols = cols
        self.tracer = tracer
        self.record_bytes = 8 * (len(cols) + 1)  # 8-byte fields + value

        # Slot-parallel storage.
        self._keys: list[tuple | None] = []
        self._values: list[float] = []
        self._free: list[int] = []
        self._live = 0

        # Unique hash index: full key -> slot.
        self._unique: dict[tuple, int] = {}

        # Non-unique hash indexes: one per column subset.
        self._slice_cols: list[tuple[str, ...]] = []
        self._slice_positions: list[tuple[int, ...]] = []
        self._slices: list[dict[tuple, set[int]]] = []
        for sc in slice_indexes:
            self.add_slice_index(sc)

        self.base_address = RecordPool._next_base_address
        RecordPool._next_base_address += _POOL_ADDRESS_STRIDE

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def add_slice_index(self, cols: tuple[str, ...]) -> int:
        """Create a non-unique hash index over ``cols``; returns its id."""
        positions = tuple(self.cols.index(c) for c in cols)
        index: dict[tuple, set[int]] = {}
        for slot, key in enumerate(self._keys):
            if key is not None:
                subkey = tuple(key[p] for p in positions)
                index.setdefault(subkey, set()).add(slot)
        self._slice_cols.append(cols)
        self._slice_positions.append(positions)
        self._slices.append(index)
        return len(self._slices) - 1

    def slice_index_for(self, cols: frozenset[str]) -> int | None:
        """Find an index whose column set equals ``cols``."""
        for i, sc in enumerate(self._slice_cols):
            if frozenset(sc) == cols:
                return i
        return None

    @property
    def slice_index_columns(self) -> list[tuple[str, ...]]:
        return list(self._slice_cols)

    # ------------------------------------------------------------------
    # Address bookkeeping / trace
    # ------------------------------------------------------------------
    def _touch(self, slot: int) -> None:
        if self.tracer is not None:
            self.tracer(
                self.base_address + slot * self.record_bytes,
                self.record_bytes,
            )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def upsert(self, key: tuple, delta: float) -> None:
        """Add ``delta`` to the multiplicity of ``key``.

        Inserts the record when absent; deletes it when the
        multiplicity cancels to zero (GMRs never store zeros).
        """
        slot = self._unique.get(key)
        if slot is not None:
            self._touch(slot)
            new = self._values[slot] + delta
            if _is_zero(new):
                self._delete_slot(key, slot)
            else:
                self._values[slot] = new
            return
        if _is_zero(delta):
            return
        slot = self._allocate(key, delta)
        self._touch(slot)

    def delete(self, key: tuple) -> bool:
        """Remove a record outright; returns False when absent."""
        slot = self._unique.get(key)
        if slot is None:
            return False
        self._touch(slot)
        self._delete_slot(key, slot)
        return True

    def clear(self) -> None:
        self._keys.clear()
        self._values.clear()
        self._free.clear()
        self._live = 0
        self._unique.clear()
        for index in self._slices:
            index.clear()

    def _allocate(self, key: tuple, value: float) -> int:
        if self._free:
            slot = self._free.pop()
            self._keys[slot] = key
            self._values[slot] = value
        else:
            slot = len(self._keys)
            self._keys.append(key)
            self._values.append(value)
        self._unique[key] = slot
        for positions, index in zip(self._slice_positions, self._slices):
            subkey = tuple(key[p] for p in positions)
            index.setdefault(subkey, set()).add(slot)
        self._live += 1
        return slot

    def _delete_slot(self, key: tuple, slot: int) -> None:
        del self._unique[key]
        for positions, index in zip(self._slice_positions, self._slices):
            subkey = tuple(key[p] for p in positions)
            bucket = index.get(subkey)
            if bucket is not None:
                bucket.discard(slot)
                if not bucket:
                    del index[subkey]
        self._keys[slot] = None
        self._free.append(slot)
        self._live -= 1

    # ------------------------------------------------------------------
    # Reads (GMR-compatible surface)
    # ------------------------------------------------------------------
    def get(self, key: tuple, default: float = 0) -> float:
        slot = self._unique.get(key)
        if slot is None:
            return default
        self._touch(slot)
        return self._values[slot]

    def __contains__(self, key: tuple) -> bool:
        return key in self._unique

    def __len__(self) -> int:
        return self._live

    def is_zero(self) -> bool:
        return self._live == 0

    def items(self) -> Iterator[tuple[tuple, float]]:
        """Scan every live record (a ``foreach``)."""
        keys = self._keys
        values = self._values
        for slot, key in enumerate(keys):
            if key is not None:
                self._touch(slot)
                yield key, values[slot]

    def slice(self, index_id: int, subkey: tuple) -> Iterator[tuple[tuple, float]]:
        """Iterate records matching ``subkey`` through a slice index."""
        bucket = self._slices[index_id].get(subkey)
        if not bucket:
            return
        keys = self._keys
        values = self._values
        for slot in list(bucket):
            self._touch(slot)
            yield keys[slot], values[slot]

    @property
    def data(self) -> dict[tuple, float]:
        """A dict snapshot (GMR compatibility; O(n))."""
        return {
            k: self._values[s] for k, s in self._unique.items()
        }

    def project(self, positions):
        """GMR-compatible multiplicity-preserving projection."""
        from repro.ring import GMR

        out = GMR()
        for key, value in self.items():
            out.add_tuple(tuple(key[i] for i in positions), value)
        return out

    def exists(self):
        """GMR-compatible Exists: every live record at multiplicity 1."""
        from repro.ring import GMR

        return GMR.unsafe({k: 1 for k, _ in self.items()})

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def add_inplace(self, other) -> None:
        """Merge a GMR (or anything with ``items()``) into the pool."""
        for key, delta in other.items():
            self.upsert(key, delta)

    def add_tuple(self, key: tuple, delta: float) -> None:
        self.upsert(key, delta)

    def replace_contents(self, other) -> None:
        self.clear()
        self.add_inplace(other)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def capacity(self) -> int:
        """Allocated slots, live or free (the pool's memory footprint)."""
        return len(self._keys)

    def free_slots(self) -> int:
        return len(self._free)

    def __repr__(self) -> str:
        return (
            f"RecordPool(cols={self.cols}, live={self._live}, "
            f"capacity={self.capacity()}, "
            f"slice_indexes={self._slice_cols})"
        )


# ----------------------------------------------------------------------
# Shared-memory segments (the multiproc data plane)
# ----------------------------------------------------------------------

#: Smallest segment ever allocated; requests round up to a power of two
#: so recycled segments fit the next similarly-sized payload.
_MIN_SEGMENT_BYTES = 4096


def _size_class(nbytes: int) -> int:
    size = _MIN_SEGMENT_BYTES
    while size < nbytes:
        size <<= 1
    return size


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment created by another process, without adding a
    second tracking claim on it.

    Workers share the coordinator's ``resource_tracker`` process (fork
    inherits it; spawn passes its fd), and the coordinator registered
    the segment at creation.  Python 3.13 lets an attach opt out via
    ``track=False``; on earlier versions the attach re-registers, which
    is a harmless duplicate in the shared tracker's name set — but it
    must NOT be "fixed" with ``unregister``, which would delete the
    coordinator's claim and break its eventual ``unlink``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        return shared_memory.SharedMemory(name=name)


class Segment:
    """One shared-memory block plus its pool bookkeeping.

    ``refs`` counts outstanding readers the coordinator has promised
    the block to (one per worker for a broadcast, one for a targeted
    send).  ``generation`` increments on every reuse, so a descriptor
    built for a previous tenancy of the same name is detectably stale.
    """

    __slots__ = ("shm", "capacity", "refs", "generation")

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int):
        self.shm = shm
        self.capacity = capacity
        self.refs = 0
        self.generation = 0

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self):
        return self.shm.buf

    def __repr__(self) -> str:
        return (
            f"Segment({self.name}, cap={self.capacity}, "
            f"refs={self.refs}, gen={self.generation})"
        )


class SegmentPool:
    """Ref-counted pool of coordinator-owned shared-memory segments.

    Lifecycle of one payload::

        seg = pool.acquire(nbytes, refs=k)   # alloc (or recycle)
        block.write_into(seg.buf)            # lay the bytes out once
        ... send (seg.name, ...) to k workers ...
        pool.release(seg.name)  * k          # after each consumption
        # refs == 0  ->  segment returns to the free list
        pool.close()                         # close + unlink everything

    Segment names are ``repro{pid}x{poolid}x{n}`` — short enough for
    the POSIX 31-character limit and grep-able (a leak check is
    ``ls /dev/shm | grep '^repro'``).
    """

    _next_pool_id = 0

    def __init__(self):
        # The shared resource tracker must exist *before* workers fork.
        # Attaching registers a claim (pre-3.13), and a worker forked
        # with no tracker fd to inherit spawns a private one — which
        # unlinks every segment that worker ever attached the moment
        # the worker exits (or is killed), out from under the pool.
        # The pool is always constructed before the coordinator spawns
        # workers, so starting the tracker here pins one shared tracker
        # for the whole process tree.
        resource_tracker.ensure_running()
        self._pool_id = SegmentPool._next_pool_id
        SegmentPool._next_pool_id += 1
        self._counter = 0
        self._segments: dict[str, Segment] = {}  # every live segment
        self._free: dict[int, list[Segment]] = {}  # capacity -> LIFO
        self._inflight: dict[str, Segment] = {}
        self._closed = False
        self.created = 0  # segments ever allocated
        self.recycled = 0  # acquisitions served from the free list

    # ------------------------------------------------------------------
    def acquire(self, nbytes: int, refs: int = 1) -> Segment:
        """Hand out a segment with capacity >= ``nbytes`` and ``refs``
        outstanding consumptions."""
        if self._closed:
            raise ValueError("SegmentPool is closed")
        capacity = _size_class(nbytes)
        stack = self._free.get(capacity)
        if stack:
            seg = stack.pop()
            self.recycled += 1
        else:
            name = f"repro{os.getpid()}x{self._pool_id}x{self._counter}"
            self._counter += 1
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=capacity
            )
            seg = Segment(shm, capacity)
            self._segments[seg.name] = seg
            self.created += 1
        seg.refs = refs
        seg.generation += 1
        self._inflight[seg.name] = seg
        return seg

    def release(self, name: str, n: int = 1) -> None:
        """Record ``n`` consumptions; recycle the segment at zero."""
        seg = self._inflight.get(name)
        if seg is None:
            return  # already recycled (or pool reset after a failure)
        seg.refs -= n
        if seg.refs <= 0:
            del self._inflight[name]
            self._free.setdefault(seg.capacity, []).append(seg)

    def release_all_inflight(self) -> None:
        """Recycle every outstanding segment, whatever its refcount.

        Sound only at a sync barrier (all workers have drained their
        pipes, so no descriptor is still awaiting a read) or after a
        failure when surviving workers have been resynced.
        """
        for seg in list(self._inflight.values()):
            seg.refs = 0
            del self._inflight[seg.name]
            self._free.setdefault(seg.capacity, []).append(seg)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close and unlink every segment this pool ever created."""
        if self._closed:
            return
        self._closed = True
        for seg in self._segments.values():
            try:
                seg.shm.close()
            except Exception:
                pass
            try:
                seg.shm.unlink()
            except FileNotFoundError:
                # Unlinked externally.  ``unlink`` bails before dropping
                # our tracker claim, so drop it here — otherwise the
                # tracker reports a phantom leak at process shutdown.
                try:
                    resource_tracker.unregister(
                        seg.shm._name, "shared_memory"
                    )
                except Exception:
                    pass
            except Exception:
                pass
        self._segments.clear()
        self._free.clear()
        self._inflight.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict[str, int]:
        return {
            "created": self.created,
            "recycled": self.recycled,
            "live": len(self._segments),
            "inflight": len(self._inflight),
            "free": sum(len(s) for s in self._free.values()),
            "bytes": sum(s.capacity for s in self._segments.values()),
        }

    def __repr__(self) -> str:
        return f"SegmentPool({self.stats()})"


class SegmentAttacher:
    """Worker-side cache of attached segments, keyed by name.

    Attaching is a syscall + mmap; a steady-state stream reuses the
    same few pool segments, so caching makes repeat descriptors free.
    The coordinator never unlinks a segment while any descriptor naming
    it can still arrive (unlink happens only at pool close, after
    workers stop), so cached attachments cannot go stale mid-stream.
    """

    def __init__(self):
        self._attached: dict[str, shared_memory.SharedMemory] = {}

    def get(self, name: str) -> shared_memory.SharedMemory:
        shm = self._attached.get(name)
        if shm is None:
            shm = attach_segment(name)
            self._attached[name] = shm
        return shm

    def close(self) -> None:
        for shm in self._attached.values():
            try:
                shm.close()
            except Exception:
                pass
        self._attached.clear()
