"""The database: named GMRs for base relations, views, and deltas.

Base relations and materialized views live in the same namespace —
recursive IVM deliberately blurs the distinction, since base tables are
just the lowest-order materialized views (Example 2.2).
Delta relations live in a separate namespace so an update batch for
relation ``R`` never shadows the materialized contents of ``R``.

Views also carry persistent *slice indexes*: :meth:`Database.slice_index`
builds one lazily per ``(view, bound positions)`` the first time a
compiled join level probes it.  :meth:`apply_update` and
:meth:`insert_rows` maintain it tuple by tuple; :meth:`set_view` and
:meth:`clear` drop it.  A probe therefore costs the size of its bucket,
not the size of the view, and a write to a view that nobody has sliced
pays one falsy check.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable

from repro.metrics import Counters
from repro.ring import GMR, is_zero

#: A slice probe: key (a scalar for one bound position, a tuple
#: otherwise) -> the sized ``(tuple, multiplicity)`` pairs matching it.
SliceProbe = Callable[[object], Iterable[tuple[tuple, object]]]


class _SliceIndex:
    """One persistent hash index over a view's tuples.

    Keys are ``itemgetter(*positions)`` of the tuple — the bare value for
    a one-column slice, so the common case allocates no key tuple.  A
    bucket holding one tuple is the pair ``(tuple, multiplicity)``;
    from two tuples on it is a ``{tuple: multiplicity}`` dict.  A pair
    is 56 bytes and a one-entry dict 224 (CPython 3.11), and on the
    ``inproc-tpch`` ledger workload 41% of the buckets hold one tuple
    (every bucket of Q3's customer-by-key and order-by-key views);
    dict-only buckets raised its peak RSS by a further 1.2%.
    """

    __slots__ = ("key_of", "buckets")

    def __init__(self, contents: GMR, positions: tuple[int, ...]):
        self.key_of = itemgetter(*positions)
        self.buckets: dict = {}
        for t, m in contents.items():
            self.put(t, m)

    def probe(self, k) -> Iterable[tuple[tuple, object]]:
        bucket = self.buckets.get(k)
        if bucket is None:
            return ()
        if type(bucket) is tuple:
            return (bucket,)
        return bucket.items()

    def put(self, t: tuple, m) -> None:
        k = self.key_of(t)
        bucket = self.buckets.get(k)
        if bucket is None:
            self.buckets[k] = (t, m)
        elif type(bucket) is not tuple:
            bucket[t] = m
        elif bucket[0] == t:
            self.buckets[k] = (t, m)
        else:
            self.buckets[k] = {bucket[0]: bucket[1], t: m}

    def remove(self, t: tuple) -> None:
        k = self.key_of(t)
        bucket = self.buckets[k]
        if type(bucket) is tuple:
            del self.buckets[k]
            return
        del bucket[t]
        if len(bucket) == 1:
            self.buckets[k] = next(iter(bucket.items()))


class Database:
    """A mutable collection of named GMRs plus pending update batches."""

    def __init__(self) -> None:
        self.views: dict[str, GMR] = {}
        self.deltas: dict[str, GMR] = {}
        #: view name -> {bound positions: _SliceIndex}
        self._indexes: dict[str, dict[tuple[int, ...], _SliceIndex]] = {}

    # ------------------------------------------------------------------
    # Views / base relations
    # ------------------------------------------------------------------
    def set_view(self, name: str, contents: GMR) -> None:
        self.views[name] = contents
        if self._indexes:
            self._indexes.pop(name, None)

    def get_view(self, name: str) -> GMR:
        """Contents of a view; unknown names read as empty relations."""
        g = self.views.get(name)
        if g is None:
            g = GMR()
            self.views[name] = g
        return g

    def apply_update(self, name: str, update: GMR) -> None:
        """Merge an update batch into a view's contents (``+=``)."""
        if self._indexes and name in self._indexes:
            self._merge_indexed(name, update.items())
        else:
            self.get_view(name).add_inplace(update)

    def clear(self) -> None:
        """Drop every view, pending delta and slice index."""
        self.views.clear()
        self.deltas.clear()
        self._indexes.clear()

    # ------------------------------------------------------------------
    # Persistent slice indexes
    # ------------------------------------------------------------------
    def slice_index(
        self,
        name: str,
        positions: tuple[int, ...],
        counters: Counters | None = None,
    ) -> SliceProbe | None:
        """The probe of view ``name``'s index on ``positions``.

        Built on first request (the build scan is counted), then kept
        current by every write until :meth:`set_view` or :meth:`clear`
        drops it.  Contents must change only through those methods,
        :meth:`apply_update` and :meth:`insert_rows`.
        """
        by_positions = self._indexes.setdefault(name, {})
        index = by_positions.get(positions)
        if index is None:
            contents = self.get_view(name)
            if counters is not None:
                counters.tuples_scanned += len(contents)
            index = by_positions[positions] = _SliceIndex(contents, positions)
        return index.probe

    def _merge_indexed(self, name: str, pairs) -> None:
        data = self.get_view(name).data
        indexes = tuple(self._indexes[name].values())
        for t, m in pairs:
            nm = data.get(t, 0) + m
            if is_zero(nm):
                if data.pop(t, None) is not None:
                    for index in indexes:
                        index.remove(t)
            else:
                data[t] = nm
                for index in indexes:
                    index.put(t, nm)

    # ------------------------------------------------------------------
    # Delta relations (pending update batches)
    # ------------------------------------------------------------------
    def set_delta(self, name: str, batch: GMR) -> None:
        self.deltas[name] = batch

    def get_delta(self, name: str) -> GMR:
        return self.deltas.get(name, GMR())

    def clear_deltas(self) -> None:
        self.deltas.clear()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def copy(self) -> "Database":
        out = Database()
        out.views = {k: GMR(dict(v.data)) for k, v in self.views.items()}
        out.deltas = {k: GMR(dict(v.data)) for k, v in self.deltas.items()}
        return out

    def insert_rows(self, name: str, rows: Iterable[tuple]) -> None:
        """Insert plain tuples with multiplicity 1 into a view."""
        if self._indexes and name in self._indexes:
            self._merge_indexed(name, ((tuple(row), 1) for row in rows))
            return
        g = self.get_view(name)
        for row in rows:
            g.add_tuple(tuple(row), 1)

    def __repr__(self) -> str:
        views = {k: len(v) for k, v in self.views.items()}
        return f"Database(views={views}, deltas={list(self.deltas)})"
