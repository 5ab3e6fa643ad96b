"""The database: named GMRs for base relations, views, and deltas.

Base relations and materialized views live in the same namespace —
recursive IVM deliberately blurs the distinction, since base tables are
just the lowest-order materialized views (Example 2.2).
Delta relations live in a separate namespace so an update batch for
relation ``R`` never shadows the materialized contents of ``R``.
"""

from __future__ import annotations

from typing import Iterable

from repro.ring import GMR


class Database:
    """A mutable collection of named GMRs plus pending update batches."""

    def __init__(self) -> None:
        self.views: dict[str, GMR] = {}
        self.deltas: dict[str, GMR] = {}

    # ------------------------------------------------------------------
    # Views / base relations
    # ------------------------------------------------------------------
    def set_view(self, name: str, contents: GMR) -> None:
        self.views[name] = contents

    def get_view(self, name: str) -> GMR:
        """Contents of a view; unknown names read as empty relations."""
        g = self.views.get(name)
        if g is None:
            g = GMR()
            self.views[name] = g
        return g

    def apply_update(self, name: str, update: GMR) -> None:
        """Merge an update batch into a view's contents (``+=``)."""
        self.get_view(name).add_inplace(update)

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
        g = self.get_view(name)
        for row in rows:
            g.add_tuple(tuple(row), 1)

    def __repr__(self) -> str:
        views = {k: len(v) for k, v in self.views.items()}
        return f"Database(views={views}, deltas={list(self.deltas)})"
