"""Worker-failure supervision for the process-parallel backend.

A worker's state is a deterministic function of the *ordered command
stream* it has consumed: ``install``/``delta``/``store`` carry their
contents explicitly, ``block`` execution depends only on worker-local
state, and every byte of data movement passes through the coordinator.
So the coordinator can resurrect any worker without touching the
others: journal the mutating commands it sends, and on death replay
them — from the last checkpoint — into a fresh process.

:class:`WorkerJournal` keeps that per-worker history in two bands:

* ``committed`` — commands up to the last batch that reached its sync
  barrier, plus a ``checkpoint`` (a full dump of the worker's views)
  that periodically truncates the committed band so replay cost stays
  bounded;
* ``staged`` — commands of the batch in flight.  A successful barrier
  promotes them; a failure rolls them back and the whole batch is
  retried after recovery.

Journaled payloads are stored as
:class:`~repro.storage.columnar.ShmColumnarBlock` bytes — immutable
and independent of the data plane, so replay never depends on a
shared-memory segment that has since been recycled.

:class:`WorkerSupervisor` adds the policy: a bounded restart budget
(shared across workers — each restart spends one) and the checkpoint
cadence.  When the budget runs out the backend falls back to the
PR 3 contract and poisons itself with a ``BackendError``.
"""

from __future__ import annotations

from repro.ring import GMR

#: Journal entry kinds whose replay needs a reply drained (and
#: discarded — replayed counters would double-count).
REPLAYS_WITH_REPLY = frozenset({"block"})

#: Entry kinds that mutate a worker's *views* (not just staged deltas).
#: A surviving worker whose staged band contains one of these cannot be
#: rolled back in place and must be reset + replayed before the batch
#: retry; a worker that only staged deltas need not be — ``delta``
#: replaces rather than accumulates, so the retry overwrites it.
_VIEW_MUTATORS = frozenset({"store", "block", "install"})


class WorkerJournal:
    """Replayable command history of one worker."""

    __slots__ = ("checkpoint", "committed", "staged")

    def __init__(self) -> None:
        self.checkpoint: dict[str, GMR] = {}
        self.committed: list[tuple] = []
        self.staged: list[tuple] = []

    def stage(self, entry: tuple) -> None:
        self.staged.append(entry)

    def commit(self) -> None:
        self.committed.extend(self.staged)
        self.staged.clear()

    def rollback(self) -> None:
        self.staged.clear()

    def staged_mutates_views(self) -> bool:
        return any(e[0] in _VIEW_MUTATORS for e in self.staged)

    def set_checkpoint(self, views: dict[str, GMR]) -> None:
        """Install a fresh dump and truncate the committed band."""
        self.checkpoint = views
        self.committed.clear()


class WorkerSupervisor:
    """Restart policy + journals for all workers of one backend."""

    def __init__(
        self, n_workers: int, restart_budget: int, checkpoint_every: int
    ) -> None:
        self.journals = [WorkerJournal() for _ in range(n_workers)]
        self.restart_budget = restart_budget
        self.checkpoint_every = max(1, checkpoint_every)
        self.restarts = 0

    def consume_budget(self) -> bool:
        """Spend one restart; ``False`` when the budget is exhausted."""
        if self.restart_budget <= 0:
            return False
        self.restart_budget -= 1
        self.restarts += 1
        return True

    def stage(self, index: int, entry: tuple) -> None:
        self.journals[index].stage(entry)

    def commit_all(self) -> None:
        for j in self.journals:
            j.commit()

    def rollback_all(self) -> None:
        for j in self.journals:
            j.rollback()

    def due_checkpoint(self, batches_committed: int) -> bool:
        return batches_committed % self.checkpoint_every == 0
