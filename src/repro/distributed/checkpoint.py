"""Checkpointing and failure recovery (paper Section 4).

The paper's distributed runtime "naturally leverages the fault
tolerance mechanisms of the underlying execution platform": periodic
checkpoints of the materialized state to reliable storage shorten
recovery, at a latency cost the user must tune.  This module makes
that trade-off measurable on the simulated cluster:

* :class:`CheckpointPolicy` — checkpoint every N batches; the cost
  model charges serialization + write bandwidth for the full
  distributed state;
* :class:`FailureInjector` — deterministic worker-failure schedule;
* :class:`FaultTolerantCluster` — wraps a :class:`SimulatedCluster`,
  takes checkpoints, and on failure restores the last snapshot and
  replays the suffix of the update log.  Results after recovery are
  identical to a failure-free run (exactly-once maintenance), which the
  tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.cluster import CostModel, SimulatedCluster
from repro.distributed.program import DistributedProgram
from repro.eval import Database
from repro.ring import GMR
from repro.storage.columnar import estimate_gmr_bytes


@dataclass
class CheckpointPolicy:
    """When and how expensively state is checkpointed.

    ``interval`` in batches; ``None`` disables checkpointing entirely
    (recovery then replays the whole stream from batch 0).
    """

    interval: int | None = 10
    #: reliable-storage write bandwidth per worker (HDFS in the paper)
    write_bytes_per_s: float = 2.0e8
    #: fixed coordination cost per checkpoint
    fixed_s: float = 0.050


@dataclass
class FailureInjector:
    """Deterministic failure schedule: batch index -> failing worker."""

    failures: dict[int, int] = field(default_factory=dict)

    def failing_worker(self, batch_index: int, n_workers: int) -> int | None:
        w = self.failures.get(batch_index)
        if w is None:
            return None
        return w % n_workers


@dataclass
class RecoveryEvent:
    """One recovery: what it cost and how much work was replayed."""

    batch_index: int
    failed_worker: int
    restored_from: int  # checkpoint batch index (-1 = stream start)
    replayed_batches: int
    recovery_latency_s: float


class FaultTolerantCluster:
    """A simulated cluster with checkpoint/replay fault tolerance."""

    def __init__(
        self,
        program: DistributedProgram,
        n_workers: int,
        policy: CheckpointPolicy | None = None,
        injector: FailureInjector | None = None,
        cost_model: CostModel | None = None,
        seed: int = 7,
    ):
        self.cluster = SimulatedCluster(
            program, n_workers, cost_model=cost_model, seed=seed
        )
        self.policy = policy or CheckpointPolicy()
        self.injector = injector or FailureInjector()
        self.checkpoint_latencies_s: list[float] = []
        self.recoveries: list[RecoveryEvent] = []

        self._batch_index = 0
        self._log: list[tuple[str, GMR]] = []
        self._snapshot: tuple[int, list[Database], Database] | None = None
        self._initial: tuple[list[Database], Database] | None = None

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        return self.cluster.metrics

    @property
    def workers(self):
        return self.cluster.workers

    @property
    def driver(self):
        return self.cluster.driver

    def view(self, name: str) -> GMR:
        return self.cluster.view(name)

    def snapshot(self) -> GMR:
        return self.cluster.snapshot()

    # ------------------------------------------------------------------
    # Batch processing with checkpoints and failures
    # ------------------------------------------------------------------
    def on_batch(self, relation: str, batch: GMR) -> float:
        """Process one batch; handles any injected failure first."""
        if self._initial is None:
            # Capture the post-initialization state so recovery without
            # checkpoints can replay from the stream start.
            self._initial = self._copy_state()

        latency = 0.0
        failed = self.injector.failing_worker(
            self._batch_index, self.cluster.n_workers
        )
        if failed is not None:
            latency += self._recover(failed)

        latency += self.cluster.on_batch(relation, batch)
        self._log.append((relation, GMR(dict(batch.data))))

        interval = self.policy.interval
        if interval is not None and (self._batch_index + 1) % interval == 0:
            cp = self._take_checkpoint()
            latency += cp
            # Checkpoint time extends the batch's observed latency.
            self.cluster.metrics.latencies_s[-1] += cp

        self._batch_index += 1
        return latency

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _copy_state(self) -> tuple[list[Database], Database]:
        workers = [db.copy() for db in self.cluster.workers]
        driver = self.cluster.driver.copy()
        return workers, driver

    def _state_bytes(self) -> int:
        total = 0
        for db in self.cluster.workers:
            for g in db.views.values():
                total += estimate_gmr_bytes(g)
        for g in self.cluster.driver.views.values():
            total += estimate_gmr_bytes(g)
        return total

    def _take_checkpoint(self) -> float:
        workers, driver = self._copy_state()
        self._snapshot = (self._batch_index, workers, driver)
        self._log.clear()
        per_worker = self._state_bytes() / max(1, self.cluster.n_workers)
        latency = (
            self.policy.fixed_s + per_worker / self.policy.write_bytes_per_s
        )
        self.checkpoint_latencies_s.append(latency)
        return latency

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, failed_worker: int) -> float:
        """Restore the last snapshot and replay the logged suffix.

        The failed worker's state is lost; because distributed state is
        hash-partitioned (not replicated), the deterministic recovery
        is a rollback of *all* state to the snapshot plus replay — the
        checkpoint-based recovery model of Spark-style lineage systems.
        """
        if self._snapshot is not None:
            restored_from, workers, driver = self._snapshot
            self.cluster.workers = [db.copy() for db in workers]
            self.cluster.driver = driver.copy()
        else:
            restored_from = -1
            workers, driver = self._initial
            self.cluster.workers = [db.copy() for db in workers]
            self.cluster.driver = driver.copy()

        replay = list(self._log)
        self._log.clear()
        replay_latency = 0.0
        for relation, batch in replay:
            replay_latency += self.cluster.on_batch(relation, batch)
            self._log.append((relation, batch))
            # Replayed batches are recovery work, not throughput: drop
            # their metric entries so per-batch accounting stays 1:1
            # with the logical stream.
            self.cluster.metrics.latencies_s.pop()
            self.cluster.metrics.batches -= 1

        event = RecoveryEvent(
            batch_index=self._batch_index,
            failed_worker=failed_worker,
            restored_from=restored_from,
            replayed_batches=len(replay),
            recovery_latency_s=replay_latency,
        )
        self.recoveries.append(event)
        return replay_latency
