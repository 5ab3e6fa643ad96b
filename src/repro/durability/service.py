"""A :class:`ViewService` whose seq axis survives the process.

:class:`DurableViewService` wires the write-ahead log
(:mod:`repro.durability.wal`) and checkpoint store
(:mod:`repro.durability.checkpoint`) into the service's ingest path:

* every ``on_batch`` appends a ``KIND_BATCH`` record — under the
  service lock, *before* routing, stamped with the seq the batch is
  about to be assigned — so an acknowledged batch is in the log even
  if it is still sitting in an async view's ingest queue when the
  process dies;
* every published view delta appends a ``KIND_DELTA`` record *before*
  it is handed to subscribers (log-append happens-before delivery is
  what makes the ``from_seq`` live-handoff race-free, see
  :meth:`deltas_since`);
* view create/drop append lifecycle records, so recovery rebuilds the
  same view set.

**The delta log stays gap-free across crashes.**  Per view, delta
records cover a contiguous seq prefix: batcher flushes are FIFO and
each record carries the highest seq it merged.  A crash can cut that
prefix short of the batch log (acked batches still queued, their
deltas never published).  Recovery heals the gap: it replays the batch
tail one batch at a time with a drain after each — forcing
one-batch-per-flush alignment — and the publish path logs a replayed
delta only when its seq exceeds the view's highest pre-crash delta
record, so the healed log continues exactly where the old one stopped,
with no duplicate and no missing seq.

**Checkpoints happen at drained boundaries.**  ``checkpoint()`` (auto
every ``checkpoint_every`` batches) drains every view under the
service lock — so the delta log covers everything up to the captured
seq — captures catalog + base database + view definitions, rotates the
WAL, then writes the checkpoint and deletes the covered segments.
Recovery = load the newest valid checkpoint, re-create its views warm
from the restored base (the normal ``create_view`` path), replay the
WAL tail.  The checkpoint seq becomes the **resume horizon**: a
``from_seq`` below it cannot be served (the records are gone) and
raises :class:`ResumeHorizonError` — subscribers fall back to a full
snapshot (``initial=1``).
"""

from __future__ import annotations

import threading

from repro.eval import Database
from repro.net.wire import decode_gmr
from repro.ring import GMR
from repro.service import ServiceError, ViewService
from repro.service.service import ViewHandle
from repro.durability.checkpoint import CheckpointStore
from repro.durability.wal import (
    KIND_BATCH,
    KIND_DELTA,
    KIND_DROP,
    KIND_VIEW,
    WalError,
    WriteAheadLog,
)

__all__ = ["DurableViewService", "ResumeHorizonError"]


class ResumeHorizonError(ServiceError):
    """``from_seq`` points below the truncation horizon: the deltas it
    asks for were covered by a checkpoint and their WAL segments are
    gone.  Carries ``horizon`` so the frontend can tell the subscriber
    where resumability starts (it should re-subscribe with
    ``initial=1`` instead)."""

    def __init__(self, view: str, from_seq: int, horizon: int):
        super().__init__(
            f"cannot resume view {view!r} from seq {from_seq}: the log "
            f"is truncated up to checkpoint seq {horizon} — "
            "re-subscribe with initial=1 for a full snapshot"
        )
        self.view = view
        self.from_seq = from_seq
        self.horizon = horizon


class DurableViewService(ViewService):
    """A ViewService logging every batch and delta to a WAL directory.

    Construction *is* recovery: if ``wal_dir`` holds a checkpoint
    and/or WAL segments from a previous process, the service comes up
    with that state (same seq, same views, same base) before the first
    call reaches it.  ``checkpoint_every=N`` checkpoints after every N
    ingested batches (0 = manual :meth:`checkpoint` only); ``fsync``
    is the WAL policy (``always`` | ``interval`` | ``off``).

    The base database is always tracked (``track_base`` is forced on):
    checkpoints restore view state by re-initializing each view from
    the base, which only works if the base absorbed every batch.
    """

    def __init__(
        self,
        wal_dir: str,
        catalog: dict[str, tuple[str, ...]] | None = None,
        base: Database | None = None,
        registry=None,
        tracer=None,
        checkpoint_every: int = 0,
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        sharing: bool = True,
    ):
        # Sharing composes with durability deterministically: only user
        # views are checkpointed/WAL-logged, and recovery replays
        # create_view in the original order, so the subplan DAG (and
        # its internal node names) is rebuilt identically before the
        # batch tail replays through it.
        super().__init__(
            catalog=catalog, base=base, track_base=True,
            registry=registry, tracer=tracer, sharing=sharing,
        )
        self.wal_dir = str(wal_dir)
        self.checkpoint_every = int(checkpoint_every or 0)
        self.checkpoints = CheckpointStore(self.wal_dir)
        self.wal = WriteAheadLog(
            self.wal_dir, fsync=fsync, fsync_interval_s=fsync_interval_s,
        )
        #: serializes the check-and-append of delta records so each
        #: view's logged seqs are strictly increasing even when a drain
        #: catch-up races a batcher flush
        self._delta_log_lock = threading.Lock()
        #: per view, the highest seq with a logged delta record
        self._delta_high: dict[str, int] = {}
        #: per view, the durable definition (spec/backend/options) —
        #: what checkpoints store and recovery replays
        self._view_defs: dict[str, dict] = {}
        #: seq of the checkpoint whose truncation bounds from_seq resume
        self._horizon = 0
        self._batches_since_ckpt = 0
        self._checkpoints_taken = 0
        self._replaying = False
        #: recovery summary ({"checkpoint_seq", "replayed"}) for /health
        self.recovered: dict | None = None
        self.registry.gauge_fn(
            "repro_wal_appends_total", lambda: self.wal.appends,
            help="records appended to the write-ahead log",
        )
        self.registry.gauge_fn(
            "repro_wal_bytes_total", lambda: self.wal.bytes_written,
            help="bytes appended to the write-ahead log",
        )
        self.registry.gauge_fn(
            "repro_wal_fsyncs_total", lambda: self.wal.fsyncs,
            help="fsync calls issued by the write-ahead log",
        )
        self.registry.gauge_fn(
            "repro_wal_segments",
            lambda: len(self.wal.segment_numbers()),
            help="WAL segment files on disk",
        )
        self.registry.gauge_fn(
            "repro_service_checkpoints_total",
            lambda: self._checkpoints_taken,
            help="checkpoints written since this process started",
        )
        self.registry.gauge_fn(
            "repro_service_resume_horizon", lambda: self._horizon,
            help="lowest seq from which from_seq subscriptions can resume",
        )
        self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Load the newest checkpoint, replay the WAL tail, heal the
        delta log.  Runs once, at construction, before any caller can
        reach the service."""
        span = self.tracer.span("recover", None)
        state = self.checkpoints.load_latest()
        from_segment = state["next_segment"] if state else None
        # Materialize the tail up front: replay itself appends healed
        # delta records to the active segment, which must not feed back
        # into the iteration.
        records = list(self.wal.records(from_segment))
        ckpt_seq = int(state["seq"]) if state else 0
        for kind, rec in records:
            if kind == KIND_DELTA:
                view = rec.get("view")
                if rec["seq"] > self._delta_high.get(view, 0):
                    self._delta_high[view] = rec["seq"]
        replayed = 0
        self._replaying = True
        try:
            if state is not None:
                self.catalog.update(
                    {t: tuple(c) for t, c in state["catalog"].items()}
                )
                for relation, data in state["base"].items():
                    self.base.set_view(relation, GMR(dict(data)))
                self._seq = ckpt_seq
                for vd in state["views"]:
                    self.create_view(
                        vd["name"], vd["spec"], backend=vd["backend"],
                        **vd["options"],
                    )
            for kind, rec in records:
                if kind == KIND_VIEW:
                    if rec["name"] not in self._views:
                        self.create_view(
                            rec["name"], rec["spec"],
                            backend=rec["backend"], **rec["options"],
                        )
                elif kind == KIND_DROP:
                    if rec["name"] in self._views:
                        self.drop_view(rec["name"])
                elif kind == KIND_BATCH:
                    seq = rec["seq"]
                    if seq <= self._seq:
                        continue  # covered by the checkpoint
                    if seq != self._seq + 1:
                        raise WalError(
                            f"WAL batch records are not contiguous: "
                            f"expected seq {self._seq + 1}, found {seq}"
                        )
                    try:
                        self.on_batch(
                            rec["relation"], decode_gmr(rec["delta"])
                        )
                    except Exception:
                        # The original producer already saw (and
                        # absorbed) this failure; replay matches the
                        # original partial routing.
                        pass
                    # Drain after *every* replayed batch: one batch per
                    # flush, so healed delta records slot in exactly
                    # after the pre-crash prefix (which may end on a
                    # coalesced record covering several seqs).
                    self.drain()
                    replayed += 1
            self.drain()
        finally:
            self._replaying = False
        self._horizon = ckpt_seq
        if ckpt_seq or replayed or self._views:
            self.recovered = {
                "checkpoint_seq": ckpt_seq,
                "replayed": replayed,
                "seq": self._seq,
                "views": list(self._views),
            }
        else:
            self.recovered = None  # fresh directory: nothing recovered
        span.set(
            checkpoint_seq=ckpt_seq, replayed=replayed, seq=self._seq,
            views=len(self._views),
        )
        span.finish()

    # ------------------------------------------------------------------
    # Durable overrides of the ingest path
    # ------------------------------------------------------------------
    def on_batch(self, relation, batch, trace=None):
        with self._lock:
            if not self._replaying:
                # Log before routing, with the seq the super call is
                # about to assign: an acked batch is durable even if it
                # dies in an async queue.  With fsync="always" the ack
                # implies the record hit the disk.
                self.wal.append_batch(self._seq + 1, relation, batch)
            try:
                return super().on_batch(relation, batch, trace=trace)
            finally:
                self._batches_since_ckpt += 1
                if (
                    self.checkpoint_every
                    and not self._replaying
                    and self._batches_since_ckpt >= self.checkpoint_every
                ):
                    self.checkpoint()

    def create_view(self, name, source, backend="rivm-batch", *,
                    updatable=None, key_hints=None, **options):
        with self._lock:
            handle = super().create_view(
                name, source, backend=backend, updatable=updatable,
                key_hints=key_hints, **options,
            )
            # The spec (not the raw source) is what the record carries:
            # it already folded in catalog resolution, updatable, and
            # key hints, and QuerySpec pickles by contract.
            record = {
                "name": name,
                "spec": handle.spec,
                "backend": backend,
                "options": dict(options),
            }
            if not self._replaying:
                try:
                    self.wal.append_view(record)
                except Exception as exc:
                    # Creation must not outlive its durability: a view
                    # the log cannot describe would silently vanish on
                    # restart.
                    super().drop_view(name)
                    raise ServiceError(
                        f"view {name!r} cannot be made durable "
                        f"(options not serializable?): {exc}"
                    ) from exc
            self._view_defs[name] = record
            return handle

    def drop_view(self, name):
        super().drop_view(name)
        self._view_defs.pop(name, None)
        if not self._replaying:
            self.wal.append_drop(name)

    #: every seq's delta must reach the log, so it is computed even
    #: while nobody is subscribed (never coalesced into a later event)
    _keeps_delta_log = True

    def _log_delta(self, handle: ViewHandle, relation, seq, delta, seqs):
        """Append the delta to the WAL.  The base publish calls this
        *before* any subscriber sees the delta, so a ``from_seq``
        handoff that scans the log after subscribing can never miss an
        event: whatever its live queue missed is in the scan."""
        with self._delta_log_lock:
            if seq > self._delta_high.get(handle.name, 0):
                self.wal.append_delta(
                    seq, handle.name, relation, delta, seqs=seqs,
                )
                self._delta_high[handle.name] = seq
            # else: replay recomputed a delta the pre-crash log already
            # covers (its record survived) — deliverable, not loggable.

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Capture a drained state, rotate the WAL, truncate the
        covered prefix; returns the checkpointed seq.

        Runs under the service lock (producers stall for the duration —
        ``checkpoint_every`` trades that stall against recovery time
        and resume-horizon depth).  The drain is what licenses the
        truncation: after it, every delta of every batch ``<= seq`` is
        either in a subscriber's hands or recomputable from the
        checkpoint, so the old segments carry no unique information.
        """
        with self._lock:
            span = self.tracer.span("checkpoint", None, seq=self._seq)
            self.drain()
            seq = self._seq
            state = {
                "seq": seq,
                "catalog": dict(self.catalog),
                "base": {
                    r: dict(g.data) for r, g in self.base.views.items()
                },
                "views": [
                    dict(self._view_defs[name]) for name in self._views
                ],
                "next_segment": self.wal.rotate(),
            }
            # Advance the horizon before releasing the lock: a from_seq
            # request racing the truncation below must be refused, not
            # fed a half-deleted log.
            self._horizon = seq
            self._batches_since_ckpt = 0
        self.checkpoints.save(state)
        self.wal.truncate_before(state["next_segment"])
        self._checkpoints_taken += 1
        span.set(next_segment=state["next_segment"])
        span.finish()
        return seq

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def deltas_since(self, view: str, from_seq: int):
        """Replay logged deltas of ``view`` with ``seq > from_seq``, as
        ``(seq, relation, GMR, seqs)`` tuples in seq order.

        The network frontend's ``?from_seq=`` handler subscribes
        *first* and scans *second*: because every delta is logged
        before it is delivered, an event is either in this scan or in
        the live queue (or both — the pump dedupes on seq), never in
        neither.  Raises :class:`ResumeHorizonError` below the
        truncation horizon and the usual unknown-view
        :class:`~repro.service.ServiceError` otherwise.
        """
        with self._lock:
            self._handle(view)
            horizon = self._horizon
        if from_seq < horizon:
            raise ResumeHorizonError(view, from_seq, horizon)
        return self.wal.read_deltas(view, from_seq)

    @property
    def resume_horizon(self) -> int:
        return self._horizon

    # ------------------------------------------------------------------
    def close(self, checkpoint: bool = False) -> None:
        """Flush queues (so the delta log is complete), optionally take
        a final checkpoint, and close the WAL."""
        if checkpoint:
            self.checkpoint()
        else:
            self.drain()
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"DurableViewService(views={sorted(self._views)}, "
            f"seq={self._seq}, wal_dir={self.wal_dir!r}, "
            f"horizon={self._horizon})"
        )
