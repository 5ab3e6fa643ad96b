"""The process-parallel execution backend (real OS processes).

:class:`MultiprocBackend` is the `multiproc` entry in the backend
registry: the scale-out counterpart of
:class:`~repro.distributed.SimulatedCluster`, which stays the semantic
oracle — both execute the identical
:class:`~repro.distributed.DistributedProgram`, so their snapshots must
match batch for batch (the differential test in
``tests/test_multiproc_backend.py`` asserts exactly that).

Topology is a star: the coordinator plays the driver (local blocks,
every location transformer) and N daemon worker processes each hold one
hash partition of every Dist-tagged view.  Per batch:

1. the batch is split round-robin and each worker's share staged as its
   delta (worker-side ingestion, paper §6.2);
2. blocks execute in fused order — distributed blocks are broadcast as
   ``("block", relation, i)`` commands and run *concurrently* across
   workers; local blocks run on the coordinator, with Scatter/Repart/
   Gather performing real data movement;
3. staged deltas are cleared everywhere and one sync barrier confirms
   the batch landed on every worker.

The protocol is *pipelined*: pure-write commands (``delta``,
``store``, ``install``, ``clear``) are posted without waiting for
acknowledgements, and the coordinator only drains replies at genuine
data dependencies — a block's counters, a Gather/Repart collect, the
end-of-batch sync.  Workers execute their pipe strictly in order, so
pipelining never reorders effects; it only removes round-trip stalls.

Data plane.  With ``data_plane="shm"`` (the default) GMR payloads
never cross a pipe: the coordinator encodes them once as
:class:`~repro.storage.columnar.ShmColumnarBlock` bytes written
straight into ref-counted :class:`~repro.storage.pool.SegmentPool`
segments — per-worker delta slices are carved from the batch by stride
(``items[i::n]``) and encoded directly, so per-worker pickles are
never materialized — and pipes carry only small descriptors
``(name, nbytes, generation)``.  Replies (Gather/Repart reads,
snapshots) travel the same way through coordinator-pre-sized reply
segments with an inline overflow fallback.  Every segment is created
and unlinked by the coordinator; workers only attach.  The end-of-batch
sync barrier doubles as the segment-recycling point: once every worker
has drained its pipe, no descriptor is outstanding and all in-flight
segments return to the pool, so a steady-state stream allocates
nothing.  ``data_plane="pickle"`` keeps the PR 3 behavior (whole GMRs
pickled per worker) as the benchmark baseline.

Elasticity.  A worker's state is a deterministic function of the
command stream it has consumed, so worker death is survivable: a
:class:`~repro.parallel.supervisor.WorkerSupervisor` journals every
mutating command, and on failure the coordinator quiesces survivors,
restarts the dead process, replays its partition from the last
checkpoint, rolls the in-flight batch back (journal + driver undo log)
and retries it.  Only when the restart budget is exhausted — or a
worker reports an in-band error, which a restart would deterministically
hit again — does the backend poison itself with
:class:`~repro.exec.BackendError` (``restart_budget=0`` restores the
strict PR 3 fail-fast contract).
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
import weakref
from collections import deque
from dataclasses import dataclass, field

from repro.compiler.plancache import compile_program
from repro.distributed import compile_distributed
from repro.distributed.partitioning import hash_partition
from repro.distributed.program import apply_store, ref_cols as _ref_cols
from repro.distributed.tags import Dist, Local, Replicated, Tag
from repro.eval import CompiledEvaluator, Database, Evaluator
from repro.exec.backend import BackendError, ExecutionBackend
from repro.metrics import Counters
from repro.parallel.protocol import WorkerTask, program_fingerprint
from repro.parallel.supervisor import WorkerSupervisor
from repro.parallel.worker import worker_main
from repro.query.ast import DeltaRel, Expr, Gather, Rel, Repart, Scatter
from repro.ring import GMR
from repro.storage.columnar import decode_gmr, encode_pairs
from repro.storage.pool import SegmentPool
from repro.workloads.spec import QuerySpec

#: Starting capacity for reply segments before any size feedback.
_REPLY_HINT_DEFAULT = 65536

DATA_PLANES = ("pickle", "shm")


class _WorkerFailure(Exception):
    """Internal: a worker died, wedged, or broke its pipe.

    Unlike an in-band ``err`` reply (a deterministic program error),
    this is a *process* failure — the supervisor may be able to restart
    and replay.  Never escapes the backend's public surface.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index
        self.message = message


@dataclass
class WorkerHandle:
    """One spawned worker: its process and the coordinator's pipe end."""

    index: int
    process: mp.process.BaseProcess
    conn: object  # multiprocessing.connection.Connection


@dataclass
class ParallelMetrics:
    """Per-run accounting of the process-parallel backend.

    ``wall_s`` is measured wall-clock per batch.  ``scaleout_s`` is the
    *critical-path* latency estimate: wall time minus the
    oversubscription penalty of every distributed block —
    ``max(0, block_wall - max(max_busy, block_wall - (sum_busy -
    max_busy)))`` — where each worker self-reports its CPU time
    (``busy``) for the block.  On a machine with at least ``n_workers``
    free cores the penalty vanishes (workers genuinely overlap and
    ``block_wall`` already reflects it); on an oversubscribed box — a
    1-core CI runner — the OS serializes the workers, and the estimate
    reconstructs the latency a real scale-out deployment would see,
    clamped so a block is never modeled faster than its slowest
    worker's own compute.
    """

    batches: int = 0
    wall_s: list = field(default_factory=list)
    scaleout_s: list = field(default_factory=list)
    #: total busy CPU seconds per worker index (load-balance diagnostics)
    worker_busy_s: list = field(default_factory=list)
    #: worker processes restarted by the supervisor
    restarts: int = 0

    @property
    def total_wall_s(self) -> float:
        return sum(self.wall_s)

    @property
    def total_scaleout_s(self) -> float:
        return sum(self.scaleout_s)

    def balance(self) -> float:
        """max/mean worker busy time (1.0 = perfectly balanced).

        Idle workers count toward the mean — a worker that received no
        work at all is the worst imbalance, not a rounding artifact.
        """
        busy = self.worker_busy_s
        if not busy or not any(b > 0 for b in busy):
            return 1.0
        return max(busy) / (sum(busy) / len(busy))

    def bind(self, scope) -> None:
        """Export through a :class:`repro.obs.MetricsScope` (callback
        gauges — the coordinator mutates plain fields on the hot path)."""
        scope.gauge_fn(
            "repro_multiproc_batches",
            lambda: self.batches,
            help="batches executed by the process-parallel backend",
        )
        scope.gauge_fn(
            "repro_multiproc_restarts",
            lambda: self.restarts,
            help="worker processes restarted by the supervisor",
        )
        scope.gauge_fn(
            "repro_multiproc_wall_seconds",
            lambda: self.total_wall_s,
            help="cumulative per-batch wall time",
        )
        scope.gauge_fn(
            "repro_multiproc_scaleout_seconds",
            lambda: self.total_scaleout_s,
            help="cumulative critical-path latency estimate",
        )
        scope.gauge_fn(
            "repro_multiproc_balance",
            self.balance,
            help="max/mean worker busy time (1.0 = balanced)",
        )


def _default_start_method() -> str:
    # fork is an order of magnitude cheaper to start and the tests spin
    # up many short-lived backends, but it is only safe where CPython
    # itself still defaults to it (Linux); macOS switched to spawn
    # because forking a process that has used threads/frameworks can
    # deadlock (bpo-33725), and Windows never had fork.
    if sys.platform.startswith("linux") and "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


def _shutdown_workers(handles: list[WorkerHandle], pool=None) -> None:
    """GC/exit-time cleanup; must not reference the backend object.

    ``handles`` is the backend's *live* list — worker restarts replace
    entries in place, so the finalizer always sees the current
    processes.  The pool is closed (segments unlinked) only after the
    workers are down, so no attach can race the unlink.
    """
    for h in handles:
        try:
            h.conn.close()
        except OSError:
            pass
    deadline = time.monotonic() + 1.0
    for h in handles:
        h.process.join(max(0.0, deadline - time.monotonic()))
    for h in handles:
        if h.process.is_alive():
            h.process.terminate()
    if pool is not None:
        pool.close()


class MultiprocBackend(ExecutionBackend):
    """Executes a distributed maintenance program across OS processes."""

    def __init__(
        self,
        spec: QuerySpec,
        n_workers: int = 2,
        opt_level: int = 3,
        use_compiled: bool = True,
        counters: Counters | None = None,
        reply_timeout_s: float = 120.0,
        start_method: str | None = None,
        data_plane: str = "shm",
        restart_budget: int = 3,
        checkpoint_every: int = 16,
    ):
        if n_workers < 1:
            raise ValueError("multiproc backend needs at least one worker")
        if data_plane not in DATA_PLANES:
            raise ValueError(
                f"unknown data plane {data_plane!r}; expected one of "
                f"{DATA_PLANES}"
            )
        self.spec = spec
        self.n_workers = n_workers
        self.use_compiled = use_compiled
        self.reply_timeout_s = reply_timeout_s
        self.data_plane = data_plane
        self.counters = counters if counters is not None else Counters()
        self._opt_level = opt_level
        self.program = compile_distributed(
            spec.query,
            name=spec.name,
            key_hints=spec.key_hints,
            updatable=spec.updatable,
            opt_level=opt_level,
        )
        self._fingerprint = program_fingerprint(self.program)

        self.driver = Database()
        self.plans = compile_program(self.program) if use_compiled else None
        self.batches_processed = 0
        self.metrics = ParallelMetrics(worker_busy_s=[0.0] * n_workers)
        self._failed: str | None = None
        self._closed = False
        self._pending: list[deque] = [deque() for _ in range(n_workers)]
        self._pool = SegmentPool() if data_plane == "shm" else None
        self._supervisor = (
            WorkerSupervisor(n_workers, restart_budget, checkpoint_every)
            if restart_budget > 0
            else None
        )
        self._reply_hints: dict = {}
        self._driver_undo: dict | None = None

        self._ctx = mp.get_context(start_method or _default_start_method())
        handles: list[WorkerHandle] = []
        try:
            for i in range(n_workers):
                handles.append(self._spawn_worker(i))
            self._handles = handles
            # Ready handshake: workers compile concurrently; collecting
            # after all have started surfaces compile errors up front.
            for h in handles:
                self._recv(h)
        except _WorkerFailure as exc:
            _shutdown_workers(handles, self._pool)
            raise BackendError(exc.message) from exc
        except BaseException:
            _shutdown_workers(handles, self._pool)
            raise
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._handles, self._pool
        )

    def _spawn_worker(self, index: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        task = WorkerTask(
            spec=self.spec,
            opt_level=self._opt_level,
            n_workers=self.n_workers,
            index=index,
            use_compiled=self.use_compiled,
            fingerprint=self._fingerprint,
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, task),
            name=f"repro-{self.spec.name}-worker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return WorkerHandle(index, proc, parent_conn)

    # ------------------------------------------------------------------
    # Pipe plumbing (pipelined request/reply)
    # ------------------------------------------------------------------
    def _fail(self, message: str) -> BackendError:
        self._failed = message
        return BackendError(message)

    def _check_usable(self) -> None:
        if self._closed:
            raise BackendError(
                f"multiproc backend for {self.spec.name!r} is closed"
            )
        if self._failed is not None:
            raise BackendError(
                f"multiproc backend for {self.spec.name!r} already failed: "
                f"{self._failed}"
            )

    def _post(self, handle: WorkerHandle, msg: tuple) -> None:
        """Send a pure-write command; the worker will not reply."""
        try:
            handle.conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerFailure(
                handle.index,
                f"worker {handle.index} (pid {handle.process.pid}) is gone: "
                f"cannot send {msg[0]!r} command ({exc})",
            ) from exc

    def _ask(self, handle: WorkerHandle, msg: tuple) -> list:
        """Send a command that produces a reply; returns a slot that
        :meth:`_drain` fills with the payload."""
        self._post(handle, msg)
        slot: list = []
        self._pending[handle.index].append(slot)
        return slot

    def _drain(self) -> None:
        """Collect every outstanding reply, in per-worker pipe order."""
        for h in self._handles:
            q = self._pending[h.index]
            while q:
                slot = q.popleft()
                slot.append(self._recv(h))

    def _sync(self) -> None:
        """Barrier: every worker has applied all posted commands."""
        for h in self._handles:
            self._ask(h, ("sync",))
        self._drain()

    def _recv_raw(self, handle: WorkerHandle) -> tuple:
        deadline = time.monotonic() + self.reply_timeout_s
        while True:
            try:
                if handle.conn.poll(0.05):
                    break
            except (BrokenPipeError, OSError) as exc:
                raise _WorkerFailure(
                    handle.index, f"worker {handle.index} pipe failed: {exc}"
                ) from exc
            if not handle.process.is_alive():
                raise _WorkerFailure(
                    handle.index,
                    f"worker {handle.index} (pid {handle.process.pid}) died "
                    f"mid-batch (exit code {handle.process.exitcode})",
                )
            if time.monotonic() > deadline:
                raise _WorkerFailure(
                    handle.index,
                    f"worker {handle.index} (pid {handle.process.pid}) did "
                    f"not reply within {self.reply_timeout_s}s",
                )
        try:
            return handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerFailure(
                handle.index,
                f"worker {handle.index} closed its pipe mid-reply ({exc})",
            ) from exc

    def _recv(self, handle: WorkerHandle):
        status, payload = self._recv_raw(handle)
        if status == "err":
            # Deterministic program error: a restarted worker would hit
            # it again, so poison instead of burning restart budget.
            raise self._fail(
                f"worker {handle.index} raised while serving:\n{payload}"
            )
        return payload

    # ------------------------------------------------------------------
    # Payload encoding (the data plane)
    # ------------------------------------------------------------------
    def _make_payload(self, value, refs: int = 1) -> tuple:
        """Encode a GMR (or raw ``(tuple, mult)`` pairs) for the wire.

        Returns ``(payload, journal_bytes)``.  On the shm plane the
        contents are laid out once in a pool segment and the payload is
        a descriptor; pairs are encoded directly — no intermediate GMR.
        ``journal_bytes`` is the plane-independent codec encoding for
        the supervisor's journal (``None`` when unsupervised).
        """
        journal = self._supervisor is not None
        if self._pool is not None:
            pairs = value.data.items() if hasattr(value, "data") else value
            block = encode_pairs(pairs)
            jbytes = block.to_bytes() if journal else None
            if block.n_rows == 0:
                return ("e",), jbytes
            seg = self._pool.acquire(block.nbytes, refs=refs)
            block.write_into(seg.buf)
            return ("s", seg.name, block.nbytes, seg.generation), jbytes
        gmr = value if hasattr(value, "data") else GMR.unsafe(dict(value))
        jbytes = encode_pairs(gmr.data.items()).to_bytes() if journal else None
        return ("g", gmr), jbytes

    def _reply_spec(self, key) -> tuple:
        """Pre-size a reply segment for a ``read``/``view`` command.

        Returns ``(spec, segment)``; ``(None, None)`` on the pickle
        plane.  Capacity starts at 64 KiB and adapts per reply key from
        observed sizes (overflows fall back to inline bytes and bump
        the hint, so a growing view pays the pipe copy at most once per
        size class)."""
        if self._pool is None:
            return None, None
        hint = self._reply_hints.get(key, _REPLY_HINT_DEFAULT)
        seg = self._pool.acquire(hint, refs=1)
        return ("s", seg.name, seg.capacity), seg

    def _decode_reply(self, payload, seg, key) -> GMR:
        """Materialize a ``read``/``view`` reply; recycles ``seg``."""
        kind = payload[0]
        if kind == "g":
            result = payload[1]
        elif kind == "e":
            result = GMR()
        elif kind == "s":
            _, _name, nbytes = payload
            result = decode_gmr(seg.buf[:nbytes])
            if nbytes > self._reply_hints.get(key, _REPLY_HINT_DEFAULT):
                self._reply_hints[key] = nbytes
        elif kind == "b":
            result = decode_gmr(payload[1])
            # The pre-sized segment overflowed; remember the real size.
            self._reply_hints[key] = 2 * len(payload[1])
        else:
            raise BackendError(f"malformed reply payload {payload!r}")
        if seg is not None:
            self._pool.release(seg.name)
        return result

    def _stage(self, index: int, entry: tuple) -> None:
        if self._supervisor is not None:
            self._supervisor.stage(index, entry)

    # ------------------------------------------------------------------
    # Worker recovery (restart + journal replay)
    # ------------------------------------------------------------------
    def _recover(self, failure: _WorkerFailure) -> None:
        """Bring the backend back to the last committed state.

        Restarts dead workers (journal replay), quiesces and — when
        their staged commands touched views — resets survivors, rolls
        the driver back, and recycles every in-flight segment.  Raises
        the poisoning :class:`BackendError` when unsupervised or out of
        restart budget.  Safe to re-enter: a worker dying *during*
        recovery surfaces as a fresh ``_WorkerFailure`` and the caller
        loops back in, with the budget bounding total attempts.
        """
        sup = self._supervisor
        if sup is None:
            raise self._fail(failure.message)
        dead = [h for h in self._handles if not h.process.is_alive()]
        failing = self._handles[failure.index]
        if failing not in dead:
            # Wedged past its deadline or pipe broken while the process
            # lingers: it is unrecoverable in place, so make it dead.
            failing.process.terminate()
            failing.process.join(5.0)
            dead.append(failing)
        for h in dead:
            if not sup.consume_budget():
                raise self._fail(
                    f"worker {h.index} failed with the restart budget "
                    f"exhausted: {failure.message}"
                )
        self.metrics.restarts = sup.restarts
        dead_idx = {h.index for h in dead}

        # Quiesce survivors: drain the replies they still owe so their
        # pipes are empty, then reset+replay any whose staged commands
        # mutated views (a staged delta alone is overwritten by the
        # retry, so those workers keep their state).
        for h in self._handles:
            if h.index in dead_idx:
                continue
            self._resync(h)
            if sup.journals[h.index].staged_mutates_views():
                self._post(h, ("reset",))
                self._replay(h)

        # Restart the dead and rebuild their partitions from the
        # journal (fresh process: checkpoint installs + committed
        # commands, finished with a barrier).
        for h in dead:
            try:
                h.conn.close()
            except OSError:
                pass
            replacement = self._spawn_worker(h.index)
            self._handles[h.index] = replacement
            self._pending[h.index].clear()
            self._recv(replacement)  # ready handshake
            self._replay(replacement)

        # Every pipe is quiet again: no descriptor is outstanding.
        if self._pool is not None:
            self._pool.release_all_inflight()
        sup.rollback_all()
        self._rollback_driver()

    def _resync(self, handle: WorkerHandle) -> None:
        """Discard a survivor's outstanding replies and re-barrier.

        Workers answer strictly in order, so the pending queue's length
        is exactly the number of replies still in (or headed for) the
        pipe.  ``err`` replies are discarded too: they answer abandoned
        commands, and the retry will re-encounter any deterministic
        error itself.
        """
        q = self._pending[handle.index]
        while q:
            q.popleft()
            self._recv_raw(handle)
        self._post(handle, ("sync",))
        status, _ = self._recv_raw(handle)
        if status != "ok":
            raise _WorkerFailure(
                handle.index,
                f"worker {handle.index} failed its recovery barrier",
            )

    def _replay(self, handle: WorkerHandle) -> None:
        """Re-send a worker's journal: checkpoint, then commands."""
        journal = self._supervisor.journals[handle.index]
        for name, gmr in journal.checkpoint.items():
            # Pickled inline: send() gives the worker its own copy and
            # leaves the coordinator's checkpoint untouched.
            self._post(handle, ("install", name, ("g", gmr)))
        for entry in journal.committed:
            kind = entry[0]
            if kind == "block":
                _, relation, index = entry
                self._post(handle, ("block", relation, index))
                self._recv(handle)  # discard: counters already merged
            elif kind == "clear":
                self._post(handle, ("clear",))
            elif kind == "delta":
                self._post(handle, ("delta", entry[1], ("b", entry[2])))
            elif kind == "install":
                self._post(handle, ("install", entry[1], ("b", entry[2])))
            else:  # store
                _, target, op, scope, payload = entry
                self._post(
                    handle, ("store", target, op, scope, ("b", payload))
                )
        self._post(handle, ("sync",))
        self._recv(handle)

    def _rollback_driver(self) -> None:
        """Return the driver to its state before the failed batch."""
        undo = self._driver_undo
        if undo:
            for name, gmr in undo.items():
                self.driver.set_view(name, gmr)
            undo.clear()
        self.driver.clear_deltas()

    def _restore_counters(self, before: dict, busy_before: list) -> None:
        for name, value in before.items():
            if name != "virtual_instructions":
                setattr(self.counters, name, value)
        self.metrics.worker_busy_s[:] = busy_before

    # ------------------------------------------------------------------
    # Placement helpers (shared semantics with SimulatedCluster)
    # ------------------------------------------------------------------
    def _tag(self, name: str) -> Tag:
        return self.program.partitioning.get(name, Local())

    def _partition(self, contents: GMR, cols, keys) -> list[GMR]:
        return hash_partition(contents, cols, keys, self.n_workers)

    def _evaluator(self, counters: Counters):
        if self.use_compiled:
            return CompiledEvaluator(self.driver, counters, plans=self.plans)
        return Evaluator(self.driver, counters)

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(self, base: Database) -> None:
        """Compute every view from ``base`` and install it by tag."""
        self._check_usable()
        evaluator = Evaluator(base)
        computed = []
        for info in self.program.local_program.views.values():
            contents = evaluator.materialize(info.definition)
            if not contents.is_zero():
                computed.append((info, contents))
        while True:
            try:
                self._initialize_once(computed)
                return
            except _WorkerFailure as exc:
                self._recover(exc)

    def _initialize_once(self, computed) -> None:
        for info, contents in computed:
            tag = self.program.partitioning.get(info.name)
            if isinstance(tag, Dist):
                parts = self._partition(contents, list(info.cols), tag.keys)
                for h, part in zip(self._handles, parts):
                    payload, jbytes = self._make_payload(part)
                    self._stage(h.index, ("install", info.name, jbytes))
                    self._post(h, ("install", info.name, payload))
            elif isinstance(tag, Replicated):
                payload, jbytes = self._make_payload(
                    contents, refs=self.n_workers
                )
                for h in self._handles:
                    self._stage(h.index, ("install", info.name, jbytes))
                    self._post(h, ("install", info.name, payload))
            else:
                self.driver.set_view(info.name, contents)
        self._sync()
        if self._supervisor is not None:
            self._supervisor.commit_all()
        if self._pool is not None:
            self._pool.release_all_inflight()

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def on_batch(self, relation: str, batch: GMR) -> None:
        """Route one update batch through the coordinator and workers."""
        self._check_usable()
        trig = self.program.triggers.get(relation)
        if trig is None:
            raise KeyError(f"no trigger for relation {relation!r}")
        while True:
            counters_before = self.counters.snapshot()
            busy_before = list(self.metrics.worker_busy_s)
            try:
                self._on_batch_once(relation, batch, trig)
                break
            except _WorkerFailure as exc:
                # A failed attempt must leave no trace: counters and
                # busy accounting roll back here, worker/driver state
                # inside _recover.
                self._restore_counters(counters_before, busy_before)
                self._recover(exc)
        self._maybe_checkpoint()

    def _on_batch_once(self, relation: str, batch: GMR, trig) -> None:
        start = time.perf_counter()
        oversubscription_s = 0.0
        if self._supervisor is not None:
            self._driver_undo = {}

        # Worker-side ingestion: each worker receives its share of the
        # stream directly (stride slices, the same assignment as
        # round-robin partitioning, but encoded straight from the pairs
        # — no per-worker GMR is ever built on the shm plane); the
        # driver keeps the full batch for Local-tagged delta reads
        # (mirrors SimulatedCluster).
        items = list(batch.data.items())
        n = self.n_workers
        for h in self._handles:
            payload, jbytes = self._make_payload(items[h.index::n])
            self._stage(h.index, ("delta", relation, jbytes))
            self._post(h, ("delta", relation, payload))
        self.driver.set_delta(relation, batch)

        for index, block in enumerate(trig.blocks):
            if block.mode == "dist":
                block_start = time.perf_counter()
                slots = []
                for h in self._handles:
                    self._stage(h.index, ("block", relation, index))
                    slots.append(self._ask(h, ("block", relation, index)))
                self._drain()
                block_wall = time.perf_counter() - block_start
                busy = []
                for w, slot in enumerate(slots):
                    worker_counters, busy_s = slot[0]
                    self.counters.merge(worker_counters)
                    self.metrics.worker_busy_s[w] += busy_s
                    busy.append(busy_s)
                # Critical-path correction for this block: remove the
                # serialized share of the other workers' compute, but
                # never model the block as faster than its slowest
                # worker's own CPU time.
                corrected = max(
                    max(busy), block_wall - (sum(busy) - max(busy))
                )
                oversubscription_s += max(0.0, block_wall - corrected)
            else:
                self._run_local_block(block)

        for h in self._handles:
            self._stage(h.index, ("clear",))
            self._post(h, ("clear",))
        self.driver.clear_deltas()
        self._sync()
        # The barrier committed the batch everywhere: promote the
        # journal, drop the undo log, and recycle every segment (all
        # pipes drained, so no descriptor is outstanding).
        if self._supervisor is not None:
            self._supervisor.commit_all()
            self._driver_undo = None
        if self._pool is not None:
            self._pool.release_all_inflight()
        self.batches_processed += 1

        wall = time.perf_counter() - start
        self.metrics.batches += 1
        self.metrics.wall_s.append(wall)
        self.metrics.scaleout_s.append(max(0.0, wall - oversubscription_s))

    def _maybe_checkpoint(self) -> None:
        """Periodically dump worker views to bound replay cost."""
        sup = self._supervisor
        if sup is None or not sup.due_checkpoint(self.batches_processed):
            return
        while True:
            try:
                slots = [self._ask(h, ("dump",)) for h in self._handles]
                self._drain()
                break
            except _WorkerFailure as exc:
                self._recover(exc)
        for h, slot in zip(self._handles, slots):
            sup.journals[h.index].set_checkpoint(slot[0])

    def _run_local_block(self, block) -> None:
        evaluator = self._evaluator(self.counters)
        for stmt in block.statements:
            expr = stmt.expr
            if isinstance(expr, Scatter):
                self._do_scatter(stmt, expr)
            elif isinstance(expr, Repart):
                self._do_repart(stmt, expr)
            elif isinstance(expr, Gather):
                self._store_driver(stmt, self._collect(expr.child))
            else:
                self.counters.statements_executed += 1
                self._store_driver(stmt, evaluator.evaluate(expr))

    # ------------------------------------------------------------------
    # Location transformers (real data movement)
    # ------------------------------------------------------------------
    def _read_driver(self, e: Expr) -> GMR:
        if isinstance(e, Rel):
            return self.driver.get_view(e.name)
        if isinstance(e, DeltaRel):
            return self.driver.get_delta(e.name)
        raise TypeError(
            f"single transformer form violated: transformer over {e!r}"
        )

    def _collect(self, e: Expr) -> GMR:
        """Pull a reference's full contents back from the workers."""
        if not isinstance(e, (Rel, DeltaRel)):
            raise TypeError(
                f"single transformer form violated: transformer over {e!r}"
            )
        is_delta = isinstance(e, DeltaRel)
        tag = self.program.tag_of_ref(e.name, is_delta)
        key = (e.name, is_delta)
        if isinstance(tag, Replicated):
            spec, seg = self._reply_spec(key)
            slot = self._ask(self._handles[0], ("read", e.name, is_delta, spec))
            self._drain()
            return self._decode_reply(slot[0], seg, key)
        asked = []
        for h in self._handles:
            spec, seg = self._reply_spec(key)
            asked.append(
                (self._ask(h, ("read", e.name, is_delta, spec)), seg)
            )
        self._drain()
        total = GMR()
        for slot, seg in asked:
            total.add_inplace(self._decode_reply(slot[0], seg, key))
        return total

    def _scatter_parts(self, stmt, parts: list[GMR]) -> None:
        for h, part in zip(self._handles, parts):
            payload, jbytes = self._make_payload(part)
            self._stage(
                h.index, ("store", stmt.target, stmt.op, stmt.scope, jbytes)
            )
            self._post(
                h, ("store", stmt.target, stmt.op, stmt.scope, payload)
            )

    def _do_scatter(self, stmt, expr: Scatter) -> None:
        contents = self._read_driver(expr.child)
        cols = _ref_cols(expr.child)
        self._scatter_parts(
            stmt, self._partition(contents, list(cols), expr.keys)
        )

    def _do_repart(self, stmt, expr: Repart) -> None:
        contents = self._collect(expr.child)
        cols = _ref_cols(expr.child)
        self._scatter_parts(
            stmt, self._partition(contents, list(cols), expr.keys)
        )

    def _store_driver(self, stmt, value: GMR) -> None:
        undo = self._driver_undo
        if (
            undo is not None
            and stmt.scope != "batch"
            and stmt.target not in undo
        ):
            undo[stmt.target] = GMR(
                dict(self.driver.get_view(stmt.target).data)
            )
        apply_store(self.driver, stmt.target, stmt.op, stmt.scope, value)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def view(self, name: str) -> GMR:
        """Assemble a view's contents (driver or union of workers)."""
        # Checked even for driver-Local views: a failed batch may have
        # left the driver half-applied, and the contract is that a
        # poisoned/closed backend never serves partial state.
        self._check_usable()
        tag = self._tag(name)
        if isinstance(tag, Local):
            return self.driver.get_view(name)
        while True:
            try:
                return self._view_once(name, tag)
            except _WorkerFailure as exc:
                self._recover(exc)

    def _view_once(self, name: str, tag: Tag) -> GMR:
        key = (name, False)
        if isinstance(tag, Replicated):
            spec, seg = self._reply_spec(key)
            slot = self._ask(self._handles[0], ("view", name, spec))
            self._drain()
            return self._decode_reply(slot[0], seg, key)
        asked = []
        for h in self._handles:
            spec, seg = self._reply_spec(key)
            asked.append((self._ask(h, ("view", name, spec)), seg))
        self._drain()
        total = GMR()
        for slot, seg in asked:
            total.add_inplace(self._decode_reply(slot[0], seg, key))
        return total

    def snapshot(self) -> GMR:
        return self.view(self.program.top_view)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers; the backend is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        for h in self._handles:
            if self._failed is None and h.process.is_alive():
                try:
                    h.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        # Close pipes, join briefly, terminate stragglers, then unlink
        # every shared-memory segment.
        self._finalizer()

    def __enter__(self) -> "MultiprocBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
