"""The simulated synchronous cluster (the substitute for Spark).

A deterministic driver/worker simulator: the driver holds Local views,
every worker holds its hash partition of each Dist view (or a full copy
of Replicated temporaries).  Distributed blocks execute on each
worker's partition in turn; location transformers move byte-accounted
data between driver and workers.  Latency is *modeled*, not measured:

    stage latency = max(per-worker compute) + sync(n_workers) + shuffle

where per-worker compute converts the evaluator's virtual-instruction
count, sync grows linearly with the worker count (the paper's Q6
isolates this term: 65 ms at 50 workers → 386 ms at 1,000), and shuffle
charges per-byte bandwidth plus a per-round fixed cost.  An optional
straggler factor multiplies the slowest worker, reproducing the paper's
observation that shuffle-heavy queries at scale suffer 1.5–3x
stragglers.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field

from repro.distributed.blocks import Block, build_blocks, fuse_blocks
from repro.distributed.partitioning import (
    hash_partition,
    round_robin_partition,
)
from repro.distributed.planner import JobPlan, plan_jobs
from repro.distributed.program import (
    DistStatement,
    DistributedProgram,
    apply_store,
    ref_cols as _ref_cols,
)
from repro.distributed.tags import (
    Dist,
    Local,
    Replicated,
    Random,
    Tag,
    is_distributed,
)
from repro.compiler.plancache import compile_program
from repro.eval import CompiledEvaluator, Database, Evaluator
from repro.exec.backend import ExecutionBackend
from repro.metrics import Counters
from repro.query.ast import DeltaRel, Expr, Gather, Rel, Repart, Scatter
from repro.ring import GMR
from repro.storage.columnar import estimate_gmr_bytes


@dataclass
class CostModel:
    """Latency-model constants (calibrated to the paper's Q6 curve)."""

    #: seconds per virtual instruction on one worker
    seconds_per_instruction: float = 2.0e-9
    #: fixed driver overhead per job launch
    job_overhead_s: float = 0.020
    #: per-worker synchronization cost per stage (drives the Q6 curve)
    sync_per_worker_s: float = 0.00035
    #: fixed cost per stage (task shipping, scheduling)
    stage_overhead_s: float = 0.010
    #: network bandwidth per worker for shuffles
    shuffle_bytes_per_s: float = 1.0e9
    #: fixed per-shuffle-round latency
    shuffle_round_s: float = 0.015
    #: multiplier applied to the slowest worker when stragglers strike
    straggler_factor: float = 2.0
    #: probability a stage suffers a straggler, scaled by shuffle size
    straggler_prob_per_mb: float = 0.02


@dataclass
class ClusterMetrics:
    """Per-run accounting."""

    batches: int = 0
    jobs: int = 0
    stages: int = 0
    shuffled_bytes: int = 0
    latencies_s: list[float] = field(default_factory=list)

    @property
    def median_latency_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        return ordered[len(ordered) // 2]

    @property
    def total_latency_s(self) -> float:
        return sum(self.latencies_s)

    def throughput_tuples_per_s(self, tuples: int) -> float:
        total = self.total_latency_s
        return tuples / total if total > 0 else 0.0


class SimulatedCluster(ExecutionBackend):
    """Executes a :class:`DistributedProgram` batch by batch."""

    def __init__(
        self,
        program: DistributedProgram,
        n_workers: int,
        cost_model: CostModel | None = None,
        preload_batches: bool = True,
        seed: int = 7,
        use_compiled: bool = True,
        counters: Counters | None = None,
    ):
        self.program = program
        self.n_workers = n_workers
        self.cost = cost_model or CostModel()
        #: cluster-wide totals: every block's per-worker (and driver)
        #: operation counts are merged here, so harness-level virtual
        #: throughput works for this backend like for the local engines.
        self.counters = counters if counters is not None else Counters()
        #: paper §6.2: workers receive their share of the input stream
        #: directly, bypassing the driver; False routes batches through
        #: the driver's Scatter statements instead.
        self.preload_batches = preload_batches
        self.use_compiled = use_compiled
        #: statements are lowered once, program-wide; every worker (and
        #: the driver) runs the same lowered pipelines, so the per-batch
        #: block loop does no AST interpretation.
        self.plans = compile_program(program) if use_compiled else None
        self._rng = _random.Random(seed)

        self.driver = Database()
        self.workers = [Database() for _ in range(n_workers)]
        self.metrics = ClusterMetrics()

        # Plans are derived once per trigger.  Block fusion is the O2
        # switch of Fig. 13 and can be disabled on the program.
        self._plans: dict[str, tuple[list[Block], JobPlan]] = {}
        for rel_name, trig in program.triggers.items():
            blocks = build_blocks(trig.statements)
            if program.fuse_enabled:
                blocks = fuse_blocks(blocks)
            trig.blocks = blocks
            plan = plan_jobs(blocks)
            trig.jobs = plan.jobs
            self._plans[rel_name] = (blocks, plan)

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(self, base: Database) -> None:
        """Load a static database into the cluster's placed views.

        Every materialized view is computed once from ``base`` and
        installed according to its location tag, mirroring the local
        engines' ``initialize``.
        """
        evaluator = Evaluator(base)
        for info in self.program.local_program.views.values():
            contents = evaluator.materialize(info.definition)
            if contents.is_zero():
                continue
            self.install_view(
                info.name, info.cols, contents,
                self.program.partitioning.get(info.name),
            )

    def install_view(
        self,
        name: str,
        cols: tuple[str, ...],
        contents: GMR,
        tag: Tag | None,
    ) -> None:
        """Install one view's contents according to its location tag."""
        if isinstance(tag, Dist):
            parts = self._partition(contents, list(cols), tag.keys)
            for w, part in enumerate(parts):
                self.workers[w].set_view(name, part)
        elif isinstance(tag, Replicated):
            for wdb in self.workers:
                wdb.set_view(name, GMR(dict(contents.data)))
        else:
            self.driver.set_view(name, contents)

    def _evaluator_for(self, db: Database, counters: Counters):
        if self.use_compiled:
            return CompiledEvaluator(db, counters, plans=self.plans)
        return Evaluator(db, counters)

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def _tag(self, name: str) -> Tag:
        return self.program.partitioning.get(name, Local())

    def _partition(self, contents: GMR, cols, keys) -> list[GMR]:
        return hash_partition(contents, cols, keys, self.n_workers)

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def on_batch(self, relation: str, batch: GMR) -> float:
        """Process one update batch; returns the modeled latency (s)."""
        trig = self.program.triggers[relation]
        blocks, plan = self._plans[relation]

        if self.preload_batches:
            # Workers already hold a random partition of the batch; the
            # driver keeps a reference for Local-tagged delta reads.
            shares = self._random_partition(batch)
            for w, share in enumerate(shares):
                self.workers[w].set_delta(relation, share)
        self.driver.set_delta(relation, batch)

        # Blocks execute strictly in fused order (data-flow safety);
        # job/stage structure only layers fixed overheads on top.
        latency = self.cost.job_overhead_s * plan.n_jobs
        self.metrics.jobs += plan.n_jobs
        shuffled = 0
        for block in blocks:
            block_latency, block_bytes = self._run_block(block, relation)
            latency += block_latency
            shuffled += block_bytes

        self._clear_batch(relation, trig)
        self.metrics.batches += 1
        self.metrics.stages += plan.n_stages
        self.metrics.shuffled_bytes += shuffled
        self.metrics.latencies_s.append(latency)
        return latency

    def _random_partition(self, batch: GMR) -> list[GMR]:
        return round_robin_partition(batch, self.n_workers)

    def _clear_batch(self, relation: str, trig) -> None:
        self.driver.clear_deltas()
        for w in self.workers:
            w.clear_deltas()

    # ------------------------------------------------------------------
    # Block execution
    # ------------------------------------------------------------------
    def _run_block(self, block: Block, relation: str) -> tuple[float, int]:
        if block.mode == "dist":
            return self._run_dist_block(block)
        return self._run_local_block(block)

    def _run_dist_block(self, block: Block) -> tuple[float, int]:
        """Every worker executes all statements on its partitions."""
        worker_times = []
        for w, wdb in enumerate(self.workers):
            counters = Counters()
            evaluator = self._evaluator_for(wdb, counters)
            for stmt in block.statements:
                value = evaluator.evaluate(stmt.expr)
                self._store(wdb, stmt, value)
            worker_times.append(
                counters.virtual_instructions()
                * self.cost.seconds_per_instruction
            )
            self.counters.merge(counters)
        compute = max(worker_times) if worker_times else 0.0
        sync = (
            self.cost.stage_overhead_s
            + self.cost.sync_per_worker_s * self.n_workers
        )
        return compute + sync, 0

    def _run_local_block(self, block: Block) -> tuple[float, int]:
        """The driver executes local computation and initiates every
        location transformer in the block; transformers of one block
        are coalesced into a single communication round (§4.4)."""
        latency = 0.0
        round_bytes = 0
        n_shuffles = 0
        counters = Counters()
        evaluator = self._evaluator_for(self.driver, counters)
        for stmt in block.statements:
            expr = stmt.expr
            if isinstance(expr, Scatter):
                moved = self._do_scatter(stmt, expr)
                round_bytes += moved
                n_shuffles += 1
            elif isinstance(expr, Repart):
                moved = self._do_repart(stmt, expr)
                round_bytes += moved
                n_shuffles += 1
            elif isinstance(expr, Gather):
                moved = self._do_gather(stmt, expr)
                round_bytes += moved
                n_shuffles += 1
            else:
                value = evaluator.evaluate(expr)
                self._store(self.driver, stmt, value)
        latency += (
            counters.virtual_instructions()
            * self.cost.seconds_per_instruction
        )
        self.counters.merge(counters)
        if n_shuffles:
            latency += self.cost.shuffle_round_s
            per_worker_bytes = round_bytes / max(1, self.n_workers)
            transfer = per_worker_bytes / self.cost.shuffle_bytes_per_s
            # Straggler model: large shuffles occasionally stall the round.
            mb = round_bytes / 1e6
            if self._rng.random() < self.cost.straggler_prob_per_mb * mb:
                transfer *= self.cost.straggler_factor
            latency += transfer
        return latency, round_bytes

    # ------------------------------------------------------------------
    # Transformer execution (actual data movement)
    # ------------------------------------------------------------------
    def _read_ref(self, db: Database, e: Expr) -> GMR:
        if isinstance(e, Rel):
            return db.get_view(e.name)
        if isinstance(e, DeltaRel):
            return db.get_delta(e.name)
        raise TypeError(
            f"single transformer form violated: transformer over {e!r}"
        )

    def _collect_distributed(self, e: Expr) -> GMR:
        """Collect a reference's full contents from the workers.

        Hash-partitioned and Random contents are the disjoint union of
        the worker partitions; replicated contents exist identically on
        every worker, so exactly one copy is taken (unioning replicas
        would multiply every multiplicity by the worker count).
        """
        name = e.name if isinstance(e, (Rel, DeltaRel)) else ""
        tag = self.program.tag_of_ref(name, isinstance(e, DeltaRel))
        if isinstance(tag, Replicated):
            if not self.workers:
                return GMR()
            return GMR(dict(self._read_ref(self.workers[0], e).data))
        total = GMR()
        for wdb in self.workers:
            total.add_inplace(self._read_ref(wdb, e))
        return total

    def _do_scatter(self, stmt: DistStatement, expr: Scatter) -> int:
        contents = self._read_ref(self.driver, expr.child)
        cols = _ref_cols(expr.child)
        parts = self._partition(GMR(dict(contents.data)), list(cols), expr.keys)
        moved = 0
        for w, part in enumerate(parts):
            moved += estimate_gmr_bytes(part)
            self._store_at_worker(self.workers[w], stmt, part)
        return moved

    def _do_repart(self, stmt: DistStatement, expr: Repart) -> int:
        source_tag = self._tag(
            expr.child.name if isinstance(expr.child, Rel) else ""
        )
        contents = self._collect_distributed(expr.child)
        cols = _ref_cols(expr.child)
        parts = self._partition(contents, list(cols), expr.keys)
        moved = 0
        for w, part in enumerate(parts):
            moved += estimate_gmr_bytes(part)
            self._store_at_worker(self.workers[w], stmt, part)
        return moved

    def _do_gather(self, stmt: DistStatement, expr: Gather) -> int:
        contents = self._collect_distributed(expr.child)
        moved = estimate_gmr_bytes(contents)
        self._store(self.driver, stmt, contents)
        return moved

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def _store(self, db: Database, stmt: DistStatement, value: GMR) -> None:
        apply_store(db, stmt.target, stmt.op, stmt.scope, value)

    def _store_at_worker(
        self, wdb: Database, stmt: DistStatement, part: GMR
    ) -> None:
        self._store(wdb, stmt, part)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def view(self, name: str) -> GMR:
        """Assemble a view's full contents (driver or union of workers)."""
        tag = self._tag(name)
        if isinstance(tag, Local):
            return self.driver.get_view(name)
        if isinstance(tag, Replicated):
            return self.workers[0].get_view(name) if self.workers else GMR()
        total = GMR()
        for wdb in self.workers:
            total.add_inplace(wdb.get_view(name))
        return total

    def snapshot(self) -> GMR:
        return self.view(self.program.top_view)


