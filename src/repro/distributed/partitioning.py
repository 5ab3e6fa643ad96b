"""Partitioning-strategy exploration (paper Section 6.2).

The paper partitions each view "on the primary key of a base table
appearing in the view schema", picks the highest-cardinality key among
candidates, and leaves better strategies as future work ("might benefit
from previous work on database partitioning [15, 31]").  This module
exposes that future-work hook:

* :func:`candidate_partitionings` — enumerates meaningfully different
  strategies for a compiled program (the default heuristic, each
  alternative key column, replicate-small-views, driver-everything);
* :func:`estimate_partitioning_cost` — static cost: communication
  rounds and reshuffle statements the annotator+optimizer produce under
  a strategy;
* :class:`PartitioningAdvisor` — ranks candidates by static cost, with
  an optional measured pass on the simulated cluster.

It also holds the *data* half of partitioning —
:func:`hash_partition` / :func:`round_robin_partition` — shared by
every executor that physically splits GMRs among workers (the
simulated cluster and the process-parallel coordinator), so the two
backends can never drift apart on placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ir import TriggerProgram
from repro.distributed.annotate import annotate_program, default_partitioning
from repro.distributed.blocks import build_blocks, fuse_blocks
from repro.distributed.optimize import optimize_program, transformer_count
from repro.distributed.planner import plan_jobs
from repro.distributed.program import DistributedProgram
from repro.distributed.tags import (
    Dist,
    LOCAL,
    RANDOM,
    REPLICATED,
    Tag,
    partition_of,
)
from repro.ring import GMR


def hash_partition(
    contents: GMR, cols: list, keys, n_workers: int
) -> list[GMR]:
    """Split ``contents`` among ``n_workers`` by hashing ``keys``.

    ``keys == ()`` means replicate: every worker receives a full copy
    (broadcast semantics, used for small pre-aggregated deltas).
    """
    parts = [GMR() for _ in range(n_workers)]
    if not keys:
        for w in range(n_workers):
            parts[w] = GMR(dict(contents.data))
        return parts
    positions = [cols.index(k) for k in keys]
    for t, m in contents.items():
        w = partition_of(tuple(t[p] for p in positions), n_workers)
        parts[w].add_tuple(t, m)
    return parts


def round_robin_partition(batch: GMR, n_workers: int) -> list[GMR]:
    """Split a batch evenly with no partitioning invariant (the
    Random-tagged worker-side ingestion of update streams)."""
    parts = [GMR() for _ in range(n_workers)]
    for i, (t, m) in enumerate(batch.items()):
        parts[i % n_workers].add_tuple(t, m)
    return parts


@dataclass
class PartitioningCandidate:
    """One named strategy: view name -> location tag."""

    name: str
    tags: dict[str, Tag]

    def describe(self) -> str:
        parts = ", ".join(
            f"{view}:{tag!r}" for view, tag in sorted(self.tags.items())
        )
        return f"{self.name}({parts})"


@dataclass
class PartitioningCost:
    """Static cost of a compiled strategy (lower tuple = better)."""

    candidate: str
    transformers: int
    jobs: int
    stages: int
    gathers_of_views: int

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.transformers, self.stages, self.jobs, self.gathers_of_views)


def candidate_partitionings(
    program: TriggerProgram,
    key_hints: dict[str, tuple[str, ...]] | None = None,
) -> list[PartitioningCandidate]:
    """Enumerate distinct strategies for a compiled program.

    Always includes the paper's heuristic (``default``); adds one
    variant per alternative partitioning key that appears in several
    view schemas, a ``replicate-dims`` variant (small views replicated
    instead of partitioned), and ``driver-only`` (everything Local —
    the degenerate no-scale-out baseline).
    """
    hints = key_hints or {}
    out = [
        PartitioningCandidate(
            "default", default_partitioning(program, hints)
        )
    ]

    # One candidate per alternative key column: partition every view
    # containing that column on it, everything else on the driver.
    ranked: list[str] = []
    for cols in hints.values():
        for c in cols:
            if c not in ranked:
                ranked.append(c)
    for key in ranked[1:4]:  # the default already uses ranked[0] first
        tags: dict[str, Tag] = {}
        used = False
        for info in program.views.values():
            if key in info.cols:
                tags[info.name] = Dist((key,))
                used = True
            else:
                tags[info.name] = LOCAL
        if used:
            out.append(PartitioningCandidate(f"key-{key}", tags))

    # Replicate the small (dimension-derived, low-degree) views.
    default_tags = default_partitioning(program, hints)
    repl: dict[str, Tag] = {}
    changed = False
    for info in program.views.values():
        tag = default_tags.get(info.name, LOCAL)
        if isinstance(tag, Dist) and info.degree <= 1:
            repl[info.name] = REPLICATED
            changed = True
        else:
            repl[info.name] = tag
    if changed:
        out.append(PartitioningCandidate("replicate-dims", repl))

    out.append(
        PartitioningCandidate(
            "driver-only",
            {info.name: LOCAL for info in program.views.values()},
        )
    )
    return out


def estimate_partitioning_cost(
    program: TriggerProgram,
    candidate: PartitioningCandidate,
    opt_level: int = 3,
) -> tuple[PartitioningCost, DistributedProgram]:
    """Compile under the candidate and read off the static plan cost."""
    from repro.query.ast import Gather, Rel

    dprog = annotate_program(program, dict(candidate.tags), delta_tag=RANDOM)
    dprog = optimize_program(dprog, level=opt_level)

    transformers = 0
    gathers_of_views = 0
    jobs = 0
    stages = 0
    for trig in dprog.triggers.values():
        for stmt in trig.statements:
            transformers += transformer_count(stmt.expr)
            if isinstance(stmt.expr, Gather) and isinstance(
                stmt.expr.child, Rel
            ):
                gathers_of_views += 1
        blocks = build_blocks(trig.statements)
        if dprog.fuse_enabled:
            blocks = fuse_blocks(blocks)
        trig.blocks = blocks
        plan = plan_jobs(blocks)
        trig.jobs = plan.jobs
        jobs = max(jobs, plan.n_jobs)
        stages = max(stages, plan.n_stages)

    cost = PartitioningCost(
        candidate=candidate.name,
        transformers=transformers,
        jobs=jobs,
        stages=stages,
        gathers_of_views=gathers_of_views,
    )
    return cost, dprog


@dataclass
class PartitioningAdvisor:
    """Ranks partitioning strategies for one maintenance program."""

    program: TriggerProgram
    key_hints: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def rank(self) -> list[PartitioningCost]:
        """All candidates by static cost, cheapest first.

        ``driver-only`` always compiles (no transformers at all) but
        offers no scale-out; it is reported last regardless of its
        static cost, since its per-driver compute is unbounded.
        """
        costs = []
        driver_only = None
        for cand in candidate_partitionings(self.program, self.key_hints):
            cost, _ = estimate_partitioning_cost(self.program, cand)
            if cand.name == "driver-only":
                driver_only = cost
            else:
                costs.append(cost)
        costs.sort(key=lambda c: c.key)
        if driver_only is not None:
            costs.append(driver_only)
        return costs

    def best(self) -> tuple[PartitioningCost, DistributedProgram]:
        """The cheapest scale-out strategy, compiled and ready to run."""
        ranking = self.rank()
        best_name = ranking[0].candidate
        for cand in candidate_partitionings(self.program, self.key_hints):
            if cand.name == best_name:
                return estimate_partitioning_cost(self.program, cand)
        raise RuntimeError("ranking produced an unknown candidate")
