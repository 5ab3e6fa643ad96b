"""Shared experiment setup: streams, engines, and timed runs.

Every experiment follows the paper's protocol (Section 6): generate a
database, pre-load the static dimension tables, synthesize the update
stream by round-robin interleaving, chunk it into batches of the chosen
size *outside the measured window*, and then time only the per-batch
maintenance work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.eval import Database
from repro.exec import create_backend, is_registered
from repro.metrics import CacheSimulator, Counters
from repro.ring import GMR
from repro.workloads import QuerySpec, generate_workload, stream_batches

#: every maintenance strategy the evaluation compares.  ``rivm-*`` are
#: the paper's generated engines; ``reeval`` / ``civm`` substitute for
#: the PostgreSQL baselines.
STRATEGIES = (
    "rivm-single",
    "rivm-batch",
    "rivm-specialized",
    "reeval",
    "civm",
)


@dataclass
class PreparedStream:
    """A ready-to-run experiment input.

    ``static`` holds the pre-loaded dimension tables; ``batches`` is the
    chunked update stream (formed up front, as in the paper);
    ``n_tuples`` counts only streamed tuples — the throughput
    denominator.
    """

    spec: QuerySpec
    static: Database
    batches: list[tuple[str, GMR]]
    n_tuples: int
    batch_size: int

    def fresh_static(self) -> Database:
        """An independent copy of the static database (engines mutate
        their initialization input)."""
        return self.static.copy()


def prepare_stream(
    spec: QuerySpec,
    batch_size: int,
    workload: str = "tpch",
    sf: float = 0.0005,
    seed: int = 42,
    max_batches: int | None = None,
    warm_fraction: float = 0.0,
) -> PreparedStream:
    """Generate data and chunk the update stream for one experiment.

    ``warm_fraction`` moves that share of every *updatable* table into
    the static preload: engines then initialize from a populated store
    and the stream delivers only the remainder.  This reproduces the
    late-stream regime of the paper's long runs (large materialized
    state, small relative updates) without paying for the whole stream.
    """
    tables = generate_workload(workload, sf=sf, seed=seed)

    static = Database()
    streamed: dict[str, list[tuple]] = {}
    for name, rows in tables.items():
        if name not in spec.updatable:
            static.insert_rows(name, rows)
        elif warm_fraction > 0.0:
            split = int(len(rows) * warm_fraction)
            static.insert_rows(name, rows[:split])
            streamed[name] = rows[split:]
        else:
            streamed[name] = rows

    batches = []
    n_tuples = 0
    for relation, batch in stream_batches(
        streamed, batch_size, relations=spec.updatable
    ):
        batches.append((relation, batch))
        n_tuples += sum(abs(m) for m in batch.data.values())
        if max_batches is not None and len(batches) >= max_batches:
            break
    return PreparedStream(spec, static, batches, n_tuples, batch_size)


def make_engine(
    spec: QuerySpec,
    strategy: str,
    counters: Counters | None = None,
    cache_sim: CacheSimulator | None = None,
    use_compiled: bool = True,
    **backend_options,
):
    """Construct a maintenance engine for one strategy.

    A thin wrapper over the execution-backend registry
    (:func:`repro.exec.create_backend`): every strategy name is a
    registered backend (see ``repro.exec.registry`` for the catalog),
    so the CLI, harness, and benchmarks all select engines through one
    lookup.  ``use_compiled=False`` routes statements through the
    interpreted reference evaluator instead of compile-once pipelines.
    """
    if not is_registered(strategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    return create_backend(
        strategy,
        spec,
        counters=counters,
        cache_sim=cache_sim,
        use_compiled=use_compiled,
        **backend_options,
    )


@dataclass
class RunOutcome:
    """One timed engine run over a prepared stream."""

    strategy: str
    elapsed_s: float
    n_tuples: int
    virtual_instructions: int
    result: GMR = field(repr=False, default_factory=GMR)

    @property
    def throughput(self) -> float:
        """Streamed tuples per wall-clock second."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.n_tuples / self.elapsed_s

    @property
    def virtual_throughput(self) -> float:
        """Tuples per virtual instruction (deterministic counterpart of
        ``throughput`` — used by tests and for noise-free ratios)."""
        if self.virtual_instructions <= 0:
            return float("inf")
        return self.n_tuples / self.virtual_instructions


def run_engine(
    prepared: PreparedStream,
    strategy: str,
    cache_sim: CacheSimulator | None = None,
    use_compiled: bool = True,
    **backend_options,
) -> RunOutcome:
    """Time one engine over the prepared stream.

    The run is hosted in a one-view :class:`~repro.service.ViewService`
    session (``track_base=False``, no subscribers), so single-backend
    measurements exercise exactly the serving path that
    :func:`repro.harness.service.measure_service_throughput` scales to N
    views.  Initialization (loading static tables into the engine's
    views) is excluded from the measured window, matching the paper's
    "not counting loading of streams into memory" protocol.
    ``backend_options`` are forwarded to the backend factory
    (``n_workers=`` for the cluster and multiproc backends, etc.).
    """
    from repro.service import ViewService

    counters = Counters()
    # create_view copies the base for the engine, so the shared static
    # database can be handed over directly (track_base=False guarantees
    # the service never mutates it).
    service = ViewService(base=prepared.static, track_base=False)
    service.create_view(
        prepared.spec.name,
        prepared.spec,
        backend=strategy,
        counters=counters,
        cache_sim=cache_sim,
        use_compiled=use_compiled,
        **backend_options,
    )

    try:
        start = time.perf_counter()
        for relation, batch in prepared.batches:
            service.on_batch(relation, batch)
        # Async-ingesting backends only enqueued: the drain barrier (a
        # no-op for synchronous backends) keeps the measured window
        # end-to-end — enqueue-only timing would overstate throughput.
        service.drain()
        elapsed = time.perf_counter() - start

        outcome = RunOutcome(
            strategy=strategy,
            elapsed_s=elapsed,
            n_tuples=prepared.n_tuples,
            virtual_instructions=counters.virtual_instructions(),
            result=service.snapshot(prepared.spec.name),
        )
    finally:
        # Dropping the view closes an async backend's batcher thread —
        # also on the error path, or a failed run in a sweep would
        # leak pollers into every later measurement.
        try:
            service.drop_view(prepared.spec.name)
        except Exception:
            pass
    return outcome
