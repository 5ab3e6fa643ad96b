"""Experiment harness: the code that regenerates the paper's evaluation.

Each experiment of Section 6 (and the appendices) has a runner here that
produces the same rows/series the paper reports:

* :mod:`repro.harness.local` — single-node throughput experiments
  (Fig. 7, Fig. 8, Table 1, Fig. 12);
* :mod:`repro.harness.cache` — cache-locality experiment (Table 2);
* :mod:`repro.harness.scaling` — weak/strong scaling and the
  optimization ablation on the simulated cluster (Figs. 9–11, 13) and
  the job/stage complexity table (Table 3);
* :mod:`repro.harness.ablation` — design-choice ablations beyond the
  paper's figures (domain extraction, batch pre-aggregation, index
  specialization);
* :mod:`repro.harness.service` — multi-view serving runs (N concurrent
  views on one :class:`~repro.service.ViewService` over a shared
  stream);
* :mod:`repro.harness.ingest` — async-ingestion runs (ingestion vs
  maintenance latency through the ``async:<backend>`` wrappers);
* :mod:`repro.harness.report` — plain-text table/series rendering.

The ``benchmarks/`` directory contains one pytest-benchmark target per
table/figure; each is a thin wrapper over these runners with scaled-down
parameters.  System performance across the serving stack (HTTP, WAL,
router) is measured by the ledger in ``bench/`` (see ``bench/README.md``),
not here.
"""

from repro.harness.setup import (
    PreparedStream,
    make_engine,
    prepare_stream,
    run_engine,
    STRATEGIES,
)
from repro.harness.local import (
    LocalResult,
    batch_size_sweep,
    normalized_sweep,
    strategy_matrix,
    measure_throughput,
)
from repro.harness.cache import cache_locality_run
from repro.harness.scaling import (
    ScalingPoint,
    jobs_stages_table,
    optimization_ablation,
    strong_scaling,
    weak_scaling,
)
from repro.harness.ablation import (
    compilation_ablation,
    domain_extraction_ablation,
    preaggregation_ablation,
    specialization_ablation,
)
from repro.harness.ingest import IngestionResult, measure_ingestion
from repro.harness.report import format_series, format_table
from repro.harness.service import (
    ServiceResult,
    ViewDef,
    ViewStats,
    measure_service_throughput,
    prepare_service_run,
)

__all__ = [
    "PreparedStream",
    "prepare_stream",
    "make_engine",
    "run_engine",
    "STRATEGIES",
    "LocalResult",
    "measure_throughput",
    "batch_size_sweep",
    "normalized_sweep",
    "strategy_matrix",
    "cache_locality_run",
    "ScalingPoint",
    "weak_scaling",
    "strong_scaling",
    "optimization_ablation",
    "jobs_stages_table",
    "compilation_ablation",
    "domain_extraction_ablation",
    "preaggregation_ablation",
    "specialization_ablation",
    "format_table",
    "format_series",
    "ViewDef",
    "ViewStats",
    "ServiceResult",
    "measure_service_throughput",
    "prepare_service_run",
    "IngestionResult",
    "measure_ingestion",
]
