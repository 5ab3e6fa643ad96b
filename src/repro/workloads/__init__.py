"""Workloads: TPC-H / TPC-DS-style schemas, data, streams, and queries.

The paper evaluates on streaming-modified TPC-H and TPC-DS workloads.
This package provides seeded synthetic equivalents: the
schemas keep the key relationships and value domains that drive the
paper's effects, data generators scale table cardinalities
proportionally, and streams are synthesized by round-robin interleaving
of insertions chunked into per-relation batches of a chosen size.
"""

from repro.workloads.schema import TPCH_TABLES, TPCDS_TABLES
from repro.workloads.datagen import generate_tpch, generate_tpcds, generate_workload
from repro.workloads.streams import (
    load_database,
    stream_batches,
    stream_batches_with_deletions,
)
from repro.workloads.spec import QuerySpec, as_query_spec
from repro.workloads.tpch_queries import TPCH_QUERIES
from repro.workloads.tpcds_queries import TPCDS_QUERIES
from repro.workloads.micro import (
    MICRO_BASE_CARDINALITIES,
    MICRO_QUERIES,
    MICRO_TABLES,
    generate_micro,
)

__all__ = [
    "TPCH_TABLES",
    "TPCDS_TABLES",
    "generate_tpch",
    "generate_tpcds",
    "generate_micro",
    "generate_workload",
    "stream_batches",
    "stream_batches_with_deletions",
    "load_database",
    "QuerySpec",
    "as_query_spec",
    "TPCH_QUERIES",
    "TPCDS_QUERIES",
    "MICRO_QUERIES",
    "MICRO_TABLES",
    "MICRO_BASE_CARDINALITIES",
]
