"""repro — distributed incremental view maintenance with batch updates.

A from-scratch Python reproduction of the SIGMOD 2016 paper
"How to Win a Hot Dog Eating Contest: Distributed Incremental View
Maintenance with Batch Updates" (Nikolic, Dashti, Koch).

The most common entry points are re-exported here:

>>> from repro import ViewService                      # serving API
>>> from repro import compile_query, RecursiveIVMEngine, parse_sql
>>> from repro import compile_distributed, SimulatedCluster

See README.md for a quickstart and ARCHITECTURE.md for the layer map
(which module implements which part of the paper).
"""

from repro.ring import GMR
from repro.eval import Database, Evaluator, evaluate
from repro.query import parse_sql, sql_to_spec
from repro.compiler import apply_batch_preaggregation, compile_query
from repro.exec import RecursiveIVMEngine, SpecializedIVMEngine
from repro.baselines import ClassicalIVMEngine, ReevalEngine
from repro.distributed import (
    FaultTolerantCluster,
    PartitioningAdvisor,
    SimulatedCluster,
    compile_distributed,
)
from repro.service import ServiceError, Subscription, ViewDelta, ViewService

__version__ = "1.0.0"

__all__ = [
    "GMR",
    "Database",
    "Evaluator",
    "evaluate",
    "parse_sql",
    "sql_to_spec",
    "compile_query",
    "apply_batch_preaggregation",
    "RecursiveIVMEngine",
    "SpecializedIVMEngine",
    "ReevalEngine",
    "ClassicalIVMEngine",
    "compile_distributed",
    "SimulatedCluster",
    "FaultTolerantCluster",
    "PartitioningAdvisor",
    "ViewService",
    "ViewDelta",
    "Subscription",
    "ServiceError",
    "__version__",
]
