"""Shared configuration for the benchmark suite.

Every table and figure of the paper's evaluation has one module here,
named after it (``test_fig7_*``, ``test_table1_*``, ...); the
design-choice ablations live in ``test_ablations.py``.  System
performance of the serving stack is measured by the ledger in
``bench/`` (see ``bench/README.md``), not here.  Benchmarks run scaled-down
parameters so the full suite finishes in minutes; the *shapes* of the
paper's results — who wins, by roughly what factor, where crossovers
fall — are asserted, not the absolute numbers (our substrate is a
Python simulator, not the authors' testbed).

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
regenerated paper-style tables).
"""

from __future__ import annotations

import pytest


#: scaled-down counterparts of the paper's batch-size sweep
BATCH_SIZES = (1, 10, 100, 1_000)

#: scale factor for single-node benchmark streams
LOCAL_SF = 0.0004

#: scale factor for distributed benchmark streams
DIST_SF = 0.002


@pytest.fixture(scope="session")
def batch_sizes():
    return BATCH_SIZES


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_experiment(name): maps a bench to a paper table/figure"
    )


_BENCHMARKS_DIR = __file__.rsplit("/", 1)[0]


def pytest_collection_modifyitems(items):
    # Every paper-figure benchmark is heavyweight: the whole directory
    # belongs to the slow tier (tier-1 deselects it via pytest.ini).
    # The hook sees the whole session's items, so scope by path.
    for item in items:
        if str(item.fspath).startswith(_BENCHMARKS_DIR):
            item.add_marker(pytest.mark.slow)
