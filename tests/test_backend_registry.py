"""The unified ExecutionBackend interface and its registry.

Every registered backend must construct from a query spec, accept the
``initialize / on_batch / snapshot`` protocol, and maintain the same
result the reference evaluator computes — including the simulated
cluster, which now initializes through the same interface.
"""

import pytest

from repro.eval import Database, evaluate
from repro.exec import (
    ExecutionBackend,
    available_backends,
    backend_info,
    create_backend,
    register_backend,
)
from repro.query import join, rel, sum_over
from repro.ring import GMR
from repro.workloads.spec import QuerySpec

Q = sum_over(["B"], join(rel("R", "A", "B"), rel("S", "B", "C")))

SPEC = QuerySpec(
    name="registry_q",
    query=Q,
    updatable=frozenset({"R", "S"}),
    key_hints={"R": ("A",), "S": ("B",)},
)

BATCHES = [
    ("R", GMR({(1, 10): 1, (2, 20): 1})),
    ("S", GMR({(10, 5): 1, (20, 6): 2})),
    ("R", GMR({(3, 10): 1, (1, 10): -1})),
    ("S", GMR({(10, 5): -1})),
]


def test_builtin_backends_registered():
    names = available_backends()
    for expected in (
        "rivm-single", "rivm-batch", "rivm-specialized",
        "reeval", "civm", "cluster",
    ):
        assert expected in names
    assert backend_info("cluster").description


def test_unknown_backend_raises_with_catalog():
    with pytest.raises(KeyError, match="rivm-batch"):
        create_backend("warp-drive", SPEC)


@pytest.mark.parametrize("name", sorted(
    n for n in available_backends()
))
def test_every_backend_tracks_reference(name):
    backend = create_backend(name, SPEC)
    assert isinstance(backend, ExecutionBackend)
    reference = Database()
    for relation, batch in BATCHES:
        backend.on_batch(relation, batch)
        reference.apply_update(relation, batch)
        assert backend.snapshot() == evaluate(Q, reference), (
            f"{name} diverged after a batch on {relation}"
        )


@pytest.mark.parametrize("name", sorted(available_backends()))
def test_every_backend_changefeed_accumulates_to_snapshot(name):
    """The default last_delta() hook: per-batch deltas sum to the
    snapshot for every registered backend."""
    backend = create_backend(name, SPEC)
    accumulated = GMR()
    for relation, batch in BATCHES:
        backend.on_batch(relation, batch)
        accumulated.add_inplace(backend.last_delta())
        assert accumulated == backend.snapshot(), (
            f"{name} changefeed diverged after a batch on {relation}"
        )


def test_changefeed_coalesces_between_calls():
    backend = create_backend("rivm-batch", SPEC)
    for relation, batch in BATCHES[:2]:
        backend.on_batch(relation, batch)
    # One call covers everything since the stream started.
    assert backend.last_delta() == backend.snapshot()
    # Nothing new processed -> empty delta.
    assert backend.last_delta().is_zero()


@pytest.mark.parametrize("name", ["rivm-batch", "rivm-specialized", "cluster"])
def test_backend_initialize_from_loaded_database(name):
    base = Database()
    base.insert_rows("R", [(1, 10), (2, 20)])
    base.insert_rows("S", [(10, 3)])
    backend = create_backend(name, SPEC)
    backend.initialize(base)
    assert backend.snapshot() == evaluate(Q, base)
    # Maintenance continues correctly from the warm state.
    batch = GMR({(5, 10): 1})
    backend.on_batch("R", batch)
    base.apply_update("R", batch)
    assert backend.snapshot() == evaluate(Q, base)


@pytest.mark.parametrize("use_compiled", [True, False])
def test_backends_honor_compilation_toggle(use_compiled):
    backend = create_backend("rivm-batch", SPEC, use_compiled=use_compiled)
    assert backend.use_compiled is use_compiled
    reference = Database()
    for relation, batch in BATCHES:
        backend.on_batch(relation, batch)
        reference.apply_update(relation, batch)
    assert backend.snapshot() == evaluate(Q, reference)


def test_cluster_backend_options():
    backend = create_backend("cluster", SPEC, n_workers=3)
    assert backend.n_workers == 3
    for relation, batch in BATCHES:
        backend.on_batch(relation, batch)
    reference = Database()
    for relation, batch in BATCHES:
        reference.apply_update(relation, batch)
    assert backend.snapshot() == evaluate(Q, reference)


def test_create_backend_from_sql_and_expr():
    """SQL views and pre-built specs share one creation path."""
    catalog = {"R": ("A", "B"), "S": ("B", "C")}
    from_sql = create_backend(
        "rivm-batch",
        "SELECT R.B, COUNT(*) FROM R, S WHERE R.B = S.B GROUP BY R.B",
        catalog=catalog,
        view_name="per_b",
    )
    from_expr = create_backend("civm", Q)
    reference = Database()
    for relation, batch in BATCHES:
        from_sql.on_batch(relation, batch)
        from_expr.on_batch(relation, batch)
        reference.apply_update(relation, batch)
    want = evaluate(Q, reference)
    assert from_expr.snapshot() == want
    # The SQL lowering names columns <alias>_<column>; the counted
    # multiset is the same.
    assert sorted(from_sql.snapshot().data.values()) == sorted(
        want.data.values()
    )


def test_create_backend_sql_without_catalog_raises():
    with pytest.raises(TypeError, match="catalog"):
        create_backend("rivm-batch", "SELECT COUNT(*) FROM R")


def test_register_custom_backend():
    class NullBackend(ExecutionBackend):
        def __init__(self):
            self.batches = 0

        def initialize(self, base):
            pass

        def on_batch(self, relation, batch):
            self.batches += 1

        def snapshot(self):
            return GMR()

    register_backend("null", lambda spec, **_: NullBackend(), "discards all")
    try:
        backend = create_backend("null", SPEC)
        backend.on_batch("R", GMR({(1, 2): 1}))
        assert backend.batches == 1
        assert "null" in available_backends()
    finally:
        # Keep the registry clean for other tests.
        from repro.exec.backend import _REGISTRY

        _REGISTRY.pop("null", None)
