"""Persistent slice indexes never go stale.

:meth:`Database.slice_index` keeps one hash index per ``(view, bound
positions)`` alive across batches and maintains it on every write.  A
write path that forgets the index leaves it silently wrong, so these
property tests drive randomized insert/delete streams — multiplicities
that cancel to zero, float multiplicities within ``_EPS`` of zero,
``set_view`` replacement and a whole-database reset — and check after
every step that

* every live index equals an index rebuilt from the view's contents,
  on every key the stream ever produced (so emptied buckets are gone);
* compiled evaluation (which probes the persistent indexes) equals the
  interpreted :class:`~repro.eval.Evaluator`;

first on a bare :class:`~repro.eval.Database`, then through the
``rivm-batch``, ``rivm-specialized``, ``multiproc`` and ``cluster``
backends, each run compiled beside the same backend run interpreted
and, on integer streams, beside a from-scratch evaluation.
A warm-started self-join is also held to a from-scratch evaluation.
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest

from repro.eval import CompiledEvaluator, Database, Evaluator, evaluate
from repro.exec import create_backend
from repro.query import assign, base_relations, cmp, join, rel, sum_over, value
from repro.query.builder import mul
from repro.ring import GMR
from repro.ring.gmr import _EPS
from repro.workloads.spec import QuerySpec

ARITY = {"R": 2, "S": 2, "T": 3}

#: one-column slice (S on B), two-column slice (T on A, B), full-key
#: probe (R on A, C) and a float-valued aggregate
Q_ONE_COL = sum_over(["A"], join(rel("R", "A", "B"), rel("S", "B", "C")))
Q_TWO_COL = sum_over(["D"], join(rel("R", "A", "B"), rel("T", "A", "B", "D")))
Q_FULL_KEY = sum_over(
    [], join(rel("R", "A", "B"), rel("S", "B", "C"), rel("R", "A", "C"))
)
Q_VALUE = sum_over(
    ["C"], join(rel("S", "B", "C"), rel("R", "A", "B"), value(mul("A", 0.5)))
)
#: compiles to a ':=' statement, so views are replaced mid-stream
Q_REPLACED = sum_over(
    [],
    join(
        rel("R", "A", "B"),
        assign("X", sum_over([], rel("S", "B2", "C"))),
        cmp("A", "<", "X"),
    ),
)
#: a correlated nested aggregate over a three-way join
Q_NESTED = sum_over(
    ["B"],
    join(
        rel("R", "A", "B"),
        rel("T", "B", "C", "D"),
        assign("X", sum_over([], join(rel("S", "B2", "C2"), cmp("C", "==", "B2")))),
        cmp("X", ">", 0),
    ),
)

DB_QUERIES = [Q_ONE_COL, Q_TWO_COL, Q_FULL_KEY, Q_VALUE]

ENGINE_QUERIES = {
    "one_col": Q_ONE_COL,
    "two_col": Q_TWO_COL,
    "full_key": Q_FULL_KEY,
    "value": Q_VALUE,
    "replaced": Q_REPLACED,
    "nested": Q_NESTED,
}


def _rebuilt(contents, positions) -> dict:
    key_of = itemgetter(*positions)
    out: dict = {}
    for t, m in contents.items():
        out.setdefault(key_of(t), {})[t] = m
    return out


def _assert_indexes_fresh(db: Database, seen: dict[str, set]) -> None:
    """Every index the database holds equals a rebuild from contents."""
    for name, by_positions in db._indexes.items():
        contents = db.get_view(name)
        for positions, index in by_positions.items():
            want = _rebuilt(contents, positions)
            got = {k: dict(index.probe(k)) for k in index.buckets}
            assert got == want, (name, positions)
            for t in seen.get(name, ()):
                k = itemgetter(*positions)(t)
                assert dict(index.probe(k)) == want.get(k, {})


def _random_tuple(rng, name):
    return tuple(rng.randrange(4) for _ in range(ARITY[name]))


def _random_update(
    rng, db: Database, name: str, integral: bool = False
) -> GMR:
    """Inserts, exact cancellations and, unless ``integral``, float
    multiplicities including residues below _EPS."""
    data: dict = {}
    live = list(db.get_view(name).items())
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if live and roll < 0.3:
            t, m = rng.choice(live)
            data[t] = -m  # cancels to exactly zero
        elif integral or roll >= 0.7:
            t = _random_tuple(rng, name)
            data[t] = data.get(t, 0) + rng.choice((1, 1, 2, -1))
        elif live and roll < 0.4:
            t, m = rng.choice(live)
            data[t] = -m + _EPS / 3  # float residue: reads as zero
        elif roll < 0.5:
            data[_random_tuple(rng, name)] = _EPS / 2  # vanishing insert
        else:
            data[_random_tuple(rng, name)] = rng.choice((0.5, 1.25, -0.75))
    return GMR.unsafe(data)


@pytest.mark.parametrize("seed", range(6))
def test_database_indexes_match_rebuild_after_every_write(seed):
    rng = random.Random(seed)
    db = Database()
    seen: dict[str, set] = {name: set() for name in ARITY}
    plans_db = CompiledEvaluator(db)
    for step in range(60):
        name = rng.choice(sorted(ARITY))
        roll = rng.random()
        if roll < 0.65:
            update = _random_update(rng, db, name)
            seen[name].update(t for t, _ in update.items())
            db.apply_update(name, update)
        elif roll < 0.75:
            rows = [_random_tuple(rng, name) for _ in range(3)]
            seen[name].update(rows)
            db.insert_rows(name, rows)
        elif roll < 0.88:
            fresh = GMR.from_pairs(
                (_random_tuple(rng, name), 1) for _ in range(4)
            )
            seen[name].update(fresh)
            db.set_view(name, fresh)
        elif roll < 0.94:
            db.clear()  # the multiproc worker's reset
        for q in DB_QUERIES:
            assert plans_db.evaluate(q) == Evaluator(db).evaluate(q), step
        _assert_indexes_fresh(db, seen)
    assert db._indexes, "the stream never exercised a persistent index"


def _spec(name: str, query) -> QuerySpec:
    rels = base_relations(query)
    return QuerySpec(
        name=name,
        query=query,
        updatable=frozenset(rels),
        key_hints={r: ("A",) if r == "R" else ("B",) for r in rels},
    )


def _engine_stream(rng, rels, n_batches, integral):
    live = {r: GMR() for r in rels}
    stream = []
    for _ in range(n_batches):
        name = rng.choice(rels)
        db = Database()
        db.set_view(name, live[name])
        update = _random_update(rng, db, name, integral)
        batch = GMR(update.data)  # canonical
        if batch.is_zero():
            continue
        live[name].add_inplace(batch)
        stream.append((name, batch))
    return stream


def _databases(backend) -> list[Database]:
    """The in-process Databases a backend runs compiled pipelines over
    (``multiproc`` workers live in other processes: only its driver)."""
    found = [getattr(backend, "db", None), getattr(backend, "driver", None)]
    found += getattr(backend, "workers", [])  # the simulated cluster
    return [db for db in found if isinstance(db, Database)]


BACKENDS = {
    "rivm-batch": {},
    "rivm-specialized": {},
    "cluster": {"n_workers": 2},
    "multiproc": {"n_workers": 2},
}


@pytest.mark.parametrize("multiplicities", ["integer", "float"])
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("qname", sorted(ENGINE_QUERIES))
def test_backends_match_interpreted_through_index_lifecycle(
    backend_name, qname, multiplicities
):
    """Each backend running compiled pipelines (persistent indexes)
    tracks the same backend running the interpreted evaluator after
    every batch, including across a mid-stream replacement of every
    view.  An integer stream leaves no residues, so there both must
    also equal a from-scratch evaluation; a float stream's sub-``_EPS``
    residues reach both sides' aggregates alike but not the
    from-scratch result, so it is held to the interpreted side only."""
    query = ENGINE_QUERIES[qname]
    spec = _spec(qname, query)
    rng = random.Random(f"{backend_name}/{qname}/{multiplicities}")
    integral = multiplicities == "integer"
    stream = _engine_stream(rng, sorted(spec.updatable), 16, integral)
    options = BACKENDS[backend_name]
    compiled = create_backend(backend_name, spec, **options)
    interpreted = create_backend(
        backend_name, spec, use_compiled=False, **options
    )
    reference = Database()
    seen: dict[str, set] = {}
    try:
        for i, (relation, batch) in enumerate(stream):
            reference.apply_update(relation, batch)
            for backend in (compiled, interpreted):
                backend.on_batch(relation, batch)
                if i == len(stream) // 2:
                    # Replace every view mid-stream (set_view / install).
                    backend.initialize(reference.copy())
            assert compiled.snapshot() == interpreted.snapshot(), (
                f"{qname} on {backend_name}: diverged at batch {i}"
            )
            if integral:
                assert compiled.snapshot() == evaluate(query, reference), (
                    f"{qname} on {backend_name}: wrong at batch {i}"
                )
            for db in _databases(compiled):
                for name, g in db.views.items():
                    seen.setdefault(name, set()).update(t for t, _ in g.items())
                _assert_indexes_fresh(db, seen)
    finally:
        for backend in (compiled, interpreted):
            close = getattr(backend, "close", None)
            if close is not None:
                close()


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_warm_started_self_join_views_do_not_share_contents(backend_name):
    """Q_FULL_KEY materializes R twice (as R(A, C) and R(A, B)).  Both
    definitions evaluate to the warm-start database's own GMR, so each
    view must get a private copy: a shared one takes every R batch
    twice and leaves the other view's index stale.  The backend is
    warm-started once empty and once again mid-stream."""
    rng = random.Random(3)
    # No key hints: the distributed backends keep R's copies on the
    # driver, where they are installed unpartitioned.
    spec = QuerySpec("full_key", Q_FULL_KEY, frozenset({"R", "S"}))
    reference = Database()
    for name in ("R", "S"):
        reference.insert_rows(
            name, {_random_tuple(rng, name) for _ in range(6)}
        )
    backend = create_backend(backend_name, spec, **BACKENDS[backend_name])
    try:
        backend.initialize(reference.copy())
        for i in range(12):
            if i == 6:
                backend.initialize(reference.copy())
            name = rng.choice("RS")
            batch = GMR.from_pairs(
                (_random_tuple(rng, name), 1) for _ in range(3)
            )
            backend.on_batch(name, batch)
            reference.apply_update(name, batch)
            assert backend.snapshot() == evaluate(Q_FULL_KEY, reference)
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
