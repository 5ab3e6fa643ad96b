"""End-to-end equivalence of every engine against the reference.

For each query and a random stream of update batches, the recursive
IVM engine (batch and single-tuple modes, with and without batch
pre-aggregation), the classical IVM engine, and the re-evaluation
engine must all report exactly the query result a from-scratch
evaluation produces after every batch.

A differential property test additionally pits the compile-once
pipeline (:class:`~repro.eval.CompiledEvaluator`) against the
interpreted reference on randomized expressions and randomized
insert/delete streams: the two evaluation paths must agree tuple for
tuple, multiplicity for multiplicity.
"""

import random
import zlib

import pytest

from repro.baselines import ClassicalIVMEngine, ReevalEngine
from repro.compiler import apply_batch_preaggregation, compile_query
from repro.eval import CompiledEvaluator, Database, Evaluator, evaluate
from repro.exec import ExecutionBackend, RecursiveIVMEngine
from repro.query import (
    base_relations,
    assign,
    cmp,
    exists,
    join,
    rel,
    sum_over,
    union,
    value,
)
from repro.query.builder import mul
from repro.ring import GMR

# ----------------------------------------------------------------------
# Query zoo
# ----------------------------------------------------------------------

Q_TWO_WAY = sum_over(["B"], join(rel("R", "A", "B"), rel("S", "B", "C")))

Q_THREE_WAY = sum_over(
    ["B"], join(rel("R", "A", "B"), rel("S", "B", "C"), rel("T", "C", "D"))
)

Q_FILTERED = sum_over(
    ["B"], join(rel("R", "A", "B"), cmp("A", ">", 1), rel("S", "B", "C"))
)

Q_VALUE_AGG = sum_over(
    ["B"], join(rel("R", "A", "B"), rel("S", "B", "C"), value(mul("A", 2)))
)

Q_SELF_JOIN = sum_over([], join(rel("R", "A", "B"), rel("R", "B", "C")))

Q_NESTED_CORRELATED = sum_over(
    [],
    join(
        rel("R", "A", "B"),
        assign("X", sum_over([], join(rel("S", "B2", "C"), cmp("B", "==", "B2")))),
        cmp("A", "<", "X"),
    ),
)

Q_DISTINCT = exists(sum_over(["A"], join(rel("R", "A", "B"), cmp("B", ">", 2))))

Q_NESTED_UNCORRELATED = sum_over(
    [],
    join(
        rel("R", "A", "B"),
        assign("X", sum_over([], rel("S", "B2", "C"))),
        cmp("A", "<", "X"),
    ),
)

Q_EXISTS_COND = sum_over(
    [],
    join(
        rel("R", "A", "B"),
        assign("X", sum_over([], join(rel("S", "B2", "C"), cmp("B", "==", "B2")))),
        cmp("X", "!=", 0),
    ),
)

Q_UNION = union(
    sum_over(["B"], rel("R", "A", "B")),
    sum_over(["B"], rel("S", "B", "C")),
)

ALL_QUERIES = {
    "two_way": Q_TWO_WAY,
    "three_way": Q_THREE_WAY,
    "filtered": Q_FILTERED,
    "value_agg": Q_VALUE_AGG,
    "self_join": Q_SELF_JOIN,
    "nested_correlated": Q_NESTED_CORRELATED,
    "distinct": Q_DISTINCT,
    "nested_uncorrelated": Q_NESTED_UNCORRELATED,
    "exists_cond": Q_EXISTS_COND,
    "union": Q_UNION,
}

RELS = {"R": 2, "S": 2, "T": 2}


def _random_stream(rng, n_batches, batch_size, rel_names):
    """A stream of (relation, batch) pairs, mostly inserts."""
    live: dict[str, GMR] = {r: GMR() for r in rel_names}
    stream = []
    for _ in range(n_batches):
        r = rng.choice(rel_names)
        batch = GMR()
        for _ in range(batch_size):
            t = tuple(rng.randint(0, 4) for _ in range(RELS[r]))
            if rng.random() < 0.2 and live[r].get(t) + batch.get(t) > 0:
                batch.add_tuple(t, -1)
            else:
                batch.add_tuple(t, 1)
        if batch.is_zero():
            continue
        live[r].add_inplace(batch)
        stream.append((r, batch))
    return stream


def _reference_results(query, stream):
    db = Database()
    results = []
    for r, batch in stream:
        db.apply_update(r, batch)
        results.append(evaluate(query, db))
    return results


@pytest.mark.parametrize("qname", sorted(ALL_QUERIES))
def test_recursive_batch_engine_matches_reference(qname):
    query = ALL_QUERIES[qname]
    rng = random.Random(zlib.crc32(qname.encode()) % 100000)
    rel_names = sorted(base_relations(query))
    stream = _random_stream(rng, 20, 4, rel_names)
    expected = _reference_results(query, stream)

    program = apply_batch_preaggregation(compile_query(query, qname))
    engine = RecursiveIVMEngine(program, mode="batch")
    for (r, batch), want in zip(stream, expected):
        engine.on_batch(r, batch)
        assert engine.snapshot() == want, f"{qname}: diverged on batch ({r})"


@pytest.mark.parametrize("qname", sorted(ALL_QUERIES))
def test_recursive_single_tuple_engine_matches_reference(qname):
    query = ALL_QUERIES[qname]
    rng = random.Random(zlib.crc32(qname.encode()) % 99991)
    rel_names = sorted(base_relations(query))
    stream = _random_stream(rng, 15, 3, rel_names)
    expected = _reference_results(query, stream)

    program = compile_query(query, qname)  # no pre-aggregation
    engine = RecursiveIVMEngine(program, mode="single")
    for (r, batch), want in zip(stream, expected):
        engine.on_batch(r, batch)
        assert engine.snapshot() == want


@pytest.mark.parametrize("qname", sorted(ALL_QUERIES))
def test_classical_ivm_matches_reference(qname):
    query = ALL_QUERIES[qname]
    rng = random.Random(zlib.crc32(qname.encode()) % 77777)
    rel_names = sorted(base_relations(query))
    stream = _random_stream(rng, 15, 4, rel_names)
    expected = _reference_results(query, stream)

    engine = ClassicalIVMEngine(query)
    for (r, batch), want in zip(stream, expected):
        engine.on_batch(r, batch)
        assert engine.snapshot() == want


@pytest.mark.parametrize("qname", sorted(ALL_QUERIES))
def test_reeval_matches_reference(qname):
    query = ALL_QUERIES[qname]
    rng = random.Random(zlib.crc32(qname.encode()) % 55555)
    rel_names = sorted(base_relations(query))
    stream = _random_stream(rng, 10, 4, rel_names)
    expected = _reference_results(query, stream)

    engine = ReevalEngine(query)
    for (r, batch), want in zip(stream, expected):
        engine.on_batch(r, batch)
        assert engine.snapshot() == want


# ----------------------------------------------------------------------
# Differential property test: interpreted vs compiled evaluation
# ----------------------------------------------------------------------


def _random_query(rng):
    """A random valid query over R(A,B), S(B,C), T(C,D).

    Shapes mirror the zoo: a join of base relations with optional
    comparisons, interpreted value factors, and nested (correlated or
    uncorrelated) aggregates, wrapped in a projection and optionally
    Exists.  Join order keeps information flowing left to right, so
    every generated query is evaluable under the empty environment.
    """
    pool = [rel("R", "A", "B"), rel("S", "B", "C"), rel("T", "C", "D")]
    parts = [pool[i] for i in sorted(rng.sample(range(3), rng.randint(1, 3)))]
    cols: list[str] = []
    for p in parts:
        cols.extend(c for c in p.cols if c not in cols)

    extras = []
    if rng.random() < 0.6:
        extras.append(
            cmp(rng.choice(cols), rng.choice(["<", "<=", ">", "!="]),
                rng.randint(0, 4))
        )
    if rng.random() < 0.4:
        extras.append(value(mul(rng.choice(cols), rng.choice([1, 2, 3]))))
    if rng.random() < 0.4:
        # A nested aggregate over S, correlated on B when available.
        if "B" in cols and rng.random() < 0.7:
            sub = sum_over([], join(rel("S", "B2", "C2"),
                                    cmp("B", "==", "B2")))
        else:
            sub = sum_over([], rel("S", "B2", "C2"))
        extras.append(assign("X", sub))
        extras.append(
            cmp("X", rng.choice(["<", ">", "!="]),
                rng.choice(["A", 0, 2]) if "A" in cols else 0)
        )
    q = join(*parts, *extras) if extras or len(parts) > 1 else parts[0]

    group_by = [c for c in cols if rng.random() < 0.5]
    q = sum_over(group_by, q)
    if rng.random() < 0.3:
        q = exists(q)
    return q


@pytest.mark.parametrize("seed", range(40))
def test_differential_compiled_matches_interpreted(seed):
    """Randomized expressions + randomized insert/delete streams must
    produce identical GMRs from both evaluation paths."""
    rng = random.Random(7_000 + seed)
    query = _random_query(rng)
    rel_names = sorted(base_relations(query))
    stream = _random_stream(rng, 12, 5, rel_names)

    db = Database()
    interpreted = Evaluator(db)
    compiled = CompiledEvaluator(db)
    for r, batch in stream:
        db.apply_update(r, batch)
        want = interpreted.evaluate(query)
        got = compiled.evaluate(query)
        assert got == want, f"seed {seed}: diverged on {query!r}"


@pytest.mark.parametrize("qname", sorted(ALL_QUERIES))
def test_differential_engine_compiled_vs_interpreted(qname):
    """The recursive engine must behave identically with lowered
    pipelines and with the interpreted evaluator, including on
    deletion-heavy streams that cancel tuples entirely."""
    query = ALL_QUERIES[qname]
    rng = random.Random(zlib.crc32(qname.encode()) % 424242)
    rel_names = sorted(base_relations(query))
    stream = _random_stream(rng, 18, 4, rel_names)
    # Append a full retraction of one live relation's contents: pure
    # negative-multiplicity batches must also agree.
    live: dict[str, GMR] = {r: GMR() for r in rel_names}
    for r, batch in stream:
        live[r].add_inplace(batch)
    victim = max(rel_names, key=lambda r: len(live[r]))
    if not live[victim].is_zero():
        stream = stream + [(victim, -live[victim])]

    program = apply_batch_preaggregation(compile_query(query, qname))
    compiled_eng = RecursiveIVMEngine(program, mode="batch",
                                      use_compiled=True)
    interpreted_eng = RecursiveIVMEngine(program, mode="batch",
                                         use_compiled=False)
    for r, batch in stream:
        compiled_eng.on_batch(r, batch)
        interpreted_eng.on_batch(r, batch)
        assert compiled_eng.snapshot() == interpreted_eng.snapshot(), (
            f"{qname}: compiled/interpreted diverged on batch ({r})"
        )


def test_engines_implement_backend_interface():
    program = compile_query(Q_TWO_WAY, "iface")
    engine = RecursiveIVMEngine(program)
    assert isinstance(engine, ExecutionBackend)
    engine.on_batch("R", GMR({(1, 10): 1}))
    engine.on_batch("S", GMR({(10, 2): 1}))
    assert not engine.snapshot().is_zero()


def test_initialize_from_snapshot():
    db = Database()
    db.insert_rows("R", [(1, 10), (2, 20)])
    db.insert_rows("S", [(10, 5), (20, 6)])
    program = compile_query(Q_TWO_WAY, "warm")
    engine = RecursiveIVMEngine(program)
    engine.initialize(db)
    assert engine.snapshot() == evaluate(Q_TWO_WAY, db)
    # Maintenance continues correctly from the warm state.
    batch = GMR({(3, 10): 1})
    engine.on_batch("R", batch)
    db.apply_update("R", batch)
    assert engine.snapshot() == evaluate(Q_TWO_WAY, db)


def test_unknown_trigger_raises():
    program = compile_query(Q_TWO_WAY, "t")
    engine = RecursiveIVMEngine(program)
    with pytest.raises(KeyError):
        engine.on_batch("NOPE", GMR({(1, 1): 1}))


def test_engine_mode_validation():
    program = compile_query(Q_TWO_WAY, "t")
    with pytest.raises(ValueError):
        RecursiveIVMEngine(program, mode="turbo")


def test_counters_accumulate():
    program = apply_batch_preaggregation(compile_query(Q_THREE_WAY, "c"))
    engine = RecursiveIVMEngine(program, mode="batch")
    engine.on_batch("R", GMR({(1, 2): 1}))
    snap = engine.counters.snapshot()
    assert snap["triggers_fired"] == 1
    assert snap["statements_executed"] > 0
    assert snap["virtual_instructions"] > 0


def test_memory_footprint_reports_tuples():
    program = compile_query(Q_TWO_WAY, "m")
    engine = RecursiveIVMEngine(program)
    engine.on_batch("R", GMR({(1, 10): 1}))
    engine.on_batch("S", GMR({(10, 3): 1}))
    assert engine.memory_footprint() >= 3  # R-view, S-view, top view


def test_updatable_restriction_skips_static_tables():
    program = compile_query(
        Q_TWO_WAY, "static", updatable=frozenset({"R"})
    )
    assert set(program.triggers) == {"R"}
