"""The sharded serving cluster: router, shard map, merged streams.

The acceptance bar (ISSUE 7): randomized insert+delete streams routed
through a :class:`~repro.cluster.ClusterRouter` over 1/2/4 shard
ViewServers must produce snapshots and merged delta streams identical
to the same stream on a single-process ``ViewService`` — including
across a forced shard restart.  Around that: shard-map unit behavior
(topology parsing, split determinism, range boundaries), partition-plan
inference, the cross-shard drain barrier (marks released only after
every shard acks), per-subscriber seq monotonicity under concurrent
shard interleavings, shard death surfacing as a typed ``closed``
envelope, bearer auth on both tiers, inconsistent-read snapshots, and
the CLI ``route`` smoke test CI runs per Python version.
"""

import contextlib
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import ClusterRouter, ShardMap, parse_shard_spec
from repro.exec import BackendError
from repro.net import Client, NetError, ViewServer
from repro.query.ast import Rel
from repro.query.builder import join
from repro.ring import GMR
from repro.service import (
    PartitionPlan,
    ServiceError,
    ViewService,
    infer_partition_plan,
    is_replicated_view,
)
from repro.workloads.spec import QuerySpec, as_query_spec

CATALOG = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "d")}

SQL_PER_B = (
    "SELECT R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.b"
)
SQL_CNT_A = "SELECT R.a, COUNT(*) FROM R GROUP BY R.a"
SQL_JOIN_A = (
    "SELECT R.a, COUNT(*) FROM R, T WHERE R.a = T.a GROUP BY R.a"
)


def _spec(sql: str, name: str = "v"):
    return as_query_spec(sql, name=name, catalog=CATALOG)


def _random_stream(seed: int, n_batches: int) -> list[tuple[str, GMR]]:
    """Deterministic insert+delete batches over R/S/T (deletions only
    remove rows inserted earlier in the stream)."""
    rng = random.Random(seed)
    live: dict[str, list[tuple]] = {"R": [], "S": [], "T": []}
    batches: list[tuple[str, GMR]] = []
    for _ in range(n_batches):
        relation = rng.choice(("R", "S", "T"))
        data: dict[tuple, int] = {}
        for _ in range(rng.randint(1, 5)):
            if live[relation] and rng.random() < 0.35:
                victim = rng.choice(live[relation])
                live[relation].remove(victim)
                data[victim] = data.get(victim, 0) - 1
            else:
                row = (rng.randint(1, 8), rng.randint(1, 15))
                live[relation].append(row)
                data[row] = data.get(row, 0) + 1
        if data:
            batches.append((relation, GMR(data)))
    return batches


@contextlib.contextmanager
def cluster(
    n_shards: int,
    replicas: int = 1,
    auth_token: str | None = None,
    shard_token: str | None = None,
    **router_kw,
):
    """``n_shards`` in-process shard servers behind a live router.

    Yields ``(router, services, servers)`` where ``services[s * replicas
    + r]`` backs replica ``r`` of shard ``s``.  Teardown drops surviving
    views directly on the services so async backends release their
    batcher threads even when the test already killed the router.
    """
    services: list[ViewService] = []
    servers: list[ViewServer] = []
    groups: list[list[tuple[str, int]]] = []
    router = None
    try:
        for _ in range(n_shards):
            group = []
            for _ in range(replicas):
                svc = ViewService(catalog=CATALOG)
                server = ViewServer(svc, auth_token=shard_token).start()
                services.append(svc)
                servers.append(server)
                group.append(("127.0.0.1", server.port))
            groups.append(group)
        router = ClusterRouter(
            groups,
            CATALOG,
            auth_token=auth_token,
            shard_token=shard_token,
            **router_kw,
        ).start()
        yield router, services, servers
    finally:
        if router is not None:
            router.close()
        for server in servers:
            server.close()
        for svc in services:
            for name in svc.views():
                try:
                    svc.drop_view(name)
                except Exception:
                    pass


# ----------------------------------------------------------------------
# Shard map: topology parsing and the split function
# ----------------------------------------------------------------------


def test_parse_shard_spec():
    assert parse_shard_spec("127.0.0.1:9001,127.0.0.1:9002") == [
        [("127.0.0.1", 9001)],
        [("127.0.0.1", 9002)],
    ]
    assert parse_shard_spec("a:1+b:1,a:2+b:2") == [
        [("a", 1), ("b", 1)],
        [("a", 2), ("b", 2)],
    ]
    assert parse_shard_spec("9001") == [[("127.0.0.1", 9001)]]
    with pytest.raises(ValueError, match="bad shard endpoint"):
        parse_shard_spec("localhost:http")
    with pytest.raises(ValueError, match="names no endpoints"):
        parse_shard_spec(",")


def _map(n: int, plan: PartitionPlan, **kw) -> ShardMap:
    groups = [[("127.0.0.1", 9000 + s)] for s in range(n)]
    return ShardMap(groups, CATALOG, plan, **kw)


def test_split_is_deterministic_and_partitions():
    plan = PartitionPlan({"R": (1,)}, frozenset())
    batch = GMR({(i, i % 7): (1 if i % 3 else -2) for i in range(40)})
    parts = _map(4, plan).split("R", batch)
    assert len(parts) == 4
    total = GMR()
    for part in parts:
        total.add_inplace(part)
    assert total == batch  # a split loses and invents nothing
    # Rows are placed by key column only: same b -> same shard.
    owner: dict[object, int] = {}
    for shard, part in enumerate(parts):
        for t, _m in part.items():
            assert owner.setdefault(t[1], shard) == shard
    # And deterministically so, across independently built maps.
    again = _map(4, plan).split("R", batch)
    assert [p.data for p in again] == [p.data for p in parts]


def test_split_replicated_and_unconstrained():
    plan = PartitionPlan({"S": ()}, frozenset({"R"}))
    m = _map(3, plan)
    batch = GMR({(1, 2): 2, (3, 4): -1})
    assert all(p == batch for p in m.split("R", batch))  # full copies
    parts = m.split("S", batch)  # whole-row hash: disjoint, complete
    total = GMR()
    for part in parts:
        total.add_inplace(part)
    assert total == batch
    # A relation the plan never mentions is replicated (always exact).
    assert m.placement("UNSEEN") == "replicated"


def test_range_boundaries_validated_and_used():
    plan = PartitionPlan({"R": (1,)}, frozenset())
    with pytest.raises(ValueError, match="needs --boundaries"):
        _map(2, plan, mode="range")
    with pytest.raises(ValueError, match="exactly 2 boundaries"):
        _map(3, plan, mode="range", boundaries=[10])
    with pytest.raises(ValueError, match="ascending"):
        _map(3, plan, mode="range", boundaries=[20, 10])
    m = _map(3, plan, mode="range", boundaries=[10, 20])
    parts = m.split("R", GMR({(1, 5): 1, (1, 10): 1, (1, 15): 1, (1, 25): 1}))
    assert parts[0] == GMR({(1, 5): 1})  # b < 10
    assert parts[1] == GMR({(1, 10): 1, (1, 15): 1})  # 10 <= b < 20
    assert parts[2] == GMR({(1, 25): 1})  # 20 <= b


# ----------------------------------------------------------------------
# Partition-plan inference
# ----------------------------------------------------------------------


def test_plan_single_relation_view_is_unconstrained():
    plan = infer_partition_plan([_spec(SQL_CNT_A)])
    assert plan.keys == {"R": ()} and not plan.replicated


def test_plan_join_co_partitions_on_the_join_column():
    plan = infer_partition_plan([_spec(SQL_PER_B)])
    # R(a, b) hashes on position 1, S(b, c) on position 0 - both "b".
    assert plan.keys == {"R": (1,), "S": (0,)}
    assert plan.describe(CATALOG) == "R:hash(b) S:hash(b)"


def test_plan_conflicting_join_keys_force_replication():
    # per_b wants R hashed on b, join_a wants R hashed on a: a row
    # cannot live on two shards, so R must be replicated.
    plan = infer_partition_plan([_spec(SQL_PER_B), _spec(SQL_JOIN_A, "j")])
    assert "R" in plan.replicated
    assert plan.keys["S"] == (0,) and plan.keys["T"] == (0,)


def test_plan_nonlinear_relation_is_replicated():
    self_join = QuerySpec(
        name="nl",
        query=join(Rel("R", ("a", "b")), Rel("R", ("a", "b"))),
        updatable=frozenset({"R"}),
        key_hints={},
    )
    plan = infer_partition_plan([self_join])
    assert plan.replicated == frozenset({"R"}) and not plan.keys
    assert is_replicated_view(self_join, plan)
    assert not is_replicated_view(_spec(SQL_PER_B), plan)


# ----------------------------------------------------------------------
# The end-to-end differential invariant (acceptance criterion)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_differential_cluster_vs_single_process(n_shards):
    """The same randomized insert+delete stream, once through the
    router over N shards and once on one in-process service, yields
    identical snapshots — and the merged deltas read off the router
    accumulate to exactly that snapshot with monotone seqs."""
    batches = _random_stream(seed=7016 + n_shards, n_batches=60)

    reference = ViewService(catalog=CATALOG)
    reference.create_view("per_b", SQL_PER_B)
    reference.create_view("cnt_a", SQL_CNT_A)
    for relation, batch in batches:
        reference.on_batch(relation, GMR(dict(batch.data)))

    with cluster(n_shards) as (router, _services, _servers):
        client = Client(port=router.port)
        client.create_view("per_b", SQL_PER_B)
        client.create_view("cnt_a", SQL_CNT_A)
        streams = {
            name: client.subscribe(name) for name in ("per_b", "cnt_a")
        }
        for relation, batch in batches:
            client.batch(relation, batch)
        token = client.drain()
        try:
            for name in ("per_b", "cnt_a"):
                merged = client.snapshot(name)
                assert merged == reference.snapshot(name), (
                    f"{name}@{n_shards} shards diverged from single-process"
                )
                deltas = streams[name].read_until_mark(token)
                acc = GMR()
                for delta in deltas:
                    acc.add_inplace(delta.delta)
                assert acc == merged, (
                    f"{name}@{n_shards}: merged deltas diverged from snapshot"
                )
                seqs = [d.seq for d in deltas]
                assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
                # The router mark carries the per-shard seq vector.
                vector = streams[name].mark_shards[token]
                assert set(vector) == {str(s) for s in range(n_shards)}
        finally:
            for stream in streams.values():
                stream.close()
            client.close()
        for name in ("per_b", "cnt_a"):
            reference.drop_view(name)


def test_differential_across_forced_shard_restart():
    """Kill and re-host one shard's server mid-stream (same service,
    same port): the router's connect-phase write retry plus the
    endpoint-pinned stream reconnect make the run lossless."""
    batches = _random_stream(seed=404, n_batches=40)
    reference = ViewService(catalog=CATALOG)
    reference.create_view("per_b", SQL_PER_B)
    for relation, batch in batches:
        reference.on_batch(relation, GMR(dict(batch.data)))

    with cluster(2) as (router, services, servers):
        client = Client(port=router.port)
        client.create_view("per_b", SQL_PER_B)
        stream = client.subscribe("per_b")
        try:
            for relation, batch in batches[:20]:
                client.batch(relation, batch)

            port = servers[1].port
            servers[1].close()
            servers[1] = ViewServer(
                services[1], port=port
            ).start()  # same state, same endpoint

            for relation, batch in batches[20:]:
                client.batch(relation, batch)
            token = client.drain()
            merged = client.snapshot("per_b")
            assert merged == reference.snapshot("per_b"), (
                "restart lost or double-applied updates"
            )
            acc = GMR()
            for delta in stream.read_until_mark(token):
                acc.add_inplace(delta.delta)
            assert acc == merged, "restart broke the merged stream"
        finally:
            stream.close()
            client.close()
    reference.drop_view("per_b")


# ----------------------------------------------------------------------
# The cross-shard barrier
# ----------------------------------------------------------------------


def test_barrier_covers_queued_work_on_every_shard():
    """With async views whose batchers never flush on their own, every
    delta exists only as queued work at drain time; the router mark must
    still arrive after all of it — on every shard — has been merged."""
    with cluster(2) as (router, _services, _servers):
        client = Client(port=router.port)
        client.create_view(
            "per_b", SQL_PER_B, backend="async:rivm-batch", autostart=False
        )
        stream = client.subscribe("per_b")
        try:
            # Rows spanning both shards of the b-hash.
            for b in range(1, 9):
                client.batch("R", GMR({(b, b): 1}))
                client.batch("S", GMR({(b, 100 + b): 1}))
            info = client.drain_info()
            token = info["mark"]
            assert set(info["shards"]) == {"0", "1"}, (
                "router mark must carry every shard's seq"
            )
            acc = GMR()
            for delta in stream.read_until_mark(token):
                acc.add_inplace(delta.delta)
            snap = client.snapshot("per_b")
            assert not snap.is_zero()
            assert acc == snap, (
                "mark released before all shards' queued deltas merged"
            )
        finally:
            stream.close()
            client.close()


def test_barrier_fails_fast_when_a_shard_stream_is_lost():
    with cluster(2, reconnect_timeout_s=0.4) as (router, _services, servers):
        router_client = Client(port=router.port)
        router_client.create_view("cnt_a", SQL_CNT_A)
        try:
            servers[1].close()  # shard 1 dies for good
            deadline = time.monotonic() + 10
            while router.merger.reader_endpoint(1, "cnt_a") is not None:
                assert time.monotonic() < deadline, "stream loss undetected"
                time.sleep(0.05)
            with pytest.raises(BackendError, match="stream lost"):
                router.drain(view="cnt_a")
        finally:
            router_client.close()


def test_subscriber_seqs_monotone_across_shard_interleavings():
    """Concurrent producers drive both shards at once; every subscriber
    must still see strictly increasing router seqs and accumulate to
    the gathered snapshot."""
    batches = _random_stream(seed=5050, n_batches=80)
    with cluster(2) as (router, _services, _servers):
        control = Client(port=router.port)
        control.create_view("per_b", SQL_PER_B)
        control.create_view("cnt_a", SQL_CNT_A)
        streams = [control.subscribe("per_b") for _ in range(3)]
        errors: list[BaseException] = []

        def produce(share):
            producer = Client(port=router.port)
            try:
                for relation, batch in share:
                    producer.batch(relation, batch)
            except BaseException as exc:
                errors.append(exc)
            finally:
                producer.close()

        threads = [
            threading.Thread(
                target=produce, args=(batches[i::4],), daemon=True
            )
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "cluster producer wedged"
        assert not errors, f"producer raised: {errors[0]!r}"

        token = control.drain()
        snap = control.snapshot("per_b")
        try:
            for stream in streams:
                deltas = stream.read_until_mark(token)
                seqs = [d.seq for d in deltas]
                assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), (
                    f"interleaved shards broke seq monotonicity: {seqs[:20]}"
                )
                acc = GMR()
                for delta in deltas:
                    acc.add_inplace(delta.delta)
                assert acc == snap
        finally:
            for stream in streams:
                stream.close()
            control.close()


def test_shard_death_closes_streams_typed_not_hung():
    """A shard dying past the reconnect deadline must surface to router
    subscribers as a typed ``closed`` envelope, never a silent hang."""
    with cluster(2, reconnect_timeout_s=0.4) as (router, _services, servers):
        client = Client(port=router.port)
        client.create_view("cnt_a", SQL_CNT_A)
        stream = client.subscribe("cnt_a")
        try:
            client.batch("R", GMR({(1, 1): 1}))
            servers[0].close()  # and never comes back
            leftovers = list(stream)  # terminates via the closed event
            assert stream.closed_reason is not None
            assert "stream lost" in stream.closed_reason
            assert all(d.view == "cnt_a" for d in leftovers)
        finally:
            stream.close()
            client.close()


# ----------------------------------------------------------------------
# Sticky placement
# ----------------------------------------------------------------------


def test_create_view_rejects_retroactive_replacement():
    """Once a relation has streamed batches under a placement, a view
    that would move its rows is rejected (sticky plan)."""
    with cluster(2) as (router, _services, _servers):
        client = Client(port=router.port)
        client.create_view("per_b", SQL_PER_B)  # R hashed on b
        client.batch("R", GMR({(1, 2): 1}))  # placement now used
        with pytest.raises(ServiceError, match="re-place relation 'R'"):
            # join_a forces R to replicated (conflicting keys a vs b).
            router.create_view("join_a", SQL_JOIN_A)
        # The failed create left no trace: the view neither exists on
        # the router nor on any shard, and the old view still works.
        assert "join_a" not in router.views_info()
        client.batch("S", GMR({(2, 9): 1}))
        client.drain()
        assert client.snapshot("per_b") == GMR({(2,): 1})
        client.close()


# ----------------------------------------------------------------------
# Auth (router tier and shard tier)
# ----------------------------------------------------------------------


def test_router_requires_bearer_token():
    with cluster(2, auth_token="sekrit") as (router, _services, _servers):
        anon = Client(port=router.port)
        assert anon.health()["status"] == "ok"  # health stays open
        with pytest.raises(NetError) as err:
            anon.views()
        assert err.value.status == 401
        wrong = Client(port=router.port, auth_token="guess")
        with pytest.raises(NetError) as err:
            wrong.views()
        assert err.value.status == 401

        authed = Client(port=router.port, auth_token="sekrit")
        authed.create_view("cnt_a", SQL_CNT_A)
        stream = authed.subscribe("cnt_a")
        authed.batch("R", GMR({(1, 1): 1}))
        token = authed.drain()
        assert stream.read_until_mark(token)
        assert authed.snapshot("cnt_a") == GMR({(1,): 1})
        stream.close()
        for c in (anon, wrong, authed):
            c.close()


def test_router_presents_shard_token_to_locked_shards():
    with cluster(2, shard_token="inner") as (router, _services, servers):
        direct = Client(port=servers[0].port)
        with pytest.raises(NetError) as err:
            direct.views()
        assert err.value.status == 401  # shards really are locked
        direct.close()

        client = Client(port=router.port)  # router itself is open
        client.create_view("cnt_a", SQL_CNT_A)
        client.batch("R", GMR({(1, 1): 1, (2, 1): 1}))
        client.drain()
        assert client.snapshot("cnt_a") == GMR({(1,): 1, (2,): 1})
        client.close()


# ----------------------------------------------------------------------
# Inconsistent reads (snapshot isolation satellite)
# ----------------------------------------------------------------------


def test_inconsistent_snapshot_skips_the_barrier():
    """``consistent=0`` serves each shard's last *flushed* state: work
    still queued in a stopped async batcher is invisible to it, while
    the consistent read drains first and sees everything."""
    with cluster(2) as (router, _services, _servers):
        client = Client(port=router.port)
        client.create_view(
            "cnt_a", SQL_CNT_A, backend="async:rivm-batch", autostart=False
        )
        client.batch("R", GMR({(1, 1): 1, (2, 2): 1}))  # queued, unflushed
        assert client.snapshot("cnt_a", consistent=False) == GMR()
        assert client.snapshot("cnt_a") == GMR({(1,): 1, (2,): 1})
        # After the drain the flushed state caught up.
        assert client.snapshot("cnt_a", consistent=False) == GMR(
            {(1,): 1, (2,): 1}
        )
        client.close()


# ----------------------------------------------------------------------
# Replicated serving and failover
# ----------------------------------------------------------------------


def test_replicated_view_survives_shard_loss():
    """A fully replicated view keeps serving snapshots while any
    endpoint lives: reads round-robin across shards and fail over."""
    with cluster(2) as (router, _services, servers):
        client = Client(port=router.port)
        # per_b + join_a demand conflicting R keys (b vs a), so R is
        # replicated — which makes the R-only view fully replicated.
        client.create_view("per_b", SQL_PER_B)
        client.create_view("join_a", SQL_JOIN_A)
        client.create_view("cnt_a", SQL_CNT_A)
        assert router.view_info("cnt_a")["replicated"] is True
        assert "R" in router.describe_shards()["plan"]["replicated"]
        client.batch("R", GMR({(5, 5): 1, (6, 6): 1}))
        client.drain()
        expect = GMR({(5,): 1, (6,): 1})
        servers[1].close()  # one full copy remains on shard 0
        for _ in range(3):  # > n endpoints: every round-robin slot hit
            assert client.snapshot("cnt_a") == expect
        client.close()


# ----------------------------------------------------------------------
# Smoke tests (run per Python version in CI)
# ----------------------------------------------------------------------


def test_cluster_smoke():
    """2 shards + router: create a view over HTTP, route one batch,
    drain across the barrier, gather a snapshot, clean shutdown (the
    CI smoke contract)."""
    with cluster(2) as (router, _services, _servers):
        with Client(port=router.port) as client:
            health = client.health()
            assert health["status"] == "ok" and health["n_shards"] == 2
            client.create_view("per_b", SQL_PER_B)
            client.batch("R", GMR({(1, 10): 1, (2, 11): 1}))
            client.batch("S", GMR({(10, 5): 1, (11, 6): 1}))
            info = client.drain_info()
            assert set(info["shards"]) == {"0", "1"}
            assert client.snapshot("per_b") == GMR({(10,): 1, (11,): 1})
            shards = client._request("GET", "/shards")
            assert shards["n_shards"] == 2
            assert shards["plan"]["keys"]["R"] == ["b"]
            client.drop_view("per_b")


def test_cli_route_smoke():
    """``python -m repro route --shards ...`` fronts two live shard
    servers: a stock client creates a view through the router, streams
    a batch, reads the merged snapshot, and shuts the router down
    remotely; the process exits 0 and the shards outlive it."""
    repo_root = Path(__file__).resolve().parent.parent
    svc0 = ViewService(catalog=CATALOG)
    svc1 = ViewService(catalog=CATALOG)
    with ViewServer(svc0) as s0, ViewServer(svc1) as s1srv:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "route",
                "--shards", f"127.0.0.1:{s0.port},127.0.0.1:{s1srv.port}",
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=repo_root,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(repo_root / "src"),
            },
        )
        try:
            match = None
            seen = []
            for _ in range(5):  # a banner line may precede the URL
                line = proc.stdout.readline()
                if not line:
                    break
                seen.append(line)
                match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
                if match:
                    break
            assert match, f"no listen line, got {seen!r}"
            client = Client(port=int(match.group(1)))
            client.create_view("per_b", SQL_PER_B)
            client.batch("R", GMR({(1, 10): 1, (2, 10): 1}))
            client.batch("S", GMR({(10, 5): 1}))
            client.drain()
            assert client.snapshot("per_b") == GMR({(10,): 2})
            client.shutdown_server()
            assert proc.wait(timeout=30) == 0
            # The router never owns the shards: they must still serve.
            with Client(port=s0.port) as direct:
                assert direct.health()["status"] == "ok"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
