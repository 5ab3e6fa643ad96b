"""The network serving frontend: ViewServer + Client over real sockets.

The acceptance bar (ISSUE 5): randomized insert+delete streams driven
through ``repro.net.Client`` against a live server must produce
snapshots identical to the same stream on an in-process ``ViewService``
— for a synchronous and an ``async:`` backend — and deltas accumulated
off a push subscription must equal the final snapshot.  Around that:
wire-codec round trips, lifecycle over HTTP (including the
drain-before-cancel drop ordering observable from a remote stream),
error mapping, concurrent network producers, and the smoke tests CI
runs on every Python version.
"""

import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.net import Client, NetError, ViewServer
from repro.net.wire import decode_gmr, encode_gmr
from repro.ring import GMR
from repro.service import ViewService

CATALOG = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "d")}

SQL_PER_B = (
    "SELECT R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.b"
)
SQL_CNT_A = "SELECT R.a, COUNT(*) FROM R GROUP BY R.a"


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


@pytest.fixture()
def served():
    """A live server over a fresh session, plus a connected client."""
    service = ViewService(catalog=CATALOG)
    server = ViewServer(service).start()
    client = Client(port=server.port)
    try:
        yield service, server, client
    finally:
        client.close()
        server.close()


# ----------------------------------------------------------------------
# Wire codecs
# ----------------------------------------------------------------------


def test_gmr_wire_roundtrip():
    cases = [
        GMR(),
        GMR({(1, 2): 1}),
        GMR({(1, "x"): -3, (2, "y"): 2}),
        GMR({(1.5, None, True): 2.25, (): 7}),
    ]
    for gmr in cases:
        assert decode_gmr(encode_gmr(gmr)) == gmr


def test_gmr_wire_rejects_malformed():
    with pytest.raises(ValueError, match="list"):
        decode_gmr({"not": "a list"})
    with pytest.raises(ValueError, match="pair"):
        decode_gmr([[1, 2, 3]])
    with pytest.raises(ValueError, match="row"):
        decode_gmr([["nope", 1]])
    with pytest.raises(ValueError, match="multiplicity"):
        decode_gmr([[[1, 2], "many"]])


def test_duplicate_wire_rows_accumulate():
    assert decode_gmr([[[1], 2], [[1], 3]]) == GMR({(1,): 5})
    assert decode_gmr([[[1], 2], [[1], -2]]).is_zero()


# ----------------------------------------------------------------------
# The end-to-end differential invariant (acceptance criterion)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["rivm-batch", "async:rivm-batch"])
def test_differential_network_vs_in_process(served, backend):
    """The same randomized insert+delete stream, once over the wire and
    once in process, yields identical snapshots — and the deltas read
    off the wire accumulate to exactly that snapshot."""
    service, server, client = served
    batches = _random_stream(seed=2016, n_batches=80)

    reference = ViewService(catalog=CATALOG)
    reference.create_view("per_b", SQL_PER_B, backend=backend)
    reference.create_view("cnt_a", SQL_CNT_A, backend=backend)
    for relation, batch in batches:
        reference.on_batch(relation, GMR(dict(batch.data)))
    reference.drain()

    client.create_view("per_b", SQL_PER_B, backend=backend)
    client.create_view("cnt_a", SQL_CNT_A, backend=backend)
    streams = {
        name: client.subscribe(name) for name in ("per_b", "cnt_a")
    }
    for relation, batch in batches:
        client.batch(relation, batch)
    token = client.drain()

    try:
        for name in ("per_b", "cnt_a"):
            over_wire = client.snapshot(name)
            in_process = reference.snapshot(name)
            assert over_wire == in_process, (
                f"{name}/{backend}: network run diverged from in-process"
            )
            deltas = streams[name].read_until_mark(token)
            acc = GMR()
            for delta in deltas:
                acc.add_inplace(delta.delta)
            assert acc == over_wire, (
                f"{name}/{backend}: wire deltas diverged from snapshot"
            )
            seqs = [d.seq for d in deltas]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), (
                f"{name}/{backend}: non-increasing seqs {seqs[:20]}"
            )
    finally:
        for stream in streams.values():
            stream.close()
        for name in ("per_b", "cnt_a"):
            reference.drop_view(name)


def test_concurrent_network_producers_match_reference(served):
    """N client connections post concurrently; the server-side lock
    makes the result equal a single-threaded in-process run."""
    service, server, client = served
    batches = _random_stream(seed=99, n_batches=60)
    client.create_view("cnt_a", SQL_CNT_A, backend="rivm-batch")

    reference = ViewService(catalog=CATALOG)
    reference.create_view("cnt_a", SQL_CNT_A, backend="rivm-batch")
    for relation, batch in batches:
        reference.on_batch(relation, GMR(dict(batch.data)))

    errors = []

    def produce(share):
        producer = Client(port=server.port)
        try:
            for relation, batch in share:
                producer.batch(relation, batch)
        except BaseException as exc:
            errors.append(exc)
        finally:
            producer.close()

    threads = [
        threading.Thread(target=produce, args=(batches[i::4],), daemon=True)
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "network producer wedged"
    assert not errors, f"producer raised: {errors[0]!r}"
    assert client.snapshot("cnt_a") == reference.snapshot("cnt_a")
    assert client.stats()["seq"] == len(batches)


# ----------------------------------------------------------------------
# Lifecycle and push-stream semantics over the wire
# ----------------------------------------------------------------------


def test_subscribe_initial_seeds_accumulator_over_wire(served):
    service, server, client = served
    client.create_view("cnt_a", SQL_CNT_A)
    client.batch("R", GMR({(1, 10): 1, (2, 20): 1}))  # before subscribing
    stream = client.subscribe("cnt_a", initial=True)
    client.batch("R", GMR({(3, 30): 1}))
    token = client.drain()
    deltas = stream.read_until_mark(token)
    acc = GMR()
    for delta in deltas:
        acc.add_inplace(delta.delta)
    assert acc == client.snapshot("cnt_a")
    assert deltas[0].relation is None  # the synthetic snapshot event
    stream.close()


def test_drop_view_over_wire_delivers_queued_deltas_then_closes(served):
    """The drop ordering fix, observed from a remote stream: a batch
    still queued in the async backend at drop time arrives as a delta
    *before* the stream's closed event."""
    service, server, client = served
    client.create_view(
        "cnt_a", SQL_CNT_A, backend="async:rivm-batch", autostart=False
    )
    stream = client.subscribe("cnt_a")
    client.batch("R", GMR({(1, 10): 1, (2, 20): 1}))  # queued, unflushed
    client.drop_view("cnt_a")
    deltas = list(stream)
    assert stream.closed_reason == "view dropped"
    acc = GMR()
    for delta in deltas:
        acc.add_inplace(delta.delta)
    assert acc == GMR({(1,): 1, (2,): 1}), (
        "deltas queued at drop time were lost over the wire"
    )
    assert "cnt_a" not in service


def test_server_close_ends_streams_cleanly(served):
    service, server, client = served
    client.create_view("cnt_a", SQL_CNT_A)
    stream = client.subscribe("cnt_a")
    server.close()
    assert list(stream) == []
    assert stream.closed_reason == "server closing"


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------


def test_error_statuses(served):
    service, server, client = served
    with pytest.raises(NetError) as err:
        client.snapshot("ghost")
    assert err.value.status == 404 and "unknown view" in err.value.message

    client.create_view("cnt_a", SQL_CNT_A)
    with pytest.raises(NetError) as err:
        client.create_view("cnt_a", SQL_CNT_A)
    assert err.value.status == 409

    with pytest.raises(NetError) as err:
        client.create_view("v2", SQL_CNT_A, backend="warp-drive")
    assert err.value.status == 400 and "warp-drive" in err.value.message

    # The nested-async rejection travels with its explanatory message.
    with pytest.raises(NetError) as err:
        client.create_view("v3", SQL_CNT_A, backend="async:async:rivm-batch")
    assert err.value.status == 400
    assert "use 'async:rivm-batch'" in err.value.message

    with pytest.raises(NetError) as err:
        client._request("POST", "/batch/R", {"not": "a gmr"})
    assert err.value.status == 400

    with pytest.raises(NetError) as err:
        client.subscribe("ghost")
    assert err.value.status == 404

    with pytest.raises(NetError) as err:
        client._request("GET", "/no/such/route")
    assert err.value.status == 404


# ----------------------------------------------------------------------
# Smoke tests (run per Python version in CI)
# ----------------------------------------------------------------------


def test_server_smoke():
    """start server → create view over HTTP → stream a batch → assert
    snapshot → clean shutdown (the CI smoke contract)."""
    service = ViewService(catalog=CATALOG)
    with ViewServer(service) as server:
        with Client(port=server.port) as client:
            assert client.health()["status"] == "ok"
            client.create_view("per_b", SQL_PER_B)
            client.batch("R", GMR({(1, 10): 1}))
            client.batch("S", GMR({(10, 5): 1}))
            assert client.snapshot("per_b") == GMR({(10,): 1})
            stats = client.view_stats("per_b")
            assert stats["batches_applied"] == 2
            client.drop_view("per_b")
    # A closed server refuses connections; a second close is a no-op.
    server.close()
    with pytest.raises(Exception):
        Client(port=server.port, timeout=2).health()


def test_cli_serve_port_smoke(tmp_path):
    """``python -m repro serve --port 0`` hosts real sockets: a client
    creates a view, streams a batch, reads the snapshot, and shuts the
    server down remotely; the process exits 0."""
    repo_root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--sql", f"cnt={SQL_CNT_A}", "--port", "0",
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
        line = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        assert match, f"no listen line, got {line!r}"
        client = Client(port=int(match.group(1)))
        client.create_view("per_b", SQL_PER_B)
        client.batch("R", GMR({(1, 10): 1, (2, 10): 1}))
        client.batch("S", GMR({(10, 5): 1}))
        assert client.snapshot("per_b") == GMR({(10,): 2})
        assert set(client.views()) == {"cnt", "per_b"}
        client.shutdown_server()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
