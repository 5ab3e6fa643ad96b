"""Durability: WAL + checkpoint/restore + resumable subscriptions.

The acceptance bar (ISSUE 9): a served view with a WAL survives
``kill -9`` — restart on the same directory recovers the exact
pre-crash state (differential against an in-process reference), and a
subscriber that was cut off resumes losslessly with ``from_seq`` (no
gap, no duplicate seq).  Around that: WAL framing (torn tails, CRC
corruption), checkpoint save/load/truncate, the resume-horizon
refusal, the bounded stream queue (a stalled reader's queue depth
never exceeds the bound while healthy readers stream on; a lagging
reader gets a typed ``closed{reason: "lagging", resume_from}``), and
client-side reconnect via :class:`~repro.net.ResumableStream`.

Tests with ``smoke`` in their name form the CI crash-recovery smoke
tier (run per Python version, see .github/workflows/ci.yml).
"""

import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.durability import (
    CheckpointStore,
    DurableViewService,
    ResumeHorizonError,
    WalError,
    WriteAheadLog,
    KIND_BATCH,
    KIND_DELTA,
    KIND_DROP,
    KIND_VIEW,
)
from repro.net import Client, NetError, ResumableStream, ViewServer
from repro.ring import GMR
from repro.service import ServiceError, ViewService

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


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------


def test_wal_record_roundtrip(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_batch(1, "R", GMR({(1, 2): 1}))
    wal.append_view({"name": "v", "spec": "SELECT 1", "backend": "b",
                     "options": {}})
    wal.append_delta(1, "v", "R", GMR({(2,): 1}), seqs=[1])
    wal.append_drop("v")
    wal.close()

    wal2 = WriteAheadLog(str(tmp_path), fsync="off")
    records = list(wal2.records())
    wal2.close()
    kinds = [k for k, _ in records]
    assert kinds == [KIND_BATCH, KIND_VIEW, KIND_DELTA, KIND_DROP]
    assert records[0][1]["seq"] == 1
    assert records[0][1]["relation"] == "R"
    assert records[1][1]["name"] == "v"
    assert records[2][1]["view"] == "v"
    assert records[2][1]["seqs"] == [1]
    assert records[3][1]["name"] == "v"


def test_wal_read_deltas_filters_by_view_and_seq(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    for seq in (1, 2, 3):
        wal.append_delta(seq, "v", "R", GMR({(seq,): 1}))
        wal.append_delta(seq, "other", "R", GMR({(-seq,): 1}))
    wal.close()
    wal2 = WriteAheadLog(str(tmp_path), fsync="off")
    got = list(wal2.read_deltas("v", from_seq=1))
    wal2.close()
    assert [(seq, rel) for seq, rel, _, _ in got] == [(2, "R"), (3, "R")]
    assert got[0][2] == GMR({(2,): 1})


def test_wal_torn_tail_is_truncated_on_reopen(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_batch(1, "R", GMR({(1, 2): 1}))
    wal.append_batch(2, "R", GMR({(3, 4): 1}))
    path = os.path.join(str(tmp_path), sorted(os.listdir(tmp_path))[0])
    wal.close()
    # Tear the final record mid-frame (a crash during the last write).
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size - 5)
    wal2 = WriteAheadLog(str(tmp_path), fsync="off")
    assert [rec["seq"] for _, rec in wal2.records()] == [1]
    # The torn bytes were dropped: appending continues a valid log.
    wal2.append_batch(2, "R", GMR({(5, 6): 1}))
    wal2.close()
    wal3 = WriteAheadLog(str(tmp_path), fsync="off")
    assert [rec["seq"] for _, rec in wal3.records()] == [1, 2]
    wal3.close()


def test_wal_crc_corruption_stops_iteration(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_batch(1, "R", GMR({(1, 2): 1}))
    wal.append_batch(2, "R", GMR({(3, 4): 1}))
    wal.close()
    path = os.path.join(str(tmp_path), sorted(os.listdir(tmp_path))[0])
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) - 3)
        f.write(b"\xff\xff\xff")  # flip payload bytes of the last record
    wal2 = WriteAheadLog(str(tmp_path), fsync="off")
    assert [rec["seq"] for _, rec in wal2.records()] == [1]
    wal2.close()


def test_wal_rotate_and_truncate(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_batch(1, "R", GMR({(1, 2): 1}))
    nxt = wal.rotate()
    wal.append_batch(2, "R", GMR({(3, 4): 1}))
    assert len(wal.segment_numbers()) == 2
    assert [rec["seq"] for _, rec in wal.records()] == [1, 2]
    # Reading only the new segment skips the old prefix.
    assert [rec["seq"] for _, rec in wal.records(from_segment=nxt)] == [2]
    wal.truncate_before(nxt)
    assert wal.segment_numbers() == [nxt]
    assert [rec["seq"] for _, rec in wal.records()] == [2]
    wal.close()


def test_wal_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        WriteAheadLog(str(tmp_path), fsync="sometimes")


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


def test_checkpoint_save_load_prune(tmp_path):
    store = CheckpointStore(str(tmp_path))
    assert store.load_latest() is None
    store.save({"seq": 5, "next_segment": 1, "catalog": {}, "base": {},
                "views": []})
    store.save({"seq": 9, "next_segment": 2, "catalog": {}, "base": {},
                "views": []})
    assert store.checkpoint_seqs() == [9]  # older one pruned
    state = store.load_latest()
    assert state["seq"] == 9 and state["next_segment"] == 2


def test_checkpoint_corrupt_file_falls_back(tmp_path):
    store = CheckpointStore(str(tmp_path))
    store.save({"seq": 3, "next_segment": 1, "catalog": {}, "base": {},
                "views": []})
    # Write a newer, corrupt checkpoint by hand (save() would prune).
    bad = os.path.join(str(tmp_path), "ckpt-000000000007.bin")
    with open(bad, "wb") as f:
        f.write(b"\x00\x00\x00\x00garbage that is not a pickle")
    state = store.load_latest()
    assert state is not None and state["seq"] == 3


# ----------------------------------------------------------------------
# DurableViewService: differential recovery
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["rivm-batch", "async:rivm-batch"])
@pytest.mark.parametrize("checkpoint_every", [0, 7])
def test_durable_recovery_differential(tmp_path, backend, checkpoint_every):
    """A randomized insert+delete stream into a durable service, closed
    and re-opened on the same directory, recovers snapshots identical
    to the same stream applied to a plain in-process service — with
    and without periodic checkpoints truncating the log underneath."""
    batches = _random_stream(seed=1946, n_batches=60)

    reference = ViewService(catalog=CATALOG)
    reference.create_view("per_b", SQL_PER_B, backend=backend)
    reference.create_view("cnt_a", SQL_CNT_A, backend=backend)
    for relation, batch in batches:
        reference.on_batch(relation, GMR(dict(batch.data)))
    reference.drain()

    wal_dir = str(tmp_path / "wal")
    svc = DurableViewService(
        wal_dir, catalog=CATALOG, checkpoint_every=checkpoint_every,
        fsync="off",
    )
    svc.create_view("per_b", SQL_PER_B, backend=backend)
    svc.create_view("cnt_a", SQL_CNT_A, backend=backend)
    for relation, batch in batches:
        svc.on_batch(relation, GMR(dict(batch.data)))
    svc.drain()
    seq = svc.seq
    assert svc.snapshot("per_b") == reference.snapshot("per_b")
    svc.close()

    recovered = DurableViewService(
        wal_dir, catalog=CATALOG, checkpoint_every=checkpoint_every,
        fsync="off",
    )
    try:
        assert recovered.seq == seq
        assert sorted(recovered.recovered["views"]) == ["cnt_a", "per_b"]
        if checkpoint_every:
            assert recovered.recovered["checkpoint_seq"] > 0
        assert recovered.snapshot("per_b") == reference.snapshot("per_b")
        assert recovered.snapshot("cnt_a") == reference.snapshot("cnt_a")
        # The recovered service keeps working: more batches, same math.
        more = _random_stream(seed=4, n_batches=15)
        for relation, batch in more:
            reference.on_batch(relation, GMR(dict(batch.data)))
            recovered.on_batch(relation, GMR(dict(batch.data)))
        reference.drain()
        recovered.drain()
        assert recovered.snapshot("per_b") == reference.snapshot("per_b")
    finally:
        recovered.close()
        reference.drop_view("per_b")
        reference.drop_view("cnt_a")


def test_durable_recovery_without_clean_close(tmp_path):
    """Recovery must not rely on close(): drop the service object with
    queues drained but the WAL never closed (the in-process analogue
    of a crash) and re-open the directory."""
    svc = DurableViewService(str(tmp_path), catalog=CATALOG, fsync="off")
    svc.create_view("cnt_a", SQL_CNT_A, backend="rivm-batch")
    for relation, batch in _random_stream(seed=11, n_batches=30):
        svc.on_batch(relation, batch)
    svc.drain()
    snap = svc.snapshot("cnt_a")
    seq = svc.seq
    del svc  # no close(): the log tail may even be torn mid-record

    recovered = DurableViewService(str(tmp_path), catalog=CATALOG,
                                   fsync="off")
    try:
        assert recovered.seq == seq
        assert recovered.snapshot("cnt_a") == snap
    finally:
        recovered.close()


def test_durable_drop_view_survives_recovery(tmp_path):
    svc = DurableViewService(str(tmp_path), catalog=CATALOG, fsync="off")
    svc.create_view("cnt_a", SQL_CNT_A, backend="rivm-batch")
    svc.create_view("per_b", SQL_PER_B, backend="rivm-batch")
    svc.on_batch("R", GMR({(1, 10): 1}))
    svc.drop_view("per_b")
    svc.close()
    recovered = DurableViewService(str(tmp_path), catalog=CATALOG,
                                   fsync="off")
    try:
        assert recovered.views() == ("cnt_a",)
    finally:
        recovered.close()


def test_explicit_checkpoint_truncates_and_sets_horizon(tmp_path):
    svc = DurableViewService(str(tmp_path), catalog=CATALOG, fsync="off")
    svc.create_view("cnt_a", SQL_CNT_A, backend="rivm-batch")
    for i in range(10):
        svc.on_batch("R", GMR({(i % 4, i): 1}))
    assert svc.resume_horizon == 0
    seq = svc.checkpoint()
    assert seq == 10 and svc.resume_horizon == 10
    # Deltas at or below the horizon are gone with the truncated prefix.
    with pytest.raises(ServiceError) as err:
        svc.deltas_since("cnt_a", 4)
    assert isinstance(err.value, ResumeHorizonError)
    assert err.value.horizon == 10
    # At the horizon (nothing new): an empty, valid replay.
    assert list(svc.deltas_since("cnt_a", 10)) == []
    svc.on_batch("R", GMR({(9, 9): 1}))
    svc.drain()
    tail = list(svc.deltas_since("cnt_a", 10))
    assert [t[0] for t in tail] == [11]
    svc.close()


def test_deltas_since_accumulate_to_snapshot(tmp_path):
    svc = DurableViewService(str(tmp_path), catalog=CATALOG, fsync="off")
    svc.create_view("per_b", SQL_PER_B, backend="rivm-batch")
    for relation, batch in _random_stream(seed=77, n_batches=40):
        svc.on_batch(relation, batch)
    svc.drain()
    acc = GMR()
    seqs = []
    for seq, _relation, delta, _seqs in svc.deltas_since("per_b", 0):
        acc.add_inplace(delta)
        seqs.append(seq)
    assert seqs == sorted(set(seqs)), "delta log has duplicate seqs"
    assert acc == svc.snapshot("per_b")
    svc.close()


def test_unknown_view_and_unknown_wal_dir(tmp_path):
    svc = DurableViewService(str(tmp_path / "fresh"), catalog=CATALOG)
    assert svc.recovered is None  # nothing to recover from
    with pytest.raises(ServiceError, match="nope"):
        svc.deltas_since("nope", 0)
    svc.close()


# ----------------------------------------------------------------------
# from_seq over the network
# ----------------------------------------------------------------------


@pytest.fixture()
def durable_served(tmp_path):
    service = DurableViewService(
        str(tmp_path / "wal"), catalog=CATALOG, fsync="off",
    )
    server = ViewServer(service).start()
    client = Client(port=server.port)
    try:
        yield service, server, client
    finally:
        client.close()
        server.close()
        service.close()


def test_network_from_seq_replays_then_splices(durable_served):
    service, server, client = durable_served
    client.create_view("cnt_a", SQL_CNT_A)
    batches = [("R", GMR({(i % 5, i): 1})) for i in range(12)]
    for relation, batch in batches[:8]:
        client.batch(relation, batch)
    client.drain("cnt_a")

    # Resume from 0 replays all 8 logged deltas; live events after the
    # handoff splice in without a gap or a duplicate.
    stream = client.subscribe("cnt_a", from_seq=0)
    for relation, batch in batches[8:]:
        client.batch(relation, batch)
    token = client.drain("cnt_a")
    acc = GMR()
    seqs = []
    for delta in stream.read_until_mark(token):
        acc.add_inplace(delta.delta)
        seqs.append(delta.seq)
    stream.close()
    assert seqs == sorted(set(seqs)), f"gap/duplicate in {seqs}"
    assert seqs[0] == 1 and seqs[-1] == 12
    assert acc == client.snapshot("cnt_a")
    assert stream.last_seq == 12


def test_network_mid_stream_resume_no_gap_no_dup(durable_served):
    service, server, client = durable_served
    client.create_view("cnt_a", SQL_CNT_A)
    for i in range(10):
        client.batch("R", GMR({(i % 3, i): 1}))
    client.drain("cnt_a")
    stream = client.subscribe("cnt_a", from_seq=0)
    acc = GMR()
    seqs = []
    for delta in stream:
        acc.add_inplace(delta.delta)
        seqs.append(delta.seq)
        if len(seqs) == 5:
            break
    stream.close()  # disconnect mid-stream
    resumed = client.subscribe("cnt_a", from_seq=stream.last_seq)
    token = client.drain("cnt_a")
    for delta in resumed.read_until_mark(token):
        acc.add_inplace(delta.delta)
        seqs.append(delta.seq)
    resumed.close()
    assert seqs == sorted(set(seqs)), f"gap/duplicate in {seqs}"
    assert acc == client.snapshot("cnt_a")


def test_network_from_seq_error_mapping(durable_served, tmp_path):
    service, server, client = durable_served
    client.create_view("cnt_a", SQL_CNT_A)
    client.batch("R", GMR({(1, 1): 1}))
    # initial=1 and from_seq together: one or the other.
    with pytest.raises(NetError) as err:
        client._request("GET", "/views/cnt_a/deltas?initial=1&from_seq=0")
    assert err.value.status == 400
    # Garbage from_seq.
    with pytest.raises(NetError) as err:
        client._request("GET", "/views/cnt_a/deltas?from_seq=nope")
    assert err.value.status == 400
    # Unknown view.
    with pytest.raises(NetError) as err:
        client.subscribe("ghost", from_seq=0)
    assert err.value.status == 404
    # Below the horizon after a checkpoint: 410 + the horizon to go to.
    service.checkpoint()
    with pytest.raises(NetError) as err:
        client.subscribe("cnt_a", from_seq=0)
    assert err.value.status == 410
    assert "re-subscribe with initial=1" in err.value.message


def test_from_seq_on_non_durable_server_is_rejected():
    service = ViewService(catalog=CATALOG)
    with ViewServer(service) as server:
        with Client(port=server.port) as client:
            client.create_view("cnt_a", SQL_CNT_A)
            with pytest.raises(NetError) as err:
                client.subscribe("cnt_a", from_seq=0)
            assert err.value.status == 400
            assert "wal" in err.value.message.lower()


def test_durable_health_advertises_resume_horizon(durable_served):
    service, server, client = durable_served
    health = client.health()
    assert health["durable"] is True
    assert health["resume_horizon"] == 0


# ----------------------------------------------------------------------
# Bounded stream queues (the slow-reader fix)
# ----------------------------------------------------------------------


def _shrink_listener_sndbuf(server: ViewServer) -> None:
    """Make a stalled reader back-pressure the pump after a few KB
    instead of a few MB of kernel buffering.  SO_SNDBUF on the
    listener is inherited by subsequently accepted sockets, so this
    must run *before* the stream subscribes."""
    server._httpd.socket.setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 8192
    )


def _big_batch(rng: random.Random, n_rows: int = 800) -> GMR:
    return GMR({
        (rng.randrange(10_000), rng.randrange(10_000)): 1
        for _ in range(n_rows)
    })


def test_stalled_reader_queue_stays_bounded(tmp_path):
    """The ISSUE 9 regression: one stalled subscriber must not grow an
    unbounded server-side queue; its queue depth stays within the
    configured bound while a healthy subscriber keeps streaming."""
    service = DurableViewService(str(tmp_path), catalog=CATALOG,
                                 fsync="off")
    server = ViewServer(service, stream_queue_limit=8).start()
    client = Client(port=server.port)
    try:
        client.create_view("wide", "SELECT R.a, R.b, COUNT(*) FROM R "
                                   "GROUP BY R.a, R.b")
        _shrink_listener_sndbuf(server)
        stalled = client.subscribe("wide")  # never read again
        stalled._conn.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_RCVBUF, 8192
        )
        [stalled_q] = server.hub._streams["wide"]
        healthy_client = Client(port=server.port)
        healthy = healthy_client.subscribe("wide")
        n_batches = 80
        acc = GMR()
        done = threading.Event()

        def consume():  # keep pace, unlike the stalled peer
            for delta in healthy:
                acc.add_inplace(delta.delta)
                if delta.seq >= n_batches:
                    break
            done.set()

        reader = threading.Thread(target=consume, daemon=True)
        reader.start()
        rng = random.Random(5)
        reference = GMR()
        for _ in range(n_batches):
            batch = _big_batch(rng)
            reference.add_inplace(GMR(dict(batch.data)))
            client.batch("R", batch)
        client.drain("wide")

        # The healthy subscriber receives everything despite its peer.
        assert done.wait(timeout=60)
        reader.join(timeout=5)
        assert acc == reference
        healthy.close()
        healthy_client.close()

        # The stalled reader's server-side queue respected the bound
        # and was flipped to lagged instead of growing without limit.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not stalled_q.lagged:
            time.sleep(0.01)
        assert len(stalled_q) <= 8
        assert stalled_q.lagged
        stalled.close()
    finally:
        client.close()
        server.close()
        service.close()


def test_lagging_reader_gets_typed_close_and_resumes(tmp_path):
    """A slow-but-reading subscriber is dropped with
    ``closed{reason: "lagging", resume_from}`` and recovers every
    missed delta by re-subscribing with ``from_seq``."""
    service = DurableViewService(str(tmp_path), catalog=CATALOG,
                                 fsync="off")
    server = ViewServer(service, stream_queue_limit=8).start()
    client = Client(port=server.port)
    try:
        client.create_view("wide", "SELECT R.a, R.b, COUNT(*) FROM R "
                                   "GROUP BY R.a, R.b")
        _shrink_listener_sndbuf(server)
        slow = client.subscribe("wide")
        slow._conn.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_RCVBUF, 8192
        )
        rng = random.Random(6)
        reference = GMR()
        n_batches = 120
        for _ in range(n_batches):
            batch = _big_batch(rng)
            reference.add_inplace(GMR(dict(batch.data)))
            client.batch("R", batch)
        # Wait (bounded) for the pump to mark the stream lagged.
        [q] = server.hub._streams["wide"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not q.lagged:
            time.sleep(0.01)
        assert q.lagged, "queue never overflowed; grow the stream"

        # The reader drains what was already in flight, then sees the
        # typed close naming the seq to resume from.
        acc = GMR()
        seqs = []
        for delta in slow:
            acc.add_inplace(delta.delta)
            seqs.append(delta.seq)
        assert slow.closed_reason == "lagging"
        assert slow.resume_from == (seqs[-1] if seqs else 0)

        resumed = client.subscribe("wide", from_seq=slow.resume_from)
        token = client.drain("wide")
        for delta in resumed.read_until_mark(token):
            acc.add_inplace(delta.delta)
            seqs.append(delta.seq)
        resumed.close()
        assert seqs == sorted(set(seqs)), "gap/duplicate across resume"
        assert acc == reference
    finally:
        client.close()
        server.close()
        service.close()


def test_resumable_stream_across_lag_drop(tmp_path):
    """ResumableStream hides the drop entirely: iteration spans the
    typed close and the ``from_seq`` re-subscribe, yielding every seq
    exactly once."""
    service = DurableViewService(str(tmp_path), catalog=CATALOG,
                                 fsync="off")
    server = ViewServer(service, stream_queue_limit=8).start()
    client = Client(port=server.port)
    stream_client = Client(port=server.port)
    try:
        client.create_view("wide", "SELECT R.a, R.b, COUNT(*) FROM R "
                                   "GROUP BY R.a, R.b")
        _shrink_listener_sndbuf(server)
        rng = random.Random(8)
        reference = GMR()
        n_batches = 120
        acc = GMR()
        seqs = []
        stream = ResumableStream(stream_client, "wide",
                                 max_reconnects=20)
        done = threading.Event()

        def consume():
            for delta in stream:
                if delta.seq <= n_batches:
                    time.sleep(0.002)  # slow reader: provoke the drop
                acc.add_inplace(delta.delta)
                seqs.append(delta.seq)
                if delta.seq >= n_batches:
                    break
            done.set()

        reader = threading.Thread(target=consume, daemon=True)
        reader.start()
        for _ in range(n_batches):
            batch = _big_batch(rng)
            reference.add_inplace(GMR(dict(batch.data)))
            client.batch("R", batch)
        client.drain("wide")
        assert done.wait(timeout=60), "resumable reader never finished"
        reader.join(timeout=5)
        stream.close()
        assert seqs == sorted(set(seqs)), "gap/duplicate across resume"
        assert seqs[-1] == n_batches
        assert acc == reference
    finally:
        stream_client.close()
        client.close()
        server.close()
        service.close()


def test_resumable_stream_across_server_restart(tmp_path):
    """The in-process restart differential: a ResumableStream spans a
    full server+service teardown and a recovery on the same WAL
    directory, accumulating to exactly the recovered snapshot."""
    wal_dir = str(tmp_path / "wal")
    service = DurableViewService(wal_dir, catalog=CATALOG, fsync="off")
    service.create_view("cnt_a", SQL_CNT_A, backend="rivm-batch")
    server = ViewServer(service).start()
    port = server.port
    client = Client(port=port)
    stream_client = Client(port=port)
    acc = GMR()
    seqs = []
    stream = ResumableStream(stream_client, "cnt_a", max_reconnects=50,
                             reconnect_delay_s=0.1, timeout=10.0)
    done = threading.Event()

    def consume():
        for delta in stream:
            acc.add_inplace(delta.delta)
            seqs.append(delta.seq)
            if delta.seq >= 20:
                break
        done.set()

    reader = threading.Thread(target=consume, daemon=True)
    reader.start()
    try:
        for i in range(10):
            client.batch("R", GMR({(i % 4, i): 1}))
        client.drain("cnt_a")
        # Hard stop: no final checkpoint, subscribers cut off.
        server.close()
        service.close()
        client.close()

        service = DurableViewService(wal_dir, catalog=CATALOG,
                                     fsync="off")
        assert service.recovered["seq"] == 10
        server = ViewServer(service, port=port).start()
        client = Client(port=port)
        for i in range(10, 20):
            client.batch("R", GMR({(i % 4, i): 1}))
        client.drain("cnt_a")
        assert done.wait(timeout=60), "stream never spanned the restart"
        reader.join(timeout=5)
        assert stream.reconnects >= 1
        assert seqs == sorted(set(seqs)), f"gap/duplicate in {seqs}"
        assert seqs[-1] == 20
        assert acc == client.snapshot("cnt_a")
    finally:
        stream.close()
        stream_client.close()
        client.close()
        server.close()
        service.close()


def test_subscribe_to_a_resetting_server_raises_net_error():
    """A server that accepts and then drops the connection (what a
    reconnect sees when it lands on a closing server) must surface as a
    retryable NetError, never a raw OSError — so a ResumableStream
    spends its reconnect budget instead of killing its consumer."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    accepted = []

    def reset_every_connection():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: test over
            accepted.append(conn)
            conn.close()

    acceptor = threading.Thread(target=reset_every_connection, daemon=True)
    acceptor.start()
    client = Client(port=port, timeout=5.0)
    try:
        with pytest.raises(NetError) as info:
            client.subscribe("v", timeout=5.0)
        assert info.value.status == 0  # NetConnectError: retry-safe
        stream = ResumableStream(client, "v", max_reconnects=3,
                                 reconnect_delay_s=0.0, timeout=5.0)
        with pytest.raises(NetError):
            next(iter(stream))
        assert stream.reconnects == 3
        assert len(accepted) == 1 + 1 + 3
    finally:
        client.close()
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        listener.close()
        acceptor.join(timeout=5)


# ----------------------------------------------------------------------
# kill -9 differential (the CI crash-recovery smoke tier)
# ----------------------------------------------------------------------

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _spawn_server(*extra_args, port=0):
    """Launch ``python -m repro serve --port <port> ...``; returns
    (process, bound port) once the listen line appears."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=_REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(_REPO_ROOT / "src")},
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited before listening (rc={proc.poll()})"
            )
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    raise AssertionError("no listen line within 60s")


def _kill9(proc):
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)


def _wait_healthy(port, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            return Client(port=port, timeout=5).health()
        except Exception:
            time.sleep(0.1)
    raise AssertionError(f"server on :{port} never became healthy")


@pytest.mark.parametrize("backend", ["rivm-batch", "async:rivm-batch"])
def test_kill9_recovery_smoke(tmp_path, backend):
    """The acceptance bar: serve with a WAL, ack a randomized
    insert+delete stream, SIGKILL, restart on the same directory —
    the recovered snapshot equals an in-process reference, and a
    ``from_seq`` subscriber accumulates to exactly that snapshot."""
    wal_dir = str(tmp_path / "wal")
    batches = _random_stream(seed=2024, n_batches=40)

    reference = ViewService(catalog=CATALOG)
    reference.create_view("per_b", SQL_PER_B, backend=backend)
    for relation, batch in batches:
        reference.on_batch(relation, GMR(dict(batch.data)))
    reference.drain()

    args = (
        "--sql", f"per_b={SQL_PER_B}", "--backends", backend,
        "--wal-dir", wal_dir, "--fsync", "always",
    )
    proc, port = _spawn_server(*args)
    try:
        client = Client(port=port)
        for relation, batch in batches:
            client.batch(relation, batch)  # ack ⇒ WAL record fsynced
        # No drain, no shutdown: async queues may still hold acked
        # batches when the process dies.  The WAL covers them.
        _kill9(proc)

        proc, port = _spawn_server(*args, port=port)
        client = Client(port=port)
        health = _wait_healthy(port)
        assert health["durable"] and health["seq"] == len(batches)
        snapshot = client.snapshot("per_b")
        assert snapshot == reference.snapshot("per_b")

        # A resumed subscriber replays the healed delta log to the
        # same state.
        stream = client.subscribe("per_b", from_seq=0)
        token = client.drain("per_b")
        acc = GMR()
        seqs = []
        for delta in stream.read_until_mark(token):
            acc.add_inplace(delta.delta)
            seqs.append(delta.seq)
        stream.close()
        assert seqs == sorted(set(seqs)), f"gap/duplicate in {seqs}"
        assert acc == snapshot

        client.shutdown_server()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    reference.drop_view("per_b")


def test_kill9_cluster_shard_recovery_smoke(tmp_path):
    """Two durable subprocess shards behind an in-process router: kill
    -9 one shard, restart it on the same WAL directory and port — the
    router's pinned reader resumes the shard stream with ``from_seq``,
    so a merged-stream subscriber accumulates to exactly the gathered
    snapshot with no gap and no duplicate."""
    from repro.cluster import ClusterRouter

    wal_dirs = [str(tmp_path / f"shard{i}") for i in range(2)]
    shard_args = [
        ("--wal-dir", wal_dirs[i], "--fsync", "always")
        for i in range(2)
    ]
    procs = [None, None]
    router = None
    client = None
    try:
        ports = []
        for i in range(2):
            procs[i], port = _spawn_server(*shard_args[i])
            ports.append(port)
        router = ClusterRouter(
            ",".join(f"127.0.0.1:{p}" for p in ports),
            CATALOG,
            reconnect_timeout_s=30.0,
            write_retry_timeout_s=30.0,
        ).start()
        router.create_view("cnt_a", SQL_CNT_A, backend="rivm-batch")
        client = Client(port=router.port)
        stream = client.subscribe("cnt_a")

        reference = GMR()
        rng = random.Random(31)

        def send(n):
            for _ in range(n):
                data = {(rng.randint(1, 50), rng.randint(1, 9)): 1
                        for _ in range(3)}
                reference.add_inplace(GMR(dict(data)))
                client.batch("R", GMR(data))

        send(15)
        _kill9(procs[0])
        procs[0], _ = _spawn_server(*shard_args[0], port=ports[0])
        _wait_healthy(ports[0])
        send(15)

        token = client.drain("cnt_a")
        acc = GMR()
        seqs = []
        for delta in stream.read_until_mark(token):
            acc.add_inplace(delta.delta)
            seqs.append(delta.seq)
        stream.close()
        assert seqs == sorted(set(seqs)), f"gap/duplicate in {seqs}"
        gathered = router.snapshot("cnt_a")
        assert acc == gathered
        # The gathered state equals the reference aggregate: every
        # acked batch survived the shard kill.
        expected = GMR()
        counts: dict = {}
        for (a, _b), mult in reference.data.items():
            counts[a] = counts.get(a, 0) + mult
        for a, count in counts.items():
            if count:
                expected.add_inplace(GMR({(a,): count}))
        assert gathered == expected
    finally:
        if client is not None:
            client.close()
        if router is not None:
            router.close()
        for proc in procs:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
