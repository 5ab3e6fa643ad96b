"""Merging per-shard delta streams into one router changefeed.

One :class:`StreamMerger` owns a reader thread per ``(shard, view)``
subscription.  Each reader holds a :class:`~repro.net.DeltaStream` to
its shard, forwards ``delta`` envelopes to the router's emit path
(which stamps the router-wide delivery seq and broadcasts to local
subscribers), and records shard ``mark`` tokens for the cross-shard
barrier (:meth:`StreamMerger.await_marks`).

**Reconnects are pinned to the endpoint.**  A broken stream reconnects
only to the *same* replica it was reading.  That is a correctness rule,
not a convenience: while the router is disconnected, that replica's
changefeed accumulates (the service skips delta computation with no
live subscriber), so the first delta after reconnecting covers the gap
exactly — the router being each replica's *sole* subscriber is what
makes shard restarts lossless.  Failing over to a *different* replica
would instead deliver that replica's changefeed-since-creation and
double-count everything already merged.

**Durable shards resume by seq.**  A shard running a
:class:`~repro.durability.DurableViewService` always consumes its
changefeed (every delta is written to its WAL before delivery), so the
accumulate-while-disconnected property above does not hold there.
Each reader therefore tracks the highest delta seq it merged and, on
*re*-connect, subscribes with ``from_seq=<that seq>`` — the shard
replays the missed tail from its WAL and splices into the live stream,
no gap, no duplicate.  A 400 reply (the shard is not durable) falls
back to a plain subscribe, which is exactly the accumulation contract
— unless the shard previously dropped this reader as ``lagging``
(deltas were discarded, only ``from_seq`` can recover them), in which
case the stream is declared lost rather than silently resuming with a
hole.  A 410 (the shard checkpoint-truncated past our seq) is likewise
terminal: the missed deltas are unrecoverable over the stream.

A reader that cannot reconnect within ``reconnect_timeout_s`` declares
the stream lost: router subscribers of the view receive a typed
``closed`` envelope (``reason`` naming the shard) instead of a silent
hang, and any barrier waiting on the stream aborts.
"""

from __future__ import annotations

import threading
import time

from repro.exec import BackendError
from repro.net import Client, NetError

__all__ = ["StreamMerger"]

#: delay between reconnect attempts to a broken shard stream
_RECONNECT_POLL_S = 0.2


class _ShardReader(threading.Thread):
    """One pinned subscription: shard ``shard``, view ``view``, replica
    ``endpoint`` — forever (reconnects never move)."""

    def __init__(self, merger: "StreamMerger", shard: int, view: str,
                 endpoint: tuple[str, int]):
        super().__init__(
            name=f"shard-reader:{shard}:{view}", daemon=True
        )
        self.merger = merger
        self.shard = shard
        self.view = view
        self.endpoint = endpoint
        self.stopping = threading.Event()
        self._stream = None
        self._stream_lock = threading.Lock()
        #: highest delta seq merged from this shard — the from_seq a
        #: durable shard resumes from after a reconnect
        self.last_seq = 0
        self._ever_connected = False
        #: the shard dropped us as lagging: deltas were discarded, so
        #: only a from_seq resume is lossless — a plain-subscribe
        #: fallback would silently hide a hole
        self._resume_required = False

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the reader to exit; closes the live stream so a blocked
        ``readline`` returns instead of waiting out its timeout."""
        self.stopping.set()
        with self._stream_lock:
            if self._stream is not None:
                self._stream.close()

    # ------------------------------------------------------------------
    def _subscribe(self):
        host, port = self.endpoint
        client = Client(
            host=host, port=port,
            timeout=self.merger.reconnect_timeout_s,
            auth_token=self.merger.shard_token,
        )
        try:
            if not (self._ever_connected and self.last_seq):
                # First connect (or nothing merged yet): a plain
                # subscribe delivers the changefeed from here on.
                return client.subscribe(self.view)
            try:
                return client.subscribe(self.view, from_seq=self.last_seq)
            except NetError as exc:
                if exc.status != 400:
                    raise  # incl. 410: resume horizon passed, terminal
                if self._resume_required:
                    raise NetError(
                        410,
                        f"shard dropped this stream as lagging and does "
                        f"not support from_seq resume (not durable): "
                        f"{exc.message}",
                    ) from exc
                # Not durable: the replica's changefeed accumulated
                # while we were away, so a plain subscribe is lossless.
                return client.subscribe(self.view)
        finally:
            client.close()

    def run(self) -> None:
        deadline = None  # None while healthy; a wall-clock limit while broken
        while not self.stopping.is_set():
            try:
                stream = self._subscribe()
            except (NetError, OSError) as exc:
                if deadline is None:
                    deadline = time.monotonic() + self.merger.reconnect_timeout_s
                if time.monotonic() >= deadline:
                    self.merger._stream_lost(self, str(exc))
                    return
                self.stopping.wait(_RECONNECT_POLL_S)
                continue
            with self._stream_lock:
                if self.stopping.is_set():
                    stream.close()
                    return
                self._stream = stream
            deadline = None
            self._ever_connected = True
            self.merger._stream_connected(self)
            try:
                self._consume(stream)
            except (NetError, OSError) as exc:
                if self.stopping.is_set():
                    return
                # Broken mid-stream: start the reconnect window.
                deadline = time.monotonic() + self.merger.reconnect_timeout_s
                self.merger._stream_broken(self, str(exc))
            finally:
                with self._stream_lock:
                    self._stream = None
                stream.close()

    def _consume(self, stream) -> None:
        """Forward envelopes until the stream ends or we are stopped."""
        while not self.stopping.is_set():
            envelope = stream._read_envelope()
            kind = envelope.get("type")
            if kind == "delta":
                seq = envelope.get("seq") or 0
                if seq > self.last_seq:
                    self.last_seq = seq
                self.merger._on_delta(self, envelope)
            elif kind == "mark":
                self.merger._on_mark(self, envelope["token"])
            elif kind == "closed":
                # The shard ended the stream (server closing / view
                # dropped there).  Treated as a break: either we are
                # being stopped (coordinated drop) or the shard is
                # restarting and the reconnect loop takes over.
                reason = envelope.get("reason", "")
                if "lagging" in reason:
                    # The shard discarded queued deltas; only a
                    # from_seq resume closes the hole losslessly.
                    self._resume_required = True
                raise NetError(410, f"shard stream closed: {reason}")
            # heartbeats just prove liveness


class StreamMerger:
    """All shard subscriptions of one router, plus barrier bookkeeping.

    ``emit(view, shard, envelope)`` and ``emit_closed(view, reason)``
    are the router callbacks the merger drives; ``shard_token``
    authenticates the subscriptions.
    """

    def __init__(
        self,
        emit,
        emit_closed,
        shard_token: str | None = None,
        reconnect_timeout_s: float = 10.0,
    ):
        self._emit = emit
        self._emit_closed = emit_closed
        self.shard_token = shard_token
        self.reconnect_timeout_s = reconnect_timeout_s
        self._cond = threading.Condition()
        #: live readers by (shard, view)
        self._readers: dict[tuple[int, str], _ShardReader] = {}
        #: highest shard mark token observed per (shard, view)
        self._marks: dict[tuple[int, str], int] = {}
        #: streams given up on: (shard, view) -> reason
        self._lost: dict[tuple[int, str], str] = {}
        self._closing = False

    # ------------------------------------------------------------------
    # Subscription lifecycle
    # ------------------------------------------------------------------
    def add_view(
        self, view: str, shard_endpoints: dict[int, tuple[str, int]]
    ) -> None:
        """Start one pinned reader per shard for ``view``.

        ``shard_endpoints`` maps shard index -> the replica to read
        from (the router passes every shard for a partitioned view,
        just shard 0 for a fully replicated one — the replicas all
        serve the same stream, so reading more than one would deliver
        every delta N times).
        """
        with self._cond:
            if self._closing:
                return
            readers = []
            for shard, endpoint in sorted(shard_endpoints.items()):
                key = (shard, view)
                if key in self._readers:
                    continue
                reader = _ShardReader(self, shard, view, endpoint)
                self._readers[key] = reader
                self._marks.pop(key, None)
                self._lost.pop(key, None)
                readers.append(reader)
        for reader in readers:
            reader.start()

    def remove_view(self, view: str) -> None:
        """Stop and join every reader of ``view`` (coordinated drop)."""
        with self._cond:
            victims = [
                (key, r) for key, r in self._readers.items()
                if key[1] == view
            ]
            for key, _ in victims:
                del self._readers[key]
                self._marks.pop(key, None)
                self._lost.pop(key, None)
        for _, reader in victims:
            reader.stop()
        for _, reader in victims:
            reader.join(timeout=5)

    def streams(self) -> list[tuple[int, str, tuple[str, int]]]:
        """Live (shard, view, endpoint) triples, for /shards reporting."""
        with self._cond:
            return [
                (s, v, r.endpoint)
                for (s, v), r in sorted(self._readers.items())
            ]

    def close(self) -> None:
        with self._cond:
            self._closing = True
            readers = list(self._readers.values())
            self._readers.clear()
            self._cond.notify_all()
        for reader in readers:
            reader.stop()
        for reader in readers:
            reader.join(timeout=5)

    # ------------------------------------------------------------------
    # Reader callbacks
    # ------------------------------------------------------------------
    def _live(self, reader: _ShardReader) -> bool:
        return self._readers.get((reader.shard, reader.view)) is reader

    def _on_delta(self, reader: _ShardReader, envelope: dict) -> None:
        if self._live(reader):
            self._emit(reader.view, reader.shard, envelope)

    def _on_mark(self, reader: _ShardReader, token: int) -> None:
        key = (reader.shard, reader.view)
        with self._cond:
            if self._readers.get(key) is reader:
                if token > self._marks.get(key, 0):
                    self._marks[key] = token
                self._cond.notify_all()

    def _stream_connected(self, reader: _ShardReader) -> None:
        with self._cond:
            self._cond.notify_all()

    def _stream_broken(self, reader: _ShardReader, reason: str) -> None:
        """Transient break: wake barrier waiters so they can re-check
        (they keep waiting — the reader is reconnecting)."""
        with self._cond:
            self._cond.notify_all()

    def _stream_lost(self, reader: _ShardReader, reason: str) -> None:
        """Terminal: the reconnect window expired."""
        key = (reader.shard, reader.view)
        with self._cond:
            if self._readers.get(key) is not reader:
                return
            del self._readers[key]
            self._lost[key] = reason
            self._cond.notify_all()
        self._emit_closed(
            reader.view,
            f"shard {reader.shard} stream lost "
            f"({reader.endpoint[0]}:{reader.endpoint[1]}): {reason}",
        )

    # ------------------------------------------------------------------
    # The cross-shard barrier
    # ------------------------------------------------------------------
    def await_marks(
        self,
        tokens: dict[tuple[int, str], int],
        timeout: float = 60.0,
    ) -> None:
        """Block until every ``(shard, view)`` stream in ``tokens`` has
        observed its shard mark token (the shard-side drain already
        queued the mark *behind* every delta it owed, so observing it
        proves those deltas were merged and broadcast).

        Raises :class:`~repro.exec.BackendError` if a required stream
        is lost or the timeout expires — a barrier that cannot be
        proven must fail loudly, never report success.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                pending = []
                for key, token in tokens.items():
                    if key in self._lost:
                        shard, view = key
                        raise BackendError(
                            f"cross-shard barrier failed: stream "
                            f"shard={shard} view={view!r} was lost "
                            f"({self._lost[key]})"
                        )
                    if key not in self._readers:
                        continue  # view dropped concurrently: no debt
                    if self._marks.get(key, 0) < token:
                        pending.append(key)
                if not pending:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BackendError(
                        f"cross-shard barrier timed out after {timeout}s "
                        f"waiting on streams {sorted(pending)}"
                    )
                self._cond.wait(min(remaining, 0.5))

    def await_connected(
        self,
        keys,
        timeout: float = 60.0,
    ) -> None:
        """Block until every ``(shard, view)`` stream in ``keys`` holds
        a *live* subscription.

        The router calls this before issuing the shards' drains: a
        shard broadcasts its mark only to subscriptions present at
        drain time, so draining while a pinned reader is mid-reconnect
        (say, right after a shard restart) would lose the mark and
        stall the barrier for its full timeout.  Raises
        :class:`~repro.exec.BackendError` if a stream is lost or the
        timeout expires.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                pending = []
                for key in keys:
                    if key in self._lost:
                        shard, view = key
                        raise BackendError(
                            f"cross-shard barrier failed: stream "
                            f"shard={shard} view={view!r} was lost "
                            f"({self._lost[key]})"
                        )
                    reader = self._readers.get(key)
                    if reader is None:
                        continue  # view dropped concurrently: no debt
                    with reader._stream_lock:
                        if reader._stream is None:
                            pending.append(key)
                if not pending:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BackendError(
                        f"cross-shard barrier timed out after {timeout}s "
                        f"waiting for streams {sorted(pending)} to "
                        "(re)connect"
                    )
                self._cond.wait(min(remaining, 0.25))

    def reader_endpoint(self, shard: int, view: str) -> tuple[str, int] | None:
        """The replica the live (shard, view) stream is pinned to."""
        with self._cond:
            reader = self._readers.get((shard, view))
            return reader.endpoint if reader is not None else None
