"""The thin network client mirroring the :class:`ViewServer` API.

One :class:`Client` wraps one keep-alive control connection (view
lifecycle, batches, snapshots, drain); each :meth:`Client.subscribe`
opens its *own* connection for the push stream, so reading deltas never
head-of-line-blocks ingestion.  Everything is stdlib ``http.client``.

A client is a single-producer handle: use one per thread (the server
side is what makes concurrent producers safe, via the ViewService
lock).  The blocking barrier pattern over the wire::

    client = Client(port=server.port)
    client.create_view("v", "SELECT ...", backend="async:rivm-batch")
    stream = client.subscribe("v")
    client.batch("R", GMR({(1, 10): 1}))
    token = client.drain("v")           # server-side barrier + mark
    deltas = stream.read_until_mark(token)   # everything owed, in order

**Failure classification.**  Transport failures split into two kinds,
and retry safety differs between them:

* :class:`NetConnectError` — the TCP connection could never be
  established (refused, unreachable, connect timeout).  The request
  was *never sent*, so retrying is safe for any method; the cluster
  router leans on this to fail over batches to a restarting shard.
* plain transport errors after connect — the request may already have
  been applied even though the reply was lost.  Only idempotent GETs
  are retried; a re-sent ``POST /batch`` could double-apply its delta.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

from repro.obs import TRACE_HEADER
from repro.ring import GMR
from repro.service import ViewDelta
from repro.net.wire import decode_delta, decode_gmr, encode_gmr

__all__ = [
    "Client", "DeltaStream", "NetConnectError", "NetError",
    "ResumableStream",
]


class NetError(RuntimeError):
    """An HTTP error reply (or a broken stream) from the view server."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class NetConnectError(NetError):
    """The server could not be reached at all (connection refused,
    unreachable host, connect timeout).

    The request was never sent, so callers may retry it — including
    non-idempotent POSTs — against the same or another endpoint without
    risking a double apply.  ``status`` is 0: no HTTP reply exists.
    """

    def __init__(self, message: str):
        super().__init__(0, message)


class Client:
    """Control-plane client for one :class:`~repro.net.ViewServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        auth_token: str | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.auth_token = auth_token
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        """Open and tune one connection; failures here are by
        definition pre-request and raise :class:`NetConnectError`."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.connect()
        except OSError as exc:
            conn.close()
            raise NetConnectError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        # Request bodies are small and ping-pong with replies on one
        # keep-alive connection; without TCP_NODELAY, Nagle plus the
        # peer's delayed ACK stalls every exchange ~40ms.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = self._connect()
        return self._conn

    def _headers(self) -> dict:
        if self.auth_token is None:
            return {}
        return {"Authorization": f"Bearer {self.auth_token}"}

    def _request(self, method: str, path: str, payload=None,
                 extra_headers: dict | None = None, raw: bool = False):
        body = None
        headers = self._headers()
        if extra_headers:
            headers.update(extra_headers)
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # Only idempotent reads are retried transparently after an
        # in-flight failure (a dropped keep-alive connection gets one
        # reconnect).  POST/DELETE must not be: the server may already
        # have applied the request even though the reply never arrived,
        # and silently re-sending e.g. /batch would apply the same GMR
        # delta twice.  Connect-phase failures (NetConnectError) are
        # not retried here either — they propagate with their type so
        # callers that *can* safely retry (the request never left) get
        # to decide.
        attempts = (0, 1) if method == "GET" else (1,)
        for attempt in attempts:
            reused = self._conn is not None
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                break
            except (
                http.client.HTTPException, ConnectionError, socket.timeout,
                OSError,
            ) as exc:
                self._close_conn()
                if attempt:
                    # One carve-out from the no-retry-writes rule: a
                    # *reused* keep-alive connection that dies before a
                    # single response byte.  Servers half-close
                    # (``SHUT_RD``) idle keep-alives on shutdown, so
                    # zero-bytes-then-EOF on an old connection means
                    # the request was provably never read — re-sending
                    # it (against whatever now owns the port) is safe.
                    # Surfacing it as NetConnectError hands the retry
                    # decision to callers that already handle fresh
                    # connect failures, e.g. the router's write path.
                    if reused and isinstance(
                        exc,
                        (
                            http.client.RemoteDisconnected,
                            ConnectionResetError,
                            BrokenPipeError,
                        ),
                    ):
                        raise NetConnectError(
                            f"stale keep-alive connection to "
                            f"{self.host}:{self.port}: {exc}"
                        ) from exc
                    raise
        if resp.status >= 400:
            try:
                decoded = json.loads(data) if data else None
            except json.JSONDecodeError:
                decoded = None
            message = (
                decoded.get("error", data.decode("utf-8", "replace"))
                if isinstance(decoded, dict)
                else data.decode("utf-8", "replace")
            )
            raise NetError(resp.status, message)
        if raw:
            return data.decode("utf-8")
        return json.loads(data) if data else None

    def _close_conn(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def close(self) -> None:
        """Close the control connection (streams close separately)."""
        self._close_conn()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mirrored API
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health")

    def backends(self) -> dict:
        """Registered execution backends: ``{name: description}``."""
        return self._request("GET", "/backends")

    def views(self) -> dict:
        """All hosted views with their delivery stats."""
        return self._request("GET", "/views")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def create_view(
        self,
        name: str,
        source: str,
        backend: str = "rivm-batch",
        *,
        updatable=None,
        **options,
    ) -> dict:
        """Create a view from a SQL source (parsed against the server's
        catalog); ``options`` are forwarded to the backend factory."""
        payload = {"name": name, "source": source, "backend": backend}
        if updatable is not None:
            payload["updatable"] = sorted(updatable)
        if options:
            payload["options"] = options
        return self._request("POST", "/views", payload)

    def drop_view(self, name: str) -> dict:
        return self._request("DELETE", f"/views/{name}")

    def batch(self, relation: str, batch: GMR, trace=None) -> dict:
        """Stream one GMR delta batch; returns ``{seq, touched}``.

        ``trace`` (a :class:`~repro.obs.TraceContext`) is sent as the
        ``X-Repro-Trace`` header so the server joins the caller's trace
        instead of opening a new one.
        """
        extra = {TRACE_HEADER: trace.header()} if trace is not None else None
        return self._request(
            "POST", f"/batch/{relation}", encode_gmr(batch),
            extra_headers=extra,
        )

    def metrics_raw(self) -> str:
        """The server's ``/metrics`` Prometheus text exposition."""
        return self._request("GET", "/metrics", raw=True)

    def trace_recent(
        self,
        view: str | None = None,
        seq: int | None = None,
        trace_id: str | None = None,
        limit: int = 50,
    ) -> list[dict]:
        """Assembled span trees from the server's ``/trace/recent``."""
        params = [("limit", str(limit))]
        if view is not None:
            params.append(("view", view))
        if seq is not None:
            params.append(("seq", str(seq)))
        if trace_id is not None:
            params.append(("trace_id", trace_id))
        qs = "&".join(f"{k}={v}" for k, v in params)
        return self._request("GET", f"/trace/recent?{qs}")["traces"]

    def snapshot(self, name: str, consistent: bool = True) -> GMR:
        """Pull a view's contents.  ``consistent=False`` asks the
        server to skip the drain barrier for async-ingesting views and
        serve the last *flushed* state — a bounded-staleness read that
        never blocks behind the batcher (the router's replica reads)."""
        path = f"/views/{name}/snapshot"
        if not consistent:
            path += "?consistent=0"
        reply = self._request("GET", path)
        return decode_gmr(reply["snapshot"])

    def view_stats(self, name: str) -> dict:
        return self._request("GET", f"/views/{name}/stats")

    def drain(self, view: str | None = None) -> int:
        """Server-side barrier; returns the ``mark`` token broadcast on
        the drained delta streams (see ``DeltaStream.read_until_mark``)."""
        return self.drain_info(view)["mark"]

    def drain_info(self, view: str | None = None) -> dict:
        """The full ``/drain`` reply: ``mark`` (the token), ``seq`` (the
        server seq the barrier covered), ``streams`` — plus ``shards``
        (the per-shard seq vector) when the server is a cluster router."""
        payload = {"view": view} if view is not None else {}
        return self._request("POST", "/drain", payload)

    def shutdown_server(self) -> dict:
        """Ask the server to shut down cleanly."""
        reply = self._request("POST", "/shutdown")
        self._close_conn()
        return reply

    def subscribe(
        self, view: str, *, initial: bool = False,
        from_seq: int | None = None, timeout: float = 60.0
    ) -> "DeltaStream":
        """Open a push subscription on its own connection.

        ``timeout`` bounds any single blocking read on the stream; the
        server heartbeats idle streams well inside it, so a timeout
        means the server is gone, not just quiet.

        ``from_seq=N`` asks a *durable* server to first replay every
        logged delta with seq > N, then splice into the live stream
        with no gap and no duplicate — a lossless resume after a
        disconnect, restart, or a ``lagging`` drop.  Mutually exclusive
        with ``initial``.  Raises :class:`NetError` with status 400 on
        a non-durable server and 410 when N is below the server's
        resume horizon (a checkpoint truncated the log there; fall back
        to ``initial=True`` for a full snapshot).

        Any transport failure before the reply head arrives (refused,
        reset, a server closing under us) raises
        :class:`NetConnectError`: a subscription has no side effect,
        so it is always safe to retry.
        """
        path = f"/views/{view}/deltas"
        if initial:
            path += "?initial=1"
        elif from_seq is not None:
            path += f"?from_seq={int(from_seq)}"
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            conn.connect()
            conn.request("GET", path, headers=self._headers())
            resp = conn.getresponse()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise NetConnectError(
                f"cannot subscribe at {self.host}:{self.port}: {exc}"
            ) from exc
        if resp.status >= 400:
            data = resp.read()
            conn.close()
            try:
                message = json.loads(data)["error"]
            except Exception:
                message = data.decode("utf-8", "replace")
            raise NetError(resp.status, message)
        stream = DeltaStream(view, conn, resp)
        first = stream._read_envelope()
        if first.get("type") != "subscribed":
            conn.close()
            raise NetError(502, f"expected subscribed event, got {first!r}")
        return stream


class DeltaStream:
    """One push subscription: an iterator of :class:`ViewDelta` events.

    Iterating yields decoded deltas (heartbeats are skipped) until the
    server closes the stream.  :meth:`read_until_mark` consumes up to a
    drain token — the client half of the over-the-wire barrier.
    """

    def __init__(self, view: str, conn, resp):
        self.view = view
        self._conn = conn
        self._resp = resp
        self.closed_reason: str | None = None
        #: highest delta seq read from the stream — the value to pass
        #: as ``from_seq`` when resuming after a disconnect
        self.last_seq: int = 0
        #: seq to resume from, taken from a ``closed`` envelope that
        #: carried one (the server's ``lagging`` drop includes it)
        self.resume_from: int | None = None
        #: mark tokens seen while reading (in arrival order)
        self.marks: list[int] = []
        #: per-shard seq vectors of cluster-router marks, keyed by
        #: token (single-server marks carry no vector)
        self.mark_shards: dict[int, dict[str, int]] = {}
        #: the most recent heartbeat envelope read from the stream
        #: (``{"type": "heartbeat", "seq": ..., "uptime_s": ...}``) —
        #: lets an idle subscriber detect a stalled shard (``seq``
        #: frozen) or a restart (``uptime_s`` reset) without a drain
        self.last_heartbeat: dict | None = None

    def _read_envelope(self) -> dict:
        """The next raw NDJSON envelope (any type)."""
        if self.closed_reason is not None:
            raise NetError(410, f"stream closed: {self.closed_reason}")
        try:
            line = self._resp.readline()
        except (
            http.client.HTTPException, ConnectionError, OSError,
            # close() from another thread tears the response's buffer
            # out from under a blocked readline, which then surfaces as
            # AttributeError/ValueError from http.client internals.
            AttributeError, ValueError,
        ) as exc:
            self.close()
            raise NetError(499, f"stream broken: {exc}") from exc
        if not line:
            self.close()
            raise NetError(499, "stream ended without a closed event")
        envelope = json.loads(line)
        kind = envelope.get("type")
        if kind == "heartbeat":
            # Recorded centrally so every read path (iteration,
            # read_until_mark, raw envelope reads) keeps it fresh.
            self.last_heartbeat = envelope
        elif kind == "closed":
            self.closed_reason = envelope.get("reason", "")
            if envelope.get("resume_from") is not None:
                self.resume_from = envelope["resume_from"]
            self.close()
        elif kind == "delta":
            seq = envelope.get("seq") or 0
            if seq > self.last_seq:
                self.last_seq = seq
        return envelope

    def _record_mark(self, envelope: dict) -> None:
        self.marks.append(envelope["token"])
        if "shards" in envelope:
            self.mark_shards[envelope["token"]] = envelope["shards"]

    def __iter__(self):
        while True:
            try:
                envelope = self._read_envelope()
            except NetError:
                return
            kind = envelope.get("type")
            if kind == "delta":
                yield decode_delta(envelope)
            elif kind == "mark":
                self._record_mark(envelope)
            elif kind == "closed":
                return

    def read_until_mark(self, token: int) -> list[ViewDelta]:
        """Consume the stream up to (and including) mark ``token``;
        returns the deltas read on the way, in delivery order.

        Raises :class:`NetError` if the stream closes first — except
        when the close reason is ``view dropped``, where the deltas
        owed were (by the drain-then-cancel drop ordering) already
        delivered before the close, so they are returned.
        """
        deltas: list[ViewDelta] = []
        while True:
            try:
                envelope = self._read_envelope()
            except NetError:
                if self.closed_reason == "view dropped":
                    return deltas
                raise
            kind = envelope.get("type")
            if kind == "delta":
                deltas.append(decode_delta(envelope))
            elif kind == "mark":
                self._record_mark(envelope)
                if envelope["token"] >= token:
                    return deltas
            elif kind == "closed":
                if self.closed_reason == "view dropped":
                    return deltas
                raise NetError(
                    410, f"stream closed before mark: {self.closed_reason}"
                )

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:
            pass

    def __enter__(self) -> "DeltaStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = (
            f"closed: {self.closed_reason}" if self.closed_reason else "open"
        )
        return f"DeltaStream({self.view!r}, {state})"


class ResumableStream:
    """A delta iterator that survives disconnects via ``from_seq``.

    Wraps :meth:`Client.subscribe` against a *durable* server: when the
    underlying stream breaks (server restart, network drop, ``lagging``
    disconnect), it re-subscribes with ``from_seq=<highest seq seen>``
    and keeps yielding — deduping the resume overlap, so the caller
    observes every delta seq exactly once, in order, across any number
    of reconnects.

        stream = ResumableStream(client, "v")
        for delta in stream:       # seamless across server restarts
            total.add_inplace(delta.delta)

    Terminal conditions (iteration ends or raises instead of retrying):

    * the server closes with ``view dropped`` — iteration ends;
    * a non-transient reply — 400 (server not durable), 404 (unknown
      view), 410 (resume horizon passed: a checkpoint truncated the
      log; re-subscribe with ``initial=True`` for a snapshot) — raises;
    * ``max_reconnects`` consecutive failed attempts — raises the last
      error.  The budget resets every time a delta gets through.
    """

    def __init__(
        self,
        client: Client,
        view: str,
        *,
        from_seq: int = 0,
        max_reconnects: int = 8,
        reconnect_delay_s: float = 0.2,
        timeout: float = 60.0,
    ):
        self.client = client
        self.view = view
        self.last_seq = from_seq
        self.max_reconnects = max_reconnects
        self.reconnect_delay_s = reconnect_delay_s
        self.timeout = timeout
        #: reconnects performed so far (diagnostics)
        self.reconnects = 0
        self._stream: DeltaStream | None = None
        self._closed = False

    def _subscribe(self) -> DeltaStream:
        return self.client.subscribe(
            self.view, from_seq=self.last_seq, timeout=self.timeout
        )

    def __iter__(self):
        failures = 0
        while not self._closed:
            if self._stream is None:
                try:
                    self._stream = self._subscribe()
                except NetError as exc:
                    if exc.status in (400, 404, 410):
                        raise  # misconfiguration, not a blip: fail loudly
                    failures += 1
                    if failures > self.max_reconnects:
                        raise
                    self.reconnects += 1
                    time.sleep(self.reconnect_delay_s)
                    continue
            for delta in self._stream:
                if delta.seq <= self.last_seq:
                    continue  # resume overlap, already yielded
                self.last_seq = delta.seq
                failures = 0  # progress resets the reconnect budget
                yield delta
            # The inner iterator only exits on close/break of stream.
            reason = self._stream.closed_reason
            self._stream = None
            if reason == "view dropped":
                return
            failures += 1
            if failures > self.max_reconnects:
                raise NetError(
                    499,
                    f"stream to {self.view!r} lost after "
                    f"{self.max_reconnects} reconnect attempts "
                    f"(last close: {reason!r})",
                )
            self.reconnects += 1
            time.sleep(self.reconnect_delay_s)

    def close(self) -> None:
        self._closed = True
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "ResumableStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ResumableStream({self.view!r}, last_seq={self.last_seq}, "
            f"reconnects={self.reconnects})"
        )
