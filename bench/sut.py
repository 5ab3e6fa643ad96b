"""Systems under test: an in-process ``ViewService`` or server processes.

Both expose what the driver needs — ``send`` a step, ``snapshot`` a
view, a ``barrier`` after which every delta owed has reached the
collector, CPU and RSS of the processes doing the work — and feed every
delta they deliver to one :class:`Collector`.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request

from repro.net import Client, NetError
from repro.ring import GMR
from repro.service import ViewService

HERE = os.path.dirname(os.path.abspath(__file__))
_TICK = os.sysconf("SC_CLK_TCK")
#: how long a server may take to print its address and answer /health
START_DEADLINE_S = 60.0
#: how long a drain mark may take to reach every stream
MARK_DEADLINE_S = 60.0


class BenchError(RuntimeError):
    """The run is invalid (a server died, a barrier never completed, a
    validity guard tripped): the command exits non-zero."""


# ----------------------------------------------------------------------
# Delta collection
# ----------------------------------------------------------------------
class Collector:
    """Accumulates every delivered delta per view and dates markers.

    ``arm`` is called by the generator just before it sends a step;
    ``on_delta`` by whatever delivers deltas (the subscriber callback
    in-process, one reader thread per stream otherwise).  Single dict
    operations are atomic under the GIL, which is all the two sides
    share.
    """

    def __init__(self, views, probe_views, drop_nth_delta: int | None = None,
                 log_views=()):
        self.acc: dict[str, GMR] = {v: GMR() for v in views}
        self.pending: dict[str, dict] = {v: {} for v in probe_views}
        #: ``(step index, due time, seen time)`` of every dated marker
        self.seen: list[tuple] = []
        #: per logged view, every ``(seq, delta)`` as delivered — what a
        #: ``from_seq`` replay of the same seqs must add up to
        self.log: dict[str, list] = {v: [] for v in log_views}
        self.deltas = 0
        self._drop = drop_nth_delta

    def arm(self, step_index: int, marker, due: float) -> None:
        view, key = marker
        self.pending[view][key] = (step_index, due)

    def on_delta(self, view: str, delta: GMR, seq: int = 0) -> None:
        now = time.perf_counter()
        self.deltas += 1
        if self.deltas != self._drop:  # the negative test loses one
            self.acc[view].add_inplace(delta)
        log = self.log.get(view)
        if log is not None:
            log.append((seq, delta))
        pending = self.pending.get(view)
        if pending:
            for key in delta.data:
                hit = pending.pop(key, None)
                if hit is not None:
                    self.seen.append((hit[0], hit[1], now))

    def undelivered(self) -> int:
        return sum(len(p) for p in self.pending.values())


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of one process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        fields = f.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ----------------------------------------------------------------------
# In-process
# ----------------------------------------------------------------------
class InprocSut:
    """A ``ViewService`` hosted by the load generator itself."""

    n_processes = 1
    #: span dumps of other processes: none, the recorder is our own
    dumps: tuple = ()

    def __init__(self, views, catalog, stream, collector: Collector,
                 counters=None):
        self.collector = collector
        self.svc = ViewService(catalog=catalog, sharing=True)
        for rel, rows in stream.static.items():
            self.svc.load(rel, rows)
        deliver = lambda event: collector.on_delta(event.view, event.delta)
        for name, source, options in views:
            if counters is not None:
                options = dict(options, counters=counters)
            self.svc.create_view(name, source, **options)
            self.svc.subscribe(name, deliver)
        for rel, batch in stream.warmup:
            self.svc.on_batch(rel, batch)

    def send(self, step, trace=None) -> None:
        for rel, batch in step.batches:
            self.svc.on_batch(rel, batch, trace=trace)

    def snapshot(self, view: str) -> GMR:
        return self.svc.snapshot(view)

    def barrier(self) -> None:
        self.svc.drain()

    def cpu_s(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(os.getpid())

    def programs(self) -> int:
        return self.svc.maintenance_programs()

    def shared_nodes(self) -> int:
        return len(self.svc.dag_dump()["nodes"])

    def scrape(self) -> dict[str, float]:
        return {}

    def collect_spans(self) -> None:
        pass

    def close(self) -> None:
        for name in self.svc.views():
            self.svc.drop_view(name)


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
class ServerProc:
    """One ``repro`` CLI process started through ``shim.py``.

    The address is read from the line the CLI prints once it is bound
    (``--port 0``: the kernel picks a free port, nothing to race for),
    then ``/health`` is polled to a deadline — no fixed sleeps.
    """

    _ADDRESS = re.compile(r"serving .*on http://([\d.]+):(\d+)")

    def __init__(self, name: str, cli_args: list[str], workdir: str,
                 role: str, traced: bool):
        self.name = name
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.spans_path = (
            os.path.join(workdir, f"{name}.spans.json") if traced else None
        )
        argv = [sys.executable, os.path.join(HERE, "shim.py")]
        if traced:
            argv += ["--role", role, "--spans", self.spans_path]
        argv += ["--", *cli_args]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self._log = open(self.log_path, "wb")
        self.popen = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=workdir,
        )
        self.pid = self.popen.pid
        self.host, self.port = self._await_address()
        self._await_health()

    def _output(self) -> str:
        with open(self.log_path, "rb") as f:
            return f.read().decode("utf-8", "replace")

    def _await_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_DEADLINE_S
        while time.monotonic() < deadline:
            if self.popen.poll() is not None:
                raise BenchError(
                    f"{self.name} exited with {self.popen.returncode} "
                    f"before serving:\n{self._output()[-2000:]}"
                )
            match = self._ADDRESS.search(self._output())
            if match:
                return match.group(1), int(match.group(2))
            time.sleep(0.005)
        self.kill()
        raise BenchError(f"{self.name} never printed its address")

    def _await_health(self) -> None:
        deadline = time.monotonic() + START_DEADLINE_S
        while time.monotonic() < deadline:
            try:
                with Client(self.host, self.port, timeout=5.0) as c:
                    if c.health().get("status") == "ok":
                        return
            except (NetError, OSError):
                pass
            time.sleep(0.005)
        self.kill()
        raise BenchError(f"{self.name} never answered /health")

    def dump_spans(self) -> dict | None:
        """Ask the shim for its spans (SIGUSR1) and read them back."""
        if self.spans_path is None or self.popen.poll() is not None:
            return None
        if os.path.exists(self.spans_path):
            os.remove(self.spans_path)
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.monotonic() + START_DEADLINE_S
        while time.monotonic() < deadline:
            if os.path.exists(self.spans_path):
                with open(self.spans_path, encoding="utf-8") as f:
                    return json.load(f)
            time.sleep(0.01)
        raise BenchError(f"{self.name} never dumped its spans")

    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Stop the process and wait until it has ended."""
        if self.popen.poll() is None:
            try:
                os.kill(self.pid, sig)
                self.popen.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
            except ProcessLookupError:
                self.popen.wait()
        self._log.close()


class ServedSut:
    """Views hosted by server processes, driven over HTTP.

    ``front`` is the process clients talk to (the server, or the
    router); ``procs`` are all processes whose CPU and RSS count.
    """

    def __init__(self, procs: list[ServerProc], front: ServerProc,
                 views, stream, collector: Collector, workdir: str):
        self.procs = procs
        self.front = front
        self.workdir = workdir
        self.collector = collector
        self.views = list(views)
        self.errors: list[BaseException] = []
        self.n_processes = len(procs)
        self.client = Client(front.host, front.port, timeout=60.0)
        #: the second connection: snapshots beside the writes
        self.reader = Client(front.host, front.port, timeout=60.0)
        self.streams: dict = {}
        self.threads: list[threading.Thread] = []
        #: span dumps pulled out of the server processes
        self.dumps: list[dict] = []
        try:
            self._subscribe()
            for rel, batch in stream.warmup:
                self.client.batch(rel, batch)
            self.barrier()
        except BaseException:
            self.close()
            raise

    def _subscribe(self) -> None:
        for view in self.views:
            stream = self.client.subscribe(view, initial=True, timeout=120.0)
            self.streams[view] = stream
            thread = threading.Thread(
                target=self._read, args=(view, stream), daemon=True,
                name=f"reader:{view}",
            )
            self.threads.append(thread)
            thread.start()

    def _read(self, view: str, stream) -> None:
        try:
            for delta in stream:
                self.collector.on_delta(view, delta.delta, delta.seq)
        except Exception as exc:  # noqa: BLE001 - reported by barrier()
            self.errors.append(exc)

    def send(self, step, trace=None) -> None:
        for rel, batch in step.batches:
            self.client.batch(rel, batch, trace=trace)

    def snapshot(self, view: str) -> GMR:
        return self.reader.snapshot(view)

    def barrier(self) -> None:
        """Drain, then wait until every stream has read the mark: all
        deltas owed are in the collector."""
        token = self.client.drain()
        deadline = time.monotonic() + MARK_DEADLINE_S
        for view, stream in self.streams.items():
            while token not in stream.marks:
                if self.errors:
                    raise BenchError(f"stream reader failed: {self.errors[0]!r}")
                if stream.closed_reason is not None:
                    raise BenchError(
                        f"stream {view!r} closed: {stream.closed_reason}"
                    )
                if time.monotonic() > deadline:
                    raise BenchError(
                        f"stream {view!r} never saw drain mark {token}"
                    )
                time.sleep(0.0005)

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(p.pid) for p in self.procs)

    def peak_rss_mb(self) -> float:
        return max(proc_peak_rss_mb(p.pid) for p in self.procs)

    def _dag(self, proc: ServerProc) -> dict:
        url = f"http://{proc.host}:{proc.port}/views?dag=1"
        with urllib.request.urlopen(url, timeout=30.0) as reply:
            return json.load(reply)["dag"]

    def _servers(self) -> list[ServerProc]:
        return [p for p in self.procs if p is not self.front] or [self.front]

    def programs(self) -> int:
        return sum(self._dag(p)["maintenance_programs"] for p in self._servers())

    def shared_nodes(self) -> int:
        return sum(len(self._dag(p)["nodes"]) for p in self._servers())

    def scrape(self) -> dict[str, float]:
        """``/metrics`` of the front process, summed over labels (the
        router's page already merges its shards')."""
        from repro.obs import parse_prometheus

        totals: dict[str, float] = {}
        for sample in parse_prometheus(self.client.metrics_raw()):
            totals[sample.name] = totals.get(sample.name, 0.0) + sample.value
        return totals

    def collect_spans(self) -> None:
        """Pull span dumps out of the live processes (before a kill)."""
        for proc in self.procs:
            dump = proc.dump_spans()
            if dump is not None:
                self.dumps.append(dump)

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Stop every process, then the stream readers.  In that order:
        a reader blocked in ``readline`` does not notice its own side
        closing the socket, but returns at once on the server's EOF."""
        for proc in self.procs:
            proc.kill(sig)
        for stream in self.streams.values():
            stream.close()
        for thread in self.threads:
            thread.join(timeout=10)
        self.streams.clear()
        self.threads.clear()

    def close(self) -> None:
        self.stop()
        self.client.close()
        self.reader.close()


def make_workdir(root: str) -> str:
    """A fresh directory under the checkout for logs, WALs and dumps
    (the benchmark writes nowhere else)."""
    path = os.path.join(root, f"run-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
