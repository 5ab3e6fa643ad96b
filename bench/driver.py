"""The load generator: phases, validity guards, reference check.

One thread sends steps.  A closed loop sends the next step when the
previous one is acked; the open loop sends on a fixed schedule and
times everything from the moment a step was *due*, so a stall is
charged to every step it delays.  A second thread (a second connection)
reads consistent snapshots beside the open-loop writes.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.eval import Database, Evaluator
from repro.obs import TraceContext

from sut import BenchError

_clock = time.perf_counter

#: consistent snapshots per second beside the writes
SNAPSHOT_HZ = 4.0
#: A timed phase is cut into slices of at least this many seconds and
#: every rate or percentile is reported as the median over its slices.
#: On the shared 2-vCPU host the ledger was defined on, the CPU slows
#: by 20-70% in bursts of 0.5-3 s; a whole-phase mean moves with however
#: many bursts a run caught, the median slice much less.
SLICE_S = 1.0
#: fewest probes a slice needs for its p90 to mean anything
SLICE_PROBES = 20


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples for a percentile")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class Phase:
    """What one timed phase measured."""

    start: float = 0.0
    end: float = 0.0
    first_step: int = 0
    steps: int = 0
    tuples: int = 0
    batches: int = 0
    cpu_s: float = 0.0
    failed_sends: int = 0
    post_s: list = field(default_factory=list)
    #: how late the generator itself started a send it was free to make
    sched_lag_s: list = field(default_factory=list)
    #: send start minus due time: the backlog, in seconds
    due_lag_s: list = field(default_factory=list)
    snapshot_s: list = field(default_factory=list)
    failed_snapshots: int = 0
    #: closed loop only: ``(wall seconds, CPU seconds, tuples)`` per slice
    slices: list = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.end - self.start


def _trace(tag: str, index: int, traced: bool):
    """The batch identifier a traced run sends along with step ``index``
    through the public ``trace=`` argument."""
    return TraceContext(f"{tag}{index:x}", "load") if traced else None


def closed_loop(sut, stream, first_step: int, seconds: float, *, tag: str,
                traced: bool, snapshot_view: str | None = None,
                until=None) -> Phase:
    """Send steps back to back for ``seconds`` (then on until
    ``until(steps_sent)`` holds), close with the barrier.

    With ``snapshot_view`` the same thread also reads a snapshot every
    ``1/SNAPSHOT_HZ`` seconds — the one-thread in-process workloads.
    """
    phase = Phase(first_step=first_step)
    collector = sut.collector
    index = first_step
    next_snapshot = 1.0 / SNAPSHOT_HZ
    cpu0 = slice_cpu = sut.cpu_s()
    phase.start = start = slice_start = _clock()
    slice_tuples = 0
    deadline = start + seconds
    while True:
        now = _clock()
        if now >= deadline and (until is None or until(index - first_step)):
            break
        step = stream.step(index)
        collector.arm(index, step.marker, now)
        try:
            sut.send(step, _trace(tag, index, traced))
        except Exception:  # noqa: BLE001 - counted; the check decides
            phase.failed_sends += 1
        done = _clock()
        phase.post_s.append(done - now)
        phase.tuples += step.tuples
        phase.batches += len(step.batches)
        index += 1
        slice_tuples += step.tuples
        if done - slice_start >= SLICE_S:
            cpu = sut.cpu_s()
            phase.slices.append(
                (done - slice_start, cpu - slice_cpu, slice_tuples)
            )
            slice_start, slice_cpu, slice_tuples = _clock(), cpu, 0
        if snapshot_view is not None and done - start >= next_snapshot:
            next_snapshot += 1.0 / SNAPSHOT_HZ
            _timed_snapshot(sut, snapshot_view, phase)
    sut.barrier()
    phase.end = _clock()
    phase.cpu_s = sut.cpu_s() - cpu0
    phase.steps = index - first_step
    if not phase.slices:  # a smoke-length phase is its own only slice
        phase.slices.append((phase.elapsed, phase.cpu_s, phase.tuples))
    return phase


def _timed_snapshot(sut, view: str, phase: Phase) -> None:
    t0 = _clock()
    try:
        sut.snapshot(view)
    except Exception:  # noqa: BLE001 - counted
        phase.failed_snapshots += 1
    else:
        phase.snapshot_s.append(_clock() - t0)


def open_loop(sut, stream, first_step: int, seconds: float, rate: float, *,
              tag: str, traced: bool, snapshot_view: str) -> Phase:
    """Send ``rate`` steps per second on a fixed schedule for
    ``seconds``; a second thread reads snapshots beside the writes."""
    phase = Phase(first_step=first_step)
    collector = sut.collector
    interval = 1.0 / rate
    n_steps = max(1, int(seconds * rate))
    stop = threading.Event()

    def read_snapshots() -> None:
        tick = 1.0 / SNAPSHOT_HZ
        due = _clock() + tick
        while not stop.wait(max(0.0, due - _clock())):
            _timed_snapshot(sut, snapshot_view, phase)
            due += tick

    reader = threading.Thread(target=read_snapshots, name="snapshots")
    cpu0 = sut.cpu_s()
    phase.start = start = _clock()
    reader.start()
    try:
        free_at = start
        for i in range(n_steps):
            due = start + i * interval
            delay = due - _clock()
            if delay > 0:
                time.sleep(delay)
            index = first_step + i
            step = stream.step(index)
            collector.arm(index, step.marker, due)
            now = _clock()
            phase.sched_lag_s.append(now - max(due, free_at))
            phase.due_lag_s.append(now - due)
            try:
                sut.send(step, _trace(tag, index, traced))
            except Exception:  # noqa: BLE001 - counted
                phase.failed_sends += 1
            free_at = _clock()
            phase.post_s.append(free_at - now)
            phase.tuples += step.tuples
            phase.batches += len(step.batches)
    finally:
        stop.set()
        reader.join()
    sut.barrier()
    phase.end = _clock()
    phase.cpu_s = sut.cpu_s() - cpu0
    phase.steps = n_steps
    _check_open_loop(phase, interval)
    return phase


def _check_open_loop(phase: Phase, interval: float) -> None:
    """Refuse to report latency from an open loop that was not one."""
    lag_p99 = percentile(phase.sched_lag_s, 99)
    if lag_p99 > interval:
        raise BenchError(
            f"load generator ran late: sched_lag p99 {lag_p99 * 1e3:.2f} ms "
            f"exceeds one batch interval ({interval * 1e3:.2f} ms)"
        )
    tail = phase.due_lag_s[-max(1, len(phase.due_lag_s) // 5):]
    backlog = statistics.median(tail)
    # Under a second of tail (a smoke-length phase) cannot tell a
    # backlog from one hiccup of the host.
    if backlog > interval and len(tail) * interval >= 1.0:
        raise BenchError(
            f"backlog still growing at the end of the open loop: the last "
            f"fifth of the sends started {backlog * 1e3:.2f} ms after they "
            f"were due (interval {interval * 1e3:.2f} ms) — lower the rate"
        )


def freshness_ms(collector, phase: Phase) -> list[list[float]]:
    """Due time → first delta naming the marker, for every step of
    ``phase``, grouped into slices by due time (each at least
    ``SLICE_S`` long and ``SLICE_PROBES`` probes)."""
    lo, hi = phase.first_step, phase.first_step + phase.steps
    probes = sorted(
        (due, (seen - due) * 1e3)
        for index, due, seen in collector.seen
        if lo <= index < hi
    )
    slices: list[list[float]] = []
    current: list[float] = []
    opened = probes[0][0] if probes else 0.0
    for due, value in probes:
        if len(current) >= SLICE_PROBES and due - opened >= SLICE_S:
            slices.append(current)
            current, opened = [], due
        current.append(value)
    if len(current) >= SLICE_PROBES or not slices:
        slices.append(current)
    else:
        slices[-1].extend(current)
    return slices


def median_over(slices, fn) -> float:
    """Median over slices of ``fn(slice)``."""
    if not slices:
        raise BenchError("the phase was too short to cut into slices")
    return statistics.median(fn(s) for s in slices)


# ----------------------------------------------------------------------
# Reference check
# ----------------------------------------------------------------------
def check_views(snapshot, specs: dict, base: dict, acc=None) -> list[str]:
    """Names of views whose ``snapshot(name)`` (and, given ``acc``,
    whose accumulated deltas) differ from the interpreted evaluator's
    result over ``base``."""
    db = Database()
    for rel, contents in base.items():
        db.set_view(rel, contents)
    evaluator = Evaluator(db)
    wrong = []
    results: dict[int, object] = {}  # views sharing one spec object
    for name, spec in specs.items():
        expected = results.get(id(spec))
        if expected is None:
            expected = results[id(spec)] = evaluator.evaluate(spec.query)
        ok = snapshot(name) == expected
        if ok and acc is not None:
            ok = acc[name] == expected
        if not ok:
            wrong.append(name)
    return wrong
