"""The worker process of the process-parallel backend.

Each worker owns one hash partition of every Dist-tagged view (plus
full copies of Replicated temporaries), rebuilt locally: the startup
payload is a picklable :class:`~repro.parallel.protocol.WorkerTask`,
the worker re-runs the distributed compiler on the spec, verifies the
program fingerprint against the coordinator's, and lowers its own
compile-once pipelines.  No closures ever cross the pipe.

GMR contents arrive and leave as tagged payloads (see ``protocol``):
inline GMRs on the pickle data plane, shared-memory block descriptors
on the shm plane.  The worker only ever *attaches* to segments — the
coordinator creates and unlinks every one, so a worker crash cannot
leak shared memory — and caches attachments by name, making repeat
descriptors for a recycled segment free.

The loop executes its pipe strictly in order, and only *replying*
commands (``block``, ``read``, ``view``, ``dump``, ``sync``, ``stop``)
send anything back; pure writes (``delta``, ``install``, ``store``,
``clear``, ``reset``) are silent, which lets the coordinator pipeline a
whole batch of commands and drain replies only at genuine data
dependencies.  Any exception is reported in-band as an ``err`` reply
carrying the formatted traceback — the coordinator treats that as a
deterministic program error and poisons the backend (a restart would
just hit it again), unlike process death, which is survivable via
journal replay.
"""

from __future__ import annotations

import time
import traceback

from repro.distributed.program import apply_store
from repro.metrics import Counters
from repro.parallel.protocol import decode_payload, encode_reply
from repro.storage.pool import SegmentAttacher


def _build_state(task):
    """Compile the worker's program and evaluation pipeline locally."""
    # Imports happen inside the worker so a spawn-started process pulls
    # in the full package (including the scalar-function registry that
    # workload modules populate at import time) before compiling.
    import repro.workloads  # noqa: F401  (registers scalar functions)
    from repro.compiler.plancache import compile_program
    from repro.distributed import compile_distributed
    from repro.eval import CompiledEvaluator, Database, Evaluator
    from repro.parallel.protocol import program_fingerprint

    spec = task.spec
    program = compile_distributed(
        spec.query,
        name=spec.name,
        key_hints=spec.key_hints,
        updatable=spec.updatable,
        opt_level=task.opt_level,
    )
    got = program_fingerprint(program)
    if got != task.fingerprint:
        raise RuntimeError(
            f"worker {task.index} compiled a different program than the "
            f"coordinator (fingerprint {got[:12]} != "
            f"{task.fingerprint[:12]}); coordinator and workers must run "
            "the same code version"
        )
    db = Database()
    counters = Counters()
    if task.use_compiled:
        evaluator = CompiledEvaluator(db, counters, plans=compile_program(program))
    else:
        evaluator = Evaluator(db, counters)
    return program, db, evaluator, counters


def _counters_delta(before: dict, after: dict) -> Counters:
    out = Counters()
    for name in before:
        if name == "virtual_instructions":
            continue
        setattr(out, name, after[name] - before[name])
    return out


def worker_main(conn, task) -> None:
    """Entry point of one worker process (fork- and spawn-safe)."""
    try:
        program, db, evaluator, counters = _build_state(task)
    except Exception:
        try:
            conn.send(("err", traceback.format_exc()))
        finally:
            conn.close()
        return
    attacher = SegmentAttacher()
    conn.send(("ok", "ready"))

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # coordinator went away; daemon exit
        try:
            kind = msg[0]
            if kind == "stop":
                conn.send(("ok", None))
                break
            elif kind == "block":
                _, relation, block_index = msg
                before = counters.snapshot()
                # CPU time, not wall: on an oversubscribed box a worker's
                # wall clock counts time it spent scheduled out, which
                # would corrupt the coordinator's critical-path estimate.
                start = time.process_time()
                block = program.triggers[relation].blocks[block_index]
                for stmt in block.statements:
                    counters.statements_executed += 1
                    value = evaluator.evaluate(stmt.expr)
                    apply_store(db, stmt.target, stmt.op, stmt.scope, value)
                busy_s = time.process_time() - start
                conn.send(
                    ("ok",
                     (_counters_delta(before, counters.snapshot()), busy_s))
                )
            elif kind == "delta":
                db.set_delta(msg[1], decode_payload(msg[2], attacher))
            elif kind == "install":
                db.set_view(msg[1], decode_payload(msg[2], attacher))
            elif kind == "store":
                _, target, op, scope, payload = msg
                value = decode_payload(payload, attacher)
                apply_store(db, target, op, scope, value)
            elif kind == "read":
                _, name, is_delta, reply_spec = msg
                gmr = db.get_delta(name) if is_delta else db.get_view(name)
                conn.send(("ok", encode_reply(gmr, reply_spec, attacher)))
            elif kind == "view":
                _, name, reply_spec = msg
                conn.send(
                    ("ok", encode_reply(db.get_view(name), reply_spec, attacher))
                )
            elif kind == "clear":
                db.clear_deltas()
            elif kind == "dump":
                # Checkpoint: always inline — pickling a full dump is
                # off the fast path, and the coordinator stores it as
                # plain GMRs anyway.
                conn.send(("ok", dict(db.views)))
            elif kind == "reset":
                db.clear()
            elif kind == "sync":
                conn.send(("ok", None))
            else:
                raise ValueError(f"unknown worker command {kind!r}")
        except Exception:
            try:
                conn.send(("err", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
    attacher.close()
    conn.close()
