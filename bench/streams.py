"""Sliding-window update streams, generated from ``--seed``.

The TPC-H refresh shape: steady step *i* inserts chunk *W+i* of a
pre-generated row pool and deletes chunk *i* in the same batch (a ΔR
with both signs, paper footnote 3).  After the W-chunk warm-up the
state size is constant, so a fixed-length run does the same work per
batch on a slow and on a fast commit, the pool can be cycled for as
long as a run lasts, and the reference evaluator only ever has to
evaluate the live window.

Every step carries a *marker*: a row whose group key in the probe view
no other live row shares, so the first delta naming that key dates the
step's arrival at the subscriber without relying on sequence numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ring import GMR

from spans import tuples_of


@dataclass
class Step:
    """One unit of load: the batches sent back to back, their tuple
    count, and the ``(view, key)`` whose delta proves delivery."""

    batches: tuple
    tuples: int
    marker: tuple


@dataclass
class Stream:
    #: rows the in-process workloads ``load()`` before creating views
    static: dict[str, list[tuple]]
    #: insert-only batches that fill the window (and stream the rows
    #: marker keys join with); sent before anything is timed
    warmup: list[tuple[str, GMR]]
    #: one cycle of steady steps; step ``i`` is ``steps[i % len(steps)]``
    steps: list[Step]
    window: int
    #: per rotation slot, the relations sent together in one step
    slots: list[tuple[str, ...]]
    chunks: dict[str, list[list[tuple]]]
    #: rows streamed during warm-up that never leave
    fixed: dict[str, list[tuple]] = field(default_factory=dict)

    def step(self, i: int) -> Step:
        return self.steps[i % len(self.steps)]

    def base_after(self, n_steps: int, drop_chunk: bool = False) -> dict[str, GMR]:
        """Contents of every relation after warm-up plus ``n_steps``
        steady steps — the input of the reference evaluation.
        ``drop_chunk`` leaves one live chunk out (the negative test)."""
        base: dict[str, GMR] = {}
        for rel, rows in list(self.static.items()) + list(self.fixed.items()):
            g = base.setdefault(rel, GMR())
            for row in rows:
                g.add_tuple(row, 1)
        n_slots = len(self.slots)
        for slot, rels in enumerate(self.slots):
            done = (n_steps - slot + n_slots - 1) // n_slots
            for rel in rels:
                pool = self.chunks[rel]
                g = base.setdefault(rel, GMR())
                live = range(done, done + self.window)
                for c in live[1:] if drop_chunk else live:
                    for row in pool[c % len(pool)]:
                        g.add_tuple(row, 1)
                drop_chunk = False
        return base


def _build(static, fixed, chunks, slots, markers, window, warm_batches):
    """Assemble warm-up batches and one cycle of steady steps."""
    pool_len = len(next(iter(chunks.values())))
    warmup: list[tuple[str, GMR]] = []
    for rel, rows in fixed.items():
        warmup.append((rel, GMR.from_pairs((r, 1) for r in rows)))
    per = max(1, window // warm_batches)
    for lo in range(0, window, per):
        for rels in slots:
            for rel in rels:
                rows = [r for c in chunks[rel][lo:min(lo + per, window)]
                        for r in c]
                warmup.append((rel, GMR.from_pairs((r, 1) for r in rows)))
    steps: list[Step] = []
    for i in range(pool_len):
        for slot, rels in enumerate(slots):
            batches = []
            for rel in rels:
                pool = chunks[rel]
                pairs = [(r, 1) for r in pool[(window + i) % pool_len]]
                pairs += [(r, -1) for r in pool[i]]
                batches.append((rel, GMR.from_pairs(pairs)))
            steps.append(Step(
                tuple(batches),
                sum(tuples_of(b) for _, b in batches),
                markers[slot][(window + i) % pool_len],
            ))
    return Stream(static, warmup, steps, window, slots, chunks, fixed)


# ----------------------------------------------------------------------
# TPC-H: ORDERS + LINEITEM refresh pairs
# ----------------------------------------------------------------------
def tpch_stream(seed: int, *, window: int, pool: int, orders: int,
                lines: int, with_orders: bool, probe_view: str,
                customers: int = 1500, warm_batches: int = 10) -> Stream:
    """Chunk *c* holds ``orders`` new orders (okeys ``c*orders ...``)
    with ``lines`` lineitems each.  The chunk's first order is the
    marker: its customer, order date and ship dates pass Q3's filters,
    so the probe view's delta for the step names its okey."""
    rng = random.Random(seed)
    customer = [
        (k, rng.randrange(25), rng.randrange(5), rng.randint(-999, 9999),
         rng.randint(10, 34))
        for k in range(customers)
    ]
    segment_one = [row[0] for row in customer if row[2] == 1]
    o_chunks, l_chunks, markers = [], [], []
    for c in range(pool):
        o_rows, l_rows = [], []
        for j in range(orders):
            okey = c * orders + j
            marker = j == 0
            o_rows.append((
                okey,
                rng.choice(segment_one) if marker else rng.randrange(customers),
                600 if marker else rng.randint(0, 2554),
                rng.randrange(5), rng.randrange(2),
            ))
            for _ in range(lines):
                qty = rng.randint(1, 50)
                l_rows.append((
                    okey, rng.randrange(2000), rng.randrange(100), qty,
                    qty * rng.randint(900, 2100), rng.randint(0, 10),
                    1800 if marker else rng.randint(0, 2554),
                    rng.randrange(3), rng.randrange(2), rng.randrange(7),
                ))
        o_chunks.append(o_rows)
        l_chunks.append(l_rows)
        markers.append((probe_view, (c * orders,)))
    if with_orders:
        chunks = {"ORDERS": o_chunks, "LINEITEM": l_chunks}
        slots = [("ORDERS", "LINEITEM")]
        static = {"CUSTOMER": customer}
    else:
        chunks = {"LINEITEM": l_chunks}
        slots = [("LINEITEM",)]
        static = {}
    return _build(static, {}, chunks, slots, [markers], window, warm_batches)


# ----------------------------------------------------------------------
# Micro schema: R(a,b), S(b,c), T(a,d)
# ----------------------------------------------------------------------
#: marker values sit far outside the random domains
_MARK = {"R": 10_000, "S": 20_000, "T": 30_000}


def rst_stream(seed: int, *, relations: tuple[str, ...], window: int,
               pool: int, rows: int, probes: dict[str, str],
               warm_batches: int = 4) -> Stream:
    """One relation per step, in rotation.  ``probes[rel]`` names the
    view whose delta carries the marker of an ``rel`` step.

    An R step's marker row is ``(1, 10000+c)``: S holds ``(10000+c, 1)``
    from warm-up on, so a view grouping the R⋈S join by ``b`` emits a
    delta for that key alone.  S steps mirror it (``(20000+c, 1)``
    against a fixed R row), and a T step's ``(1, 30000+c)`` joins the
    fixed R rows on ``a`` for views grouping by ``d``."""
    rng = random.Random(seed)
    domains = {
        "R": lambda: (rng.randint(1, 50), rng.randint(1, 80)),
        "S": lambda: (rng.randint(1, 80), rng.randint(1, 10)),
        "T": lambda: (rng.randint(1, 50), rng.randint(1, 20)),
    }
    marker_row = {
        "R": lambda c: (1, _MARK["R"] + c),
        "S": lambda c: (_MARK["S"] + c, 1),
        "T": lambda c: (1, _MARK["T"] + c),
    }
    marker_key = {
        "R": lambda c: (_MARK["R"] + c,),
        "S": lambda c: (_MARK["S"] + c,),
        "T": lambda c: (_MARK["T"] + c,),
    }
    chunks = {
        rel: [
            [marker_row[rel](c)] + [domains[rel]() for _ in range(rows - 1)]
            for c in range(pool)
        ]
        for rel in relations
    }
    fixed = {
        "S": [(_MARK["R"] + c, 1) for c in range(pool)],
        "R": [(1, _MARK["S"] + c) for c in range(pool)],
    }
    markers = [
        [(probes[rel], marker_key[rel](c)) for c in range(pool)]
        for rel in relations
    ]
    slots = [(rel,) for rel in relations]
    return _build({}, fixed, chunks, slots, markers, window, warm_batches)
