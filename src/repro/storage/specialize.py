"""Automatic index selection (paper §5.2.1).

The compiler's access-pattern analysis records, per materialized view,
which column combinations are used for point lookups (``get``) and
which for index scans (``slice``).  ``build_storage`` turns that into
one :class:`RecordPool` per view: the unique full-key index always
exists (it is how ``update`` finds records), and one non-unique hash
index is created per distinct slice combination.  Views that are only
ever scanned get no secondary indexes at all — matching the paper's
observation that most TPC-H views need zero or one secondary index.
"""

from __future__ import annotations

from repro.compiler.access import AccessPattern, analyze_access_patterns
from repro.compiler.ir import TriggerProgram
from repro.storage.pool import RecordPool, Tracer


def build_storage(
    program: TriggerProgram,
    tracer: Tracer | None = None,
    enable_indexes: bool = True,
) -> dict[str, RecordPool]:
    """Create specialized record pools for every view of a program.

    ``enable_indexes=False`` suppresses all non-unique (slice) indexes
    so slices degrade to full scans — the index-specialization ablation
    (``harness.specialization_ablation``).
    """
    patterns = analyze_access_patterns(program)
    pools: dict[str, RecordPool] = {}
    for info in program.views.values():
        pat = patterns.get(info.name)
        if enable_indexes:
            slice_indexes = _choose_slice_indexes(info.cols, pat)
        else:
            slice_indexes = ()
        pools[info.name] = RecordPool(
            info.cols, slice_indexes=slice_indexes, tracer=tracer
        )
    return pools


def _choose_slice_indexes(
    cols: tuple[str, ...], pat: AccessPattern | None
) -> tuple[tuple[str, ...], ...]:
    if pat is None:
        return ()
    chosen: list[tuple[str, ...]] = []
    for bound in sorted(pat.slices, key=sorted):
        ordered = tuple(c for c in cols if c in bound)
        if ordered and ordered not in chosen:
            chosen.append(ordered)
    return tuple(chosen)
