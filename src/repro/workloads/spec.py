"""Query specification metadata shared by both workloads."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.query.ast import Expr


@dataclass
class QuerySpec:
    """One benchmark query: its algebra, metadata, and streaming setup.

    ``notes`` records how the query was adapted from the original SQL
    (single aggregate, integer-coded categories, substitutions for
    MIN/MAX or OUTER JOIN).  The adaptations keep each query's join
    graph, nesting and update relations — the structural properties
    the paper's evaluation studies.
    """

    name: str
    query: Expr
    #: relations that receive update streams (others are static)
    updatable: frozenset[str]
    #: per-relation key columns, decreasing cardinality (Section 6.2)
    key_hints: dict[str, tuple[str, ...]] = field(default_factory=dict)
    notes: str = ""

    def __repr__(self) -> str:
        return f"QuerySpec({self.name})"


def as_query_spec(
    source,
    *,
    name: str | None = None,
    catalog: dict[str, tuple[str, ...]] | None = None,
    updatable: frozenset[str] | None = None,
    key_hints: dict[str, tuple[str, ...]] | None = None,
) -> QuerySpec:
    """Coerce any view definition into a :class:`QuerySpec`.

    This is the single creation path shared by the backend registry,
    the view service, and the harness.  ``source`` may be:

    * a :class:`QuerySpec` — returned as-is (renamed/re-scoped via
      :func:`dataclasses.replace` when ``name``/``updatable`` are given);
    * a query-algebra :class:`~repro.query.ast.Expr`;
    * a SQL string, parsed against ``catalog`` (table name -> column
      names).

    ``updatable`` defaults to every base relation the query references,
    so ad-hoc views receive triggers for all their inputs.
    """
    if isinstance(source, QuerySpec):
        changes = {}
        if name is not None and name != source.name:
            changes["name"] = name
        if updatable is not None and updatable != source.updatable:
            changes["updatable"] = frozenset(updatable)
        if key_hints is not None:
            changes["key_hints"] = dict(key_hints)
        return replace(source, **changes) if changes else source

    if isinstance(source, str):
        from repro.query.sqlfront import sql_to_spec

        if catalog is None:
            raise TypeError(
                "a SQL view definition needs a catalog (table name -> "
                "column names); pass catalog=... or register the tables "
                "with the service first"
            )
        return sql_to_spec(
            name or "ADHOC", source, catalog,
            updatable=updatable, key_hints=key_hints,
        )

    if isinstance(source, Expr):
        from repro.query.schema import base_relations

        if updatable is None:
            updatable = base_relations(source)
        return QuerySpec(
            name=name or "ADHOC",
            query=source,
            updatable=frozenset(updatable),
            key_hints=dict(key_hints or {}),
        )

    raise TypeError(
        f"cannot build a QuerySpec from {type(source).__name__}: expected "
        "a QuerySpec, a query Expr, or a SQL string"
    )
