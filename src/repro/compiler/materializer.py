"""The recursive materialization procedure (paper Sections 2.2 and 3).

``compile_query`` starts from the top-level view and, for each base
relation, derives the (simplified, domain-restricted) delta query.  The
update-independent parts of every delta term — maximal connected
components of the term's join graph — are materialized as auxiliary
views projected onto exactly the columns the rest of the term needs.
Auxiliary views are compiled recursively, so each derivation step
lowers the query degree until deltas reference no base tables at all.
Structurally identical view definitions are shared across the whole
hierarchy, and (footnote 2 of the paper) no view ever stores a result
with a disconnected join graph.

Queries whose nested aggregates cannot be domain-restricted (the
extracted domain binds no equality-correlated variable, Section 3.2.3)
are maintained by re-evaluation over materialized pieces instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.delta import derive_delta, extract_domain
from repro.delta.domain import domain_binds_correlated_var
from repro.delta.simplify import (
    from_polynomial,
    is_statically_zero,
    simplify,
    to_polynomial,
)
from repro.query.ast import (
    Assign,
    Cmp,
    Const,
    DeltaRel,
    Exists,
    Expr,
    Join,
    Rel,
    Sum,
    Union,
    ValueF,
    is_expr,
)
from repro.query.schema import (
    base_relations,
    delta_relations,
    free_vars,
    has_relations,
    out_cols,
)
from repro.compiler.ir import Statement, Trigger, TriggerProgram, ViewInfo


@dataclass
class _Context:
    """Mutable compilation state shared across the view hierarchy."""

    prefix: str
    views: dict[str, ViewInfo] = field(default_factory=dict)
    #: structural definition -> view name, for cross-hierarchy sharing
    defn_index: dict[Expr, str] = field(default_factory=dict)
    #: views whose triggers still need deriving
    worklist: list[str] = field(default_factory=list)
    counter: int = 0
    #: whether assignment/Exists deltas use the domain-restricted form
    #: (Section 3.2.2); False compiles the plain recompute-twice rule
    #: and exists only for the domain-extraction ablation.
    use_domain: bool = True

    def materialize(self, definition: Expr, cols: tuple[str, ...]) -> str:
        """Create (or reuse) a materialized view for ``definition``."""
        definition = simplify(definition)
        existing = self.defn_index.get(definition)
        if existing is not None:
            return existing
        self.counter += 1
        name = f"{self.prefix}_V{self.counter}"
        self.views[name] = ViewInfo(name, cols, definition)
        self.defn_index[definition] = name
        self.worklist.append(name)
        return name


def compile_query(
    query: Expr,
    name: str = "Q",
    updatable: frozenset[str] | None = None,
    use_domain: bool = True,
) -> TriggerProgram:
    """Compile a view-definition query to a maintenance program.

    ``updatable`` restricts which base relations receive triggers
    (static dimension tables need none); by default every referenced
    relation is updatable.  ``use_domain=False`` disables the
    domain-restricted assignment delta (the domain-extraction ablation,
    ``harness.domain_extraction_ablation``);
    the recompute-twice rule is still correct, just more expensive.
    """
    query = simplify(query)
    top_cols = out_cols(query)
    ctx = _Context(prefix=name, use_domain=use_domain)
    top_view = ctx.materialize(query, top_cols)

    rels = _collect_relation_columns(query)
    if updatable is None:
        updatable = frozenset(rels)

    triggers = {
        r: Trigger(relation=r, rel_cols=rels[r]) for r in sorted(updatable)
    }

    processed: set[str] = set()
    while ctx.worklist:
        vname = ctx.worklist.pop(0)
        if vname in processed:
            continue
        processed.add(vname)
        _derive_view_triggers(ctx, vname, triggers, updatable)

    for trig in triggers.values():
        trig.statements = _order_statements(ctx, trig.statements)

    return TriggerProgram(
        query_name=name,
        top_view=top_view,
        views=ctx.views,
        triggers=triggers,
        base_relations=dict(rels),
    )


# ----------------------------------------------------------------------
# Per-view trigger derivation
# ----------------------------------------------------------------------


def _derive_view_triggers(
    ctx: _Context,
    vname: str,
    triggers: dict[str, Trigger],
    updatable: frozenset[str],
) -> None:
    info = ctx.views[vname]
    for r in sorted(base_relations(info.definition) & updatable):
        if _needs_reevaluation(info.definition, r):
            # Section 3.2.3: maintain by re-evaluating over materialized
            # pieces.  The pieces themselves are maintained
            # incrementally by their own statements.
            rewritten = _rewrite_relations(ctx, info.definition, info.cols)
            triggers[r].statements.append(
                Statement(vname, ":=", info.cols, rewritten)
            )
            continue
        d = derive_delta(info.definition, r, use_domain=ctx.use_domain)
        if is_statically_zero(d):
            continue
        expr = _compile_delta(ctx, d, info.cols)
        triggers[r].statements.append(
            Statement(vname, "+=", info.cols, expr)
        )


def _needs_reevaluation(definition: Expr, r: str) -> bool:
    """True when some nested aggregate of ``definition`` changes under
    updates to ``r`` but its delta domain binds no correlated variable."""
    found = False

    def visit(e: Expr) -> None:
        nonlocal found
        if found:
            return
        if isinstance(e, (Assign, Exists)):
            child = e.child
            if is_expr(child) and has_relations(child):
                if r in base_relations(child):
                    d = derive_delta(child, r)
                    if not is_statically_zero(d):
                        dom = extract_domain(d)
                        if not domain_binds_correlated_var(dom, child):
                            found = True
                            return
                visit(child)
            return
        from repro.query.ast import children

        for c in children(e):
            visit(c)

    visit(definition)
    return found


# ----------------------------------------------------------------------
# Term compilation: materialize update-independent parts
# ----------------------------------------------------------------------


def _compile_delta(
    ctx: _Context, d: Expr, target_cols: tuple[str, ...]
) -> Expr:
    """Compile a simplified delta: materialize the update-independent
    parts of every term, looking through the top-level Sum wrapper
    introduced by the view definition's projection."""
    terms = d.parts if isinstance(d, Union) else (d,)
    compiled: list[Expr] = []
    for t in terms:
        if isinstance(t, Sum):
            inner = t.child
            factors = list(inner.parts) if isinstance(inner, Join) else [inner]
            new_factors = _compile_term(ctx, factors, t.group_by)
            body = (
                new_factors[0]
                if len(new_factors) == 1
                else Join(tuple(new_factors))
            )
            compiled.append(Sum(t.group_by, body))
        elif isinstance(t, Join):
            new_factors = _compile_term(ctx, list(t.parts), target_cols)
            compiled.append(
                new_factors[0]
                if len(new_factors) == 1
                else Join(tuple(new_factors))
            )
        else:
            new_factors = _compile_term(ctx, [t], target_cols)
            compiled.append(
                new_factors[0]
                if len(new_factors) == 1
                else Join(tuple(new_factors))
            )
    if len(compiled) == 1:
        return simplify(compiled[0], hoist=False)
    return simplify(Union(tuple(compiled)), hoist=False)


def _compile_term(
    ctx: _Context, factors: list[Expr], target_cols: tuple[str, ...]
) -> list[Expr]:
    """Materialize the update-independent parts of one delta term.

    Factors referencing only base relations are grouped into maximal
    join-connected components, each replaced by a view projected onto
    the columns the rest of the term (or the target schema) needs.
    Remaining factors keep their relative order — delta factors were
    already hoisted to the front by simplification — and nested
    aggregates have their interiors rewritten over views recursively.
    """
    is_ui = [
        has_relations(f)
        and not delta_relations(f)
        and isinstance(f, (Rel, Sum))
        and not _contains_nested(f)
        for f in factors
    ]
    components = _connected_components(
        [i for i, ui in enumerate(is_ui) if ui], factors
    )

    # Columns needed from each component: target schema plus whatever
    # any *other* factor produces or consumes.
    new_factors: list[Expr | None] = list(factors)
    for comp in components:
        comp_set = set(comp)
        needed: set[str] = set(target_cols)
        for j, f in enumerate(factors):
            if j in comp_set:
                continue
            needed |= set(out_cols(f)) | set(free_vars(f))
        comp_factors = [factors[i] for i in comp]
        comp_cols_ordered = _ordered_cols(comp_factors)
        keep = tuple(c for c in comp_cols_ordered if c in needed)
        defn = Sum(
            keep,
            comp_factors[0] if len(comp_factors) == 1 else Join(tuple(comp_factors)),
        )
        view_name = ctx.materialize(defn, keep)
        ref = Rel(view_name, keep)
        new_factors[comp[0]] = ref
        for i in comp[1:]:
            new_factors[i] = None

    out: list[Expr] = []
    for f in new_factors:
        if f is None:
            continue
        out.append(_rewrite_nested(ctx, f))
    return out


def _contains_nested(e: Expr) -> bool:
    """True when the expression contains a relational nested aggregate."""
    if isinstance(e, (Assign, Exists)):
        child = e.child
        if isinstance(e, Assign) and not is_expr(child):
            return False
        return has_relations(child)
    from repro.query.ast import children

    return any(_contains_nested(c) for c in children(e))


def _connected_components(
    indices: list[int], factors: list[Expr]
) -> list[list[int]]:
    """Group factor indices into components connected by shared columns
    (the join graph); the paper never materializes disconnected joins."""
    cols = {i: set(out_cols(factors[i])) for i in indices}
    components: list[list[int]] = []
    for i in indices:
        merged = [c for c in components if any(cols[i] & cols[j] for j in c)]
        rest = [c for c in components if c not in merged]
        new_comp = sorted({i, *(j for c in merged for j in c)})
        components = rest + [new_comp]
    return [sorted(c) for c in components]


def _ordered_cols(factors: list[Expr]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for f in factors:
        for c in out_cols(f):
            seen.setdefault(c, None)
    return tuple(seen)


# ----------------------------------------------------------------------
# Rewriting nested aggregates and leftover base relations over views
# ----------------------------------------------------------------------


def _rewrite_nested(ctx: _Context, e: Expr) -> Expr:
    """Rewrite relational interiors of nested aggregates over views."""
    if isinstance(e, Assign) and is_expr(e.child) and has_relations(e.child):
        return Assign(e.var, _rewrite_relations(ctx, e.child, None))
    if isinstance(e, Exists) and has_relations(e.child):
        return Exists(_rewrite_relations(ctx, e.child, None))
    from repro.query.ast import children, rebuild

    kids = children(e)
    if not kids:
        return e
    return rebuild(e, tuple(_rewrite_nested(ctx, c) for c in kids))


def _rewrite_relations(
    ctx: _Context, e: Expr, target_cols: tuple[str, ...] | None
) -> Expr:
    """Replace base-relation components of ``e`` by materialized views.

    Used for nested-aggregate interiors and for whole-query
    re-evaluation statements.  Correlation variables (free vars of the
    expression) are preserved as needed columns.
    """
    e = simplify(e)
    if isinstance(e, Union):
        return Union(
            tuple(_rewrite_relations(ctx, p, target_cols) for p in e.parts)
        )
    if isinstance(e, Sum):
        inner = e.child
        factors = list(inner.parts) if isinstance(inner, Join) else [inner]
        needed_ctx = tuple(e.group_by) + tuple(sorted(free_vars(e)))
        new_factors = _compile_term(ctx, factors, needed_ctx)
        body = (
            new_factors[0]
            if len(new_factors) == 1
            else Join(tuple(new_factors))
        )
        return Sum(e.group_by, body)
    if isinstance(e, Exists):
        return Exists(_rewrite_relations(ctx, e.child, target_cols))
    if isinstance(e, Join):
        cols = target_cols if target_cols is not None else out_cols(e)
        new_factors = _compile_term(ctx, list(e.parts), tuple(cols))
        if len(new_factors) == 1:
            return new_factors[0]
        return Join(tuple(new_factors))
    if isinstance(e, Rel):
        name = ctx.materialize(Sum(e.cols, e), e.cols)
        return Rel(name, e.cols)
    if isinstance(e, Assign) and is_expr(e.child):
        return Assign(e.var, _rewrite_relations(ctx, e.child, None))
    return e


# ----------------------------------------------------------------------
# Statement ordering (the DAG property of Section 2.3)
# ----------------------------------------------------------------------


def _order_statements(
    ctx: _Context, statements: list[Statement]
) -> list[Statement]:
    """Order: incremental (+=) statements by decreasing view complexity
    — an n-th order delta reads (n+1)-th order views *before* they are
    refreshed — then re-evaluation (:=) statements by increasing
    complexity, which read the already-refreshed state."""

    def degree(s: Statement) -> int:
        info = ctx.views.get(s.target)
        return info.degree if info is not None else 0

    incremental = [s for s in statements if s.op == "+="]
    reevaluated = [s for s in statements if s.op == ":="]
    incremental.sort(key=degree, reverse=True)
    reevaluated.sort(key=degree)
    return incremental + reevaluated


def _collect_relation_columns(e: Expr) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    def visit(x: Expr) -> None:
        if isinstance(x, Rel):
            out.setdefault(x.name, x.cols)
            return
        from repro.query.ast import children

        for c in children(x):
            visit(c)
    visit(e)
    return out
