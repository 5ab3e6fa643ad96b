"""Compile-once lowering of algebra expressions to closure pipelines.

The reference :class:`~repro.eval.Evaluator` re-interprets the AST on
every evaluation: per-node ``isinstance`` dispatch, per-call schema
derivation (``out_cols`` / ``free_vars``), and per-call join planning.
That cost is paid once per statement per batch — exactly the hot loop.

This module performs all of that work once, at *lowering* time:

* every operator becomes one Python closure; the operator tree becomes
  a composed pipeline of closures with no residual dispatch;
* output schemas, projection positions, union re-keying maps, and
  comparison operators are resolved during lowering;
* join plans — which operands are sliced through a hash index, which
  are memoized sub-evaluations, and on which bound columns — are
  derived during lowering and hoisted out of the batch loop.  Slices of
  materialized views probe the database's persistent indexes
  (:meth:`~repro.eval.Database.slice_index`, maintained on write);
  only delta relations still get an index built at run time, shared
  across the polynomial terms of one statement through the statement
  cache.

Pipelines are database-independent: the database, counters, and the
statement-scoped cache travel in an :class:`EvalContext`, so one lowered
pipeline can be shared by every worker of a simulated cluster and
reused across batches.  Lowering is specialized on the set of columns
the context binds (``bound``); :class:`PlanCache` memoizes lowered
pipelines keyed on ``(expression, bound)`` — statement identity, since
expressions are immutable and structurally hashable.

Semantics are defined by the interpreted evaluator; the differential
tests in ``tests/test_engine_equivalence.py`` keep this path honest.
"""

from __future__ import annotations

from operator import itemgetter as _itemgetter
from typing import Callable

from repro.query.ast import (
    Assign,
    Cmp,
    Col,
    Const,
    DeltaRel,
    Exists,
    Expr,
    Func,
    Gather,
    Join,
    Lit,
    Arith,
    Rel,
    Repart,
    Scatter,
    Sum,
    Union,
    ValueF,
    ValueTerm,
    is_expr,
    lookup_function,
)
from repro.query.schema import free_vars, out_cols
from repro.eval.db import Database
from repro.metrics import Counters
from repro.ring import GMR, is_zero

_CMP_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class EvalContext:
    """Mutable run-time state threaded through a lowered pipeline.

    ``cache`` is the statement-scoped cache (the slice probe each join
    level resolved, memoized subexpression results) — the same CSE the
    interpreted evaluator performs, shared across the polynomial terms
    of one statement.  Probes of materialized views are references to
    the database's persistent indexes, not copies; only delta-relation
    slices hold an index built for the statement.
    """

    __slots__ = ("db", "counters", "cache")

    def __init__(self, db: Database, counters: Counters | None = None):
        self.db = db
        self.counters = counters
        self.cache: dict | None = None


class CompiledExpr:
    """A lowered expression: an output schema plus a run closure.

    ``run(ctx, env)`` expects ``ctx.cache`` to be a dict (the statement
    scope); :meth:`evaluate` owns that scope for one-shot use.
    """

    __slots__ = ("cols", "run")

    def __init__(self, cols: tuple[str, ...], run: Callable):
        self.cols = cols
        self.run = run

    def evaluate(self, ctx: EvalContext, env: dict[str, object] | None = None) -> GMR:
        """Evaluate under a fresh statement scope (unless one is open)."""
        owns = ctx.cache is None
        if owns:
            ctx.cache = {}
        try:
            return self.run(ctx, env if env is not None else {})
        finally:
            if owns:
                ctx.cache = None


# ----------------------------------------------------------------------
# Scalar terms
# ----------------------------------------------------------------------


def compile_term(term: ValueTerm) -> Callable[[dict], object]:
    """Lower a value term to a closure over the environment."""
    if isinstance(term, Col):
        name = term.name

        return lambda env: env[name]
    if isinstance(term, Lit):
        value = term.value

        return lambda env: value
    if isinstance(term, Arith):
        lhs = compile_term(term.lhs)
        rhs = compile_term(term.rhs)
        op = term.op
        if op == "+":
            return lambda env: lhs(env) + rhs(env)
        if op == "-":
            return lambda env: lhs(env) - rhs(env)
        if op == "*":
            return lambda env: lhs(env) * rhs(env)
        if op == "/":
            return lambda env: lhs(env) / rhs(env)
        raise ValueError(f"unknown arithmetic op {op!r}")
    if isinstance(term, Func):
        # Resolved per call: the function registry may gain entries
        # between lowering and execution (tests register late).
        fname = term.name
        args = tuple(compile_term(a) for a in term.args)

        return lambda env: lookup_function(fname)(*(a(env) for a in args))
    raise TypeError(f"not a value term: {term!r}")


# ----------------------------------------------------------------------
# Relational operators
# ----------------------------------------------------------------------


def compile_expr(e: Expr, bound: frozenset[str] = frozenset()) -> CompiledExpr:
    """Lower ``e`` for evaluation under contexts binding ``bound``.

    The lowered pipeline must be run with an environment whose keys are
    exactly ``bound`` (the engines evaluate statements under the empty
    environment; join operands are lowered against the columns bound by
    their left siblings).
    """
    return _compile(e, frozenset(bound))


def _compile(e: Expr, bound: frozenset[str]) -> CompiledExpr:
    if isinstance(e, (Rel, DeltaRel)):
        return _compile_rel(e, bound)
    if isinstance(e, Join):
        return _compile_join(e, bound)
    if isinstance(e, Union):
        return _compile_union(e, bound)
    if isinstance(e, Sum):
        return _compile_sum(e, bound)
    if isinstance(e, Const):
        return _compile_const(e)
    if isinstance(e, ValueF):
        return _compile_valuef(e)
    if isinstance(e, Cmp):
        return _compile_cmp(e)
    if isinstance(e, Assign):
        return _compile_assign(e, bound)
    if isinstance(e, Exists):
        child = _compile(e.child, bound)
        child_run = child.run

        def run(ctx, env):
            return child_run(ctx, env).exists()

        return CompiledExpr(child.cols, run)
    if isinstance(e, (Repart, Scatter, Gather)):
        # Location transformers are the identity on contents; lowering
        # erases them entirely.
        return _compile(e.child, bound)
    raise TypeError(f"cannot lower {e!r}")


def _compile_rel(e: Rel | DeltaRel, bound: frozenset[str]) -> CompiledExpr:
    name = e.name
    cols = e.cols
    if isinstance(e, DeltaRel):
        def fetch(ctx):
            return ctx.db.get_delta(name)
    else:
        def fetch(ctx):
            return ctx.db.get_view(name)

    bound_at = tuple((i, c) for i, c in enumerate(cols) if c in bound)
    if not bound_at:
        def run(ctx, env):
            contents = fetch(ctx)
            if ctx.counters is not None:
                ctx.counters.tuples_scanned += len(contents)
            return contents

        return CompiledExpr(cols, run)

    def run(ctx, env):
        contents = fetch(ctx)
        if ctx.counters is not None:
            ctx.counters.tuples_scanned += len(contents)
        key = tuple((i, env[c]) for i, c in bound_at)
        out = {}
        for t, m in contents.items():
            if all(t[i] == v for i, v in key):
                out[t] = m
        return GMR.unsafe(out)

    return CompiledExpr(cols, run)


def _compile_const(e: Const) -> CompiledExpr:
    if is_zero(e.value):
        def run(ctx, env):
            return GMR()
    else:
        value = e.value

        def run(ctx, env):
            return GMR.unsafe({(): value})

    return CompiledExpr((), run)


def _compile_valuef(e: ValueF) -> CompiledExpr:
    term = compile_term(e.term)

    def run(ctx, env):
        v = term(env)
        return GMR() if is_zero(v) else GMR.unsafe({(): v})

    return CompiledExpr((), run)


def _compile_cmp(e: Cmp) -> CompiledExpr:
    op = _CMP_OPS[e.op]
    lhs = compile_term(e.lhs)
    rhs = compile_term(e.rhs)

    def run(ctx, env):
        return GMR.unsafe({(): 1}) if op(lhs(env), rhs(env)) else GMR()

    return CompiledExpr((), run)


def _compile_union(e: Union, bound: frozenset[str]) -> CompiledExpr:
    cols = out_cols(e)
    parts = []
    for p in e.parts:
        sub = _compile(p, bound)
        if sub.cols == cols:
            parts.append((sub.run, None))
        else:
            # Same column set, different order: re-key to union order.
            positions = tuple(sub.cols.index(c) for c in cols)
            parts.append((sub.run, positions))

    def run(ctx, env):
        acc = GMR()
        for sub_run, positions in parts:
            sub = sub_run(ctx, env)
            if positions is None:
                acc.add_inplace(sub)
            else:
                add = acc.add_tuple
                for t, m in sub.items():
                    add(tuple(t[i] for i in positions), m)
        return acc

    return CompiledExpr(cols, run)


def _compile_sum(e: Sum, bound: frozenset[str]) -> CompiledExpr:
    child = _compile(e.child, bound)
    child_run = child.run
    ccols = child.cols
    group_by = e.group_by
    missing = [c for c in group_by if c not in ccols]
    if missing:
        unbound = [c for c in missing if c not in bound]
        if unbound:
            # The interpreted evaluator raises when evaluation reaches
            # the node; defer the error to run time the same way.
            node = e

            def run(ctx, env):
                raise ValueError(
                    f"Sum group-by columns {unbound} neither produced by "
                    f"the child nor bound by the context in {node!r}"
                )

            return CompiledExpr(group_by, run)
        positions = tuple(
            ("child", ccols.index(c)) if c in ccols else ("env", c)
            for c in group_by
        )

        def run(ctx, env):
            sub = child_run(ctx, env)
            out = GMR()
            add = out.add_tuple
            for t, m in sub.items():
                add(
                    tuple(
                        t[i] if kind == "child" else env[i]
                        for kind, i in positions
                    ),
                    m,
                )
            return out

        return CompiledExpr(group_by, run)

    positions2 = tuple(ccols.index(c) for c in group_by)

    def run(ctx, env):
        return child_run(ctx, env).project(positions2)

    return CompiledExpr(group_by, run)


def _compile_assign(e: Assign, bound: frozenset[str]) -> CompiledExpr:
    var = e.var
    var_bound = var in bound
    if not is_expr(e.child):
        term = compile_term(e.child)

        def run(ctx, env):
            v = term(env)
            if var_bound and env[var] != v:
                return GMR()
            return GMR.unsafe({(v,): 1})

        return CompiledExpr((var,), run)

    child = _compile(e.child, bound)
    child_run = child.run
    ccols = child.cols
    cols = out_cols(e)
    if not ccols:
        # Scalar context: emit the aggregate even when it is 0 (SQL
        # COUNT semantics); see the Assign docstring in the AST.
        def run(ctx, env):
            v = child_run(ctx, env).get((), 0)
            if var_bound and env[var] != v:
                return GMR.unsafe({})
            return GMR.unsafe({(v,): 1})

        return CompiledExpr(cols, run)

    def run(ctx, env):
        sub = child_run(ctx, env)
        out = {}
        for t, m in sub.items():
            if var_bound and env[var] != m:
                continue
            out[t + (m,)] = 1
        return GMR.unsafe(out)

    return CompiledExpr(cols, run)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


def _tuple_getter(cols: tuple[str, ...]):
    """A C-speed ``env -> tuple(env[c] for c in cols)``."""
    if not cols:
        return lambda env: ()
    if len(cols) == 1:
        c0 = cols[0]
        return lambda env: (env[c0],)
    return _itemgetter(*cols)


def _compile_join(e: Join, bound: frozenset[str]) -> CompiledExpr:
    cols = out_cols(e)

    # The operand chain is lowered back to front: each level closure
    # extends the environment and calls the next level; the innermost
    # level emits an output tuple.  This is the left-to-right
    # information-flow nested-loop of the reference evaluator with the
    # per-evaluation planning (bound positions, slice-vs-eval choice,
    # memo dependency sets) moved to lowering time.  Per-evaluation
    # artifacts (slice indexes, memo tables) are resolved once per join
    # evaluation into ``state`` slots, so the recursion's hot path does
    # a list index instead of re-hashing AST-keyed cache keys.
    emit_key = _tuple_getter(cols)

    def emit(ctx, env, mult, out_add, state):
        out_add(emit_key(env), mult)
        if ctx.counters is not None:
            ctx.counters.tuples_emitted += 1

    chain = emit
    bound_so_far = set(bound)
    levels = []
    for p in e.parts:
        pcols = out_cols(p)
        bound_positions = tuple(
            i for i, c in enumerate(pcols) if c in bound_so_far
        )
        if isinstance(p, (Rel, DeltaRel)) and bound_positions:
            levels.append(("slice", p, pcols, bound_positions))
        else:
            deps = tuple(sorted((free_vars(p) | set(pcols)) & bound_so_far))
            sub = _compile(p, frozenset(deps))
            levels.append(("eval", p, pcols, deps, sub))
        bound_so_far |= set(pcols)

    n_levels = len(levels)
    for slot, level in enumerate(reversed(levels)):
        if level[0] == "slice":
            _, p, pcols, bound_positions = level
            chain = _make_slice_level(
                p, pcols, bound_positions, chain, n_levels - 1 - slot
            )
        else:
            _, p, pcols, deps, sub = level
            chain = _make_eval_level(
                p, pcols, deps, sub, chain, n_levels - 1 - slot
            )

    first = chain

    def run(ctx, env):
        out = GMR()
        first(ctx, dict(env), 1, out.add_tuple, [None] * n_levels)
        return out

    return CompiledExpr(cols, run)


def _make_slice_level(node, pcols, bound_positions, nxt, slot):
    """A join level served by a hash index over the bound columns.

    The index plan (which relation, which positions) is fixed at
    lowering; at run time the level resolves a *probe* (key -> matching
    ``(tuple, multiplicity)`` pairs) once per statement:

    * every column bound: a point lookup (``contents.get``), no index;
    * a materialized view: the database's persistent index
      (:meth:`~repro.eval.Database.slice_index`), maintained on write,
      so a probe visits only its bucket;
    * a delta relation, or a view the database keeps no index for (a
      record pool without a matching slice index): an index built from
      the contents and shared across the statement's terms.

    ``tuples_scanned`` counts the pairs each probe visits, plus the
    contents of any index built.
    """
    name = node.name
    is_delta = isinstance(node, DeltaRel)
    cache_key = ("slice", node, bound_positions)
    point = len(bound_positions) == len(pcols)
    if point:
        slice_key = _tuple_getter(pcols)
    else:
        # A bare value for one bound column, a tuple otherwise — the
        # key shape of the database's indexes.
        slice_key = _itemgetter(*(pcols[i] for i in bound_positions))

    def resolve(ctx):
        db = ctx.db
        if point:
            get = (db.get_delta(name) if is_delta else db.get_view(name)).get

            def probe(k):
                m = get(k, None)
                return () if m is None else ((k, m),)

            return probe
        if not is_delta:
            probe = db.slice_index(name, bound_positions, ctx.counters)
            if probe is not None:
                return probe
        contents = db.get_delta(name) if is_delta else db.get_view(name)
        if ctx.counters is not None:
            ctx.counters.tuples_scanned += len(contents)
        key_of = _itemgetter(*bound_positions)
        index = {}
        for t, m in contents.items():
            index.setdefault(key_of(t), []).append((t, m))
        return lambda k: index.get(k, ())

    def level(ctx, env, mult, out_add, state):
        probe = state[slot]
        if probe is None:
            probe = ctx.cache.get(cache_key)
            if probe is None:
                probe = ctx.cache[cache_key] = resolve(ctx)
            state[slot] = probe
        pairs = probe(slice_key(env))
        if ctx.counters is not None:
            ctx.counters.index_lookups += 1
            ctx.counters.tuples_scanned += len(pairs)
        for t, m in pairs:
            env2 = dict(env)
            for c, v in zip(pcols, t):
                env2[c] = v
            nxt(ctx, env2, mult * m, out_add, state)

    return level


def _make_eval_level(node, pcols, deps, sub: CompiledExpr, nxt, slot):
    """A join level evaluated as a subquery, memoized on the values of
    the bound columns it actually depends on — uncorrelated subqueries
    are evaluated once per statement."""
    cache_key = ("eval", node, deps)
    memo_key = _tuple_getter(deps)
    sub_run = sub.run

    def level(ctx, env, mult, out_add, state):
        memo = state[slot]
        if memo is None:
            memo = ctx.cache.setdefault(cache_key, {})
            state[slot] = memo
        mkey = memo_key(env)
        cached = memo.get(mkey)
        if cached is None:
            sub_env = {c: env[c] for c in deps}
            cached = list(sub_run(ctx, sub_env).items())
            memo[mkey] = cached
        for t, m in cached:
            env2 = dict(env)
            ok = True
            for c, v in zip(pcols, t):
                if c in env2 and env2[c] != v:
                    ok = False
                    break
                env2[c] = v
            if ok:
                nxt(ctx, env2, mult * m, out_add, state)

    return level


# ----------------------------------------------------------------------
# Plan cache and drop-in evaluator
# ----------------------------------------------------------------------


class PlanCache:
    """Memoized lowering, keyed on ``(expression, bound columns)``.

    Expressions are immutable and structurally hashable, so the key is
    exactly statement identity; engines share one cache per program so
    every statement is lowered once for the program's lifetime.
    """

    __slots__ = ("_plans", "hits", "misses")

    def __init__(self):
        self._plans: dict[tuple, CompiledExpr] = {}
        self.hits = 0
        self.misses = 0

    def lookup(
        self, e: Expr, bound: frozenset[str] = frozenset()
    ) -> CompiledExpr:
        key = (e, bound)
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            plan = compile_expr(e, bound)
            self._plans[key] = plan
        else:
            self.hits += 1
        return plan

    def __len__(self) -> int:
        return len(self._plans)


class CompiledEvaluator:
    """Drop-in replacement for :class:`~repro.eval.Evaluator` that runs
    lowered pipelines.  Repeated evaluations of the same expression hit
    the plan cache; pass a shared cache to amortize lowering across
    evaluators (e.g. one per cluster worker)."""

    def __init__(
        self,
        db: Database,
        counters: Counters | None = None,
        plans: PlanCache | None = None,
    ):
        self.db = db
        self.counters = counters
        self.plans = plans if plans is not None else PlanCache()
        self._ctx = EvalContext(db, counters)

    def evaluate(self, e: Expr, env: dict[str, object] | None = None) -> GMR:
        env = env if env is not None else {}
        plan = self.plans.lookup(e, frozenset(env))
        return plan.evaluate(self._ctx, env)
