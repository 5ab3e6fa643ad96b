"""Left-to-right, information-flow evaluation of algebra expressions.

The evaluator returns, for an expression ``e`` and an environment of
bound columns, a :class:`~repro.ring.GMR` keyed over ``out_cols(e)``.
Joins bind variables left to right: relation operands whose columns are
already bound are sliced through a hash index built once per join
evaluation (the in-memory hash-join reference model of Section 3.2.1);
complex operands are memoized on the values of the bound variables they
actually depend on, so uncorrelated subqueries are evaluated once.
"""

from __future__ import annotations

from repro.query.ast import (
    Assign,
    Cmp,
    Const,
    DeltaRel,
    Exists,
    Expr,
    Gather,
    Join,
    Rel,
    Repart,
    Scatter,
    Sum,
    Union,
    ValueF,
    eval_term,
    is_expr,
)
from repro.query.schema import free_vars, out_cols
from repro.eval.db import Database
from repro.ring import GMR, is_zero

_CMP_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class Evaluator:
    """Evaluates expressions against a :class:`Database`.

    ``counters`` (optional, any object with the fields of
    :class:`repro.metrics.Counters`) accumulates tuple scans, index
    lookups, and emissions — the virtual-instruction trace used by the
    benchmark harness.
    """

    def __init__(self, db: Database, counters=None):
        self.db = db
        self.counters = counters
        #: per-statement cache shared across the polynomial terms of one
        #: top-level evaluation: slice indexes built over relational
        #: operands and memoized subexpression results.  This models
        #: the CSE the paper's code generator performs (Section 5.1) —
        #: a domain expression or an ad-hoc join index appearing in
        #: several delta terms is computed once per trigger statement.
        self._stmt_cache: dict | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, e: Expr, env: dict[str, object] | None = None) -> GMR:
        """Evaluate ``e`` to a GMR keyed over ``out_cols(e)``.

        ``env`` binds columns from the evaluation context; bound columns
        that appear in ``e``'s output act as equality filters, and bound
        columns referenced by interpreted terms supply their values.

        The top-level call owns a statement-scoped cache; the caller
        must not mutate any referenced view *during* the evaluation
        (engines mutate only after a statement's RHS is computed).
        """
        owns_cache = self._stmt_cache is None
        if owns_cache:
            self._stmt_cache = {}
        try:
            return self._eval(e, env or {})
        finally:
            if owns_cache:
                self._stmt_cache = None

    def materialize(self, e: Expr) -> GMR:
        """Evaluate ``e`` into a GMR the caller owns and may write.

        :meth:`evaluate` of a bare relation returns the database's own
        GMR; installing that as a view would make the view share it with
        the relation (and with a second view over it, as in a
        self-join), so every write would land in all of them.
        """
        return GMR(dict(self.evaluate(e).data))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _eval(self, e: Expr, env: dict[str, object]) -> GMR:
        if isinstance(e, Rel):
            return self._eval_rel(self.db.get_view(e.name), e.cols, env)
        if isinstance(e, DeltaRel):
            return self._eval_rel(self.db.get_delta(e.name), e.cols, env)
        if isinstance(e, Join):
            return self._eval_join(e, env)
        if isinstance(e, Union):
            return self._eval_union(e, env)
        if isinstance(e, Sum):
            return self._eval_sum(e, env)
        if isinstance(e, Const):
            # Zero checks route through the ring's canonical predicate:
            # a float residue below the ring epsilon must read as the
            # empty relation here exactly as it does in GMR arithmetic.
            return GMR() if is_zero(e.value) else GMR.unsafe({(): e.value})
        if isinstance(e, ValueF):
            v = eval_term(e.term, env)
            return GMR() if is_zero(v) else GMR.unsafe({(): v})
        if isinstance(e, Cmp):
            a = eval_term(e.lhs, env)
            b = eval_term(e.rhs, env)
            return GMR.unsafe({(): 1}) if _CMP_OPS[e.op](a, b) else GMR()
        if isinstance(e, Assign):
            return self._eval_assign(e, env)
        if isinstance(e, Exists):
            return self._eval(e.child, env).exists()
        if isinstance(e, (Repart, Scatter, Gather)):
            # Location transformers only move data; semantically they
            # are the identity, which is what makes local/distributed
            # program equivalence directly testable.
            return self._eval(e.child, env)
        raise TypeError(f"cannot evaluate {e!r}")

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _eval_rel(
        self, contents: GMR, cols: tuple[str, ...], env: dict[str, object]
    ) -> GMR:
        if self.counters is not None:
            self.counters.tuples_scanned += len(contents)
        bound = [(i, env[c]) for i, c in enumerate(cols) if c in env]
        if not bound:
            return contents
        out: dict[tuple, float] = {}
        for t, m in contents.items():
            if all(t[i] == v for i, v in bound):
                out[t] = m
        return GMR.unsafe(out)

    def _eval_union(self, e: Union, env: dict[str, object]) -> GMR:
        cols = out_cols(e)
        acc = GMR()
        for p in e.parts:
            sub = self._eval(p, env)
            pcols = out_cols(p)
            if pcols == cols:
                acc.add_inplace(sub)
            else:
                # Same column set, different order: re-key to union order.
                positions = [pcols.index(c) for c in cols]
                for t, m in sub.items():
                    acc.add_tuple(tuple(t[i] for i in positions), m)
        return acc

    def _eval_sum(self, e: Sum, env: dict[str, object]) -> GMR:
        sub = self._eval(e.child, env)
        ccols = out_cols(e.child)
        missing = [c for c in e.group_by if c not in ccols]
        if missing:
            # Group-by columns not produced by the child must be bound
            # from the context (they become constants of every group).
            unbound = [c for c in missing if c not in env]
            if unbound:
                raise ValueError(
                    f"Sum group-by columns {unbound} neither produced by "
                    f"the child nor bound by the context in {e!r}"
                )
            positions = [
                ("child", ccols.index(c)) if c in ccols else ("env", c)
                for c in e.group_by
            ]
            out = GMR()
            for t, m in sub.items():
                key = tuple(
                    t[i] if kind == "child" else env[i]
                    for kind, i in positions
                )
                out.add_tuple(key, m)
            return out
        positions2 = [ccols.index(c) for c in e.group_by]
        return sub.project(positions2)

    def _eval_assign(self, e: Assign, env: dict[str, object]) -> GMR:
        if not is_expr(e.child):
            # Classical assignment over a value term: a singleton.
            v = eval_term(e.child, env)
            if e.var in env and env[e.var] != v:
                return GMR()
            return GMR.unsafe({(v,): 1})
        sub = self._eval(e.child, env)
        ccols = out_cols(e.child)
        cols = out_cols(e)  # ccols extended by e.var
        var_bound = e.var in env
        out: dict[tuple, float] = {}
        if not ccols:
            # Scalar context: emit the aggregate even when it is 0
            # (SQL COUNT semantics); see Assign docstring.
            v = sub.get((), 0)
            if not var_bound or env[e.var] == v:
                out[(v,)] = 1
            return GMR.unsafe(out)
        for t, m in sub.items():
            if var_bound and env[e.var] != m:
                continue
            out[t + (m,)] = 1
        # Column order: out_cols(e) puts child's columns first, then var;
        # that is exactly how tuples were just built.
        assert cols == ccols + (e.var,) or e.var in ccols
        return GMR.unsafe(out)

    def _eval_join(self, e: Join, env: dict[str, object]) -> GMR:
        cols = out_cols(e)
        parts = e.parts
        n = len(parts)

        # Precompute, per operand: its columns, which of them will be
        # bound when evaluation reaches it, and a slicing or memoization
        # strategy.
        bound_so_far = set(env)
        plans = []
        for p in parts:
            pcols = out_cols(p)
            bound_positions = [
                i for i, c in enumerate(pcols) if c in bound_so_far
            ]
            if isinstance(p, (Rel, DeltaRel)) and bound_positions:
                cache_key = ("slice", p, tuple(bound_positions))
                cache = self._stmt_cache
                index = cache.get(cache_key) if cache is not None else None
                if index is None:
                    contents = (
                        self.db.get_view(p.name)
                        if isinstance(p, Rel)
                        else self.db.get_delta(p.name)
                    )
                    if self.counters is not None:
                        self.counters.tuples_scanned += len(contents)
                    index = {}
                    for t, m in contents.items():
                        key = tuple(t[i] for i in bound_positions)
                        index.setdefault(key, []).append((t, m))
                    if cache is not None:
                        cache[cache_key] = index
                plans.append(("slice", p, pcols, bound_positions, index))
            else:
                deps = tuple(
                    sorted((free_vars(p) | set(pcols)) & bound_so_far)
                )
                memo = {}
                if self._stmt_cache is not None:
                    memo_key = ("eval", p, deps)
                    memo = self._stmt_cache.setdefault(memo_key, {})
                plans.append(("eval", p, pcols, deps, memo))
            bound_so_far |= set(pcols)

        out = GMR()
        out_add = out.add_tuple
        counters = self.counters

        def recurse(i: int, env2: dict[str, object], mult) -> None:
            if i == n:
                out_add(tuple(env2[c] for c in cols), mult)
                if counters is not None:
                    counters.tuples_emitted += 1
                return
            kind, p, pcols, aux, memo = plans[i]
            if kind == "slice":
                key = tuple(env2[pcols[j]] for j in aux)
                if counters is not None:
                    counters.index_lookups += 1
                for t, m in memo_slice(aux, memo, key):
                    env3 = dict(env2)
                    for c, v in zip(pcols, t):
                        env3[c] = v
                    recurse(i + 1, env3, mult * m)
                return
            # Memoized evaluation of a general operand.
            mkey = tuple(env2[c] for c in aux)
            cached = memo.get(mkey)
            if cached is None:
                sub_env = {c: env2[c] for c in aux}
                cached = list(self._eval(p, sub_env).items())
                memo[mkey] = cached
            for t, m in cached:
                env3 = dict(env2)
                ok = True
                for c, v in zip(pcols, t):
                    if c in env3 and env3[c] != v:
                        ok = False
                        break
                    env3[c] = v
                if ok:
                    recurse(i + 1, env3, mult * m)

        def memo_slice(positions, index, key):
            return index.get(key, ())

        recurse(0, dict(env), 1)
        return out


def evaluate(e: Expr, db: Database, env: dict[str, object] | None = None) -> GMR:
    """One-shot evaluation helper."""
    return Evaluator(db).evaluate(e, env)
