"""Containers for distributed maintenance programs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ir import TriggerProgram
from repro.distributed.tags import Tag
from repro.query.ast import Expr
from repro.ring import GMR


def ref_cols(e: Expr) -> tuple[str, ...]:
    """Column names of a Rel/DeltaRel reference (the only operands a
    location transformer may have — single transformer form)."""
    from repro.query.ast import DeltaRel, Rel

    if isinstance(e, (Rel, DeltaRel)):
        return e.cols
    raise TypeError(f"not a reference: {e!r}")


def apply_store(db, target: str, op: str, scope: str, value: GMR) -> None:
    """Install one statement's result under the shared store semantics.

    Used by every executor of distributed statements (simulated-cluster
    driver and workers, multiproc coordinator and workers): batch-scoped
    results land in the delta namespace, ``+=`` merges into the view,
    ``:=`` replaces its contents with a defensive copy.
    """
    if scope == "batch":
        db.set_delta(target, value)
    elif op == "+=":
        db.apply_update(target, value)
    else:
        db.set_view(target, GMR(dict(value.data)))


@dataclass
class DistStatement:
    """A location-annotated statement.

    ``mode`` is the execution mode of Section 4.3.2: ``"local"``
    statements run on the driver (including every location transformer,
    which the driver initiates), ``"dist"`` statements run on every
    worker against its partitions.
    """

    target: str
    op: str  # '+=' or ':='
    target_cols: tuple[str, ...]
    expr: Expr
    scope: str  # 'view' or 'batch'
    target_tag: Tag
    mode: str  # 'local' or 'dist'

    def __repr__(self) -> str:
        mode = self.mode.upper()
        return (
            f"{mode} {self.target}[{self.target_tag!r}] "
            f"{self.op} {self.expr!r}"
        )


@dataclass
class DistTrigger:
    relation: str
    rel_cols: tuple[str, ...]
    statements: list[DistStatement] = field(default_factory=list)
    #: filled by the block/plan phases
    blocks: list = field(default_factory=list)
    jobs: list = field(default_factory=list)


@dataclass
class DistributedProgram:
    """A fully compiled distributed maintenance program."""

    local_program: TriggerProgram
    #: view name -> location tag; also holds the tags of batch-scoped
    #: temporaries (pre-aggregates, materializations, moved contents)
    partitioning: dict[str, Tag]
    triggers: dict[str, DistTrigger]
    #: whether the cluster fuses blocks (the O2 switch of Fig. 13)
    fuse_enabled: bool = True
    #: where raw update batches arrive.  Deltas live in a separate
    #: namespace, so a base relation's batch location is NOT
    #: ``partitioning[R]`` — that is the *view* R's tag.
    delta_tag: Tag | None = None

    def tag_of_ref(self, name: str, is_delta: bool) -> Tag | None:
        """Location of a Rel/DeltaRel reference, namespace-aware.

        Batch-scoped temporaries (pre-aggregates, moved contents) are
        registered in ``partitioning`` under their unique names; only
        raw base-relation deltas resolve to ``delta_tag``.
        """
        if is_delta and name in self.local_program.base_relations:
            return self.delta_tag
        return self.partitioning.get(name)

    @property
    def top_view(self) -> str:
        return self.local_program.top_view

    def describe(self) -> str:
        lines = [
            f"-- distributed program for {self.local_program.query_name}"
        ]
        for name, tag in sorted(self.partitioning.items()):
            lines.append(f"--   {name}: {tag!r}")
        for trig in self.triggers.values():
            lines.append(f"ON UPDATE {trig.relation}:")
            if trig.blocks:
                for b in trig.blocks:
                    lines.append(f"  BLOCK {b.mode.upper()}:")
                    for s in b.statements:
                        lines.append(f"    {s!r}")
            else:
                for s in trig.statements:
                    lines.append(f"  {s!r}")
        return "\n".join(lines)
