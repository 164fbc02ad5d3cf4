"""The AND-OR plan DAG over the group-by lattice.

An **OR-node** is one way-agnostic result: an (aggregate kind, group-by
levels, predicate class) equivalence class.  Two queries whose results are
structurally identical — same fold, same target levels, same predicates —
hash to the same OR-node and unify, however many classes GG scattered them
across.  A predicate-free OR-node is a candidate **shared intermediate**:
a sub-aggregate that, once materialized by some class's scan, can answer
every consumer by re-aggregation.

An **AND-node** is one operator application producing its OR-node:

* ``scan-join`` — a shared hash/index/hybrid star join over one catalog
  entry (today's operators);
* ``derive`` — re-aggregating a finer materialized intermediate
  (phase 3 of :class:`~repro.core.operators.star_join.StarJoin`).

Candidate intermediates are generated from the *meet closure* of the
consumer queries' required levels per aggregate kind (the elementwise-min
lattice points — exactly the group-bys fine enough to answer any subset of
those queries), AVG excluded since it is not re-aggregable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..schema.lattice import source_can_answer
from ..schema.query import Aggregate, GroupBy, GroupByQuery
from ..schema.star import StarSchema
from ..storage.catalog import Catalog


def predicates_signature(query: GroupByQuery) -> str:
    """Canonical rendering of a query's predicate class (order-free)."""
    parts = []
    for pred in sorted(
        query.predicates,
        key=lambda p: (p.dim_index, p.level, tuple(sorted(p.member_ids))),
    ):
        members = ",".join(str(m) for m in sorted(pred.member_ids))
        parts.append(f"d{pred.dim_index}L{pred.level}{{{members}}}")
    return ";".join(parts)


def node_key(kind: str, levels: Sequence[int], preds_sig: str = "") -> str:
    """The structural hash under which identical sub-aggregates unify."""
    base = f"{kind}@({','.join(str(lv) for lv in levels)})"
    return f"{base}|{preds_sig}" if preds_sig else base


@dataclass
class AndNode:
    """One operator application producing an OR-node's result.

    ``source`` names a catalog entry for ``scan-join`` and a producing
    OR-node key for ``derive``.
    """

    op: str  # "scan-join" | "derive"
    source: str


@dataclass
class OrNode:
    """One structurally-hashed result with its alternative producers."""

    key: str
    kind: str
    levels: Tuple[int, ...]
    preds_sig: str = ""
    #: qids of the submitted queries this node can answer (for result
    #: nodes: the queries that unified into it; for candidates: every
    #: same-kind query whose required levels it is fine enough for).
    consumers: List[int] = field(default_factory=list)
    alternatives: List[AndNode] = field(default_factory=list)

    @property
    def is_unified(self) -> bool:
        """True when ≥2 queries share this sub-expression."""
        return len(self.consumers) >= 2


@dataclass
class PlanDag:
    """The full AND-OR DAG for one query batch."""

    nodes: Dict[str, OrNode] = field(default_factory=dict)
    #: qid -> the OR-node holding that query's result.
    result_keys: Dict[int, str] = field(default_factory=dict)
    #: Keys of the candidate shared intermediates, in search order.
    candidate_keys: List[str] = field(default_factory=list)

    @property
    def n_or_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_and_nodes(self) -> int:
        return sum(len(node.alternatives) for node in self.nodes.values())

    @property
    def n_unified(self) -> int:
        """OR-nodes shared by at least two queries — the common
        sub-expressions class-granular sharing cannot see."""
        return sum(1 for node in self.nodes.values() if node.is_unified)


def _meet(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Elementwise lattice meet: the coarsest point fine enough for both."""
    return tuple(min(x, y) for x, y in zip(a, b))


def _meet_closure(
    points: List[Tuple[int, ...]], cap: int
) -> List[Tuple[int, ...]]:
    """Close ``points`` under pairwise meet (bounded at ``cap`` points)."""
    closed = set(points)
    frontier = list(closed)
    while frontier and len(closed) < cap:
        point = frontier.pop()
        for other in list(closed):
            met = _meet(point, other)
            if met not in closed:
                closed.add(met)
                frontier.append(met)
                if len(closed) >= cap:
                    break
    return sorted(closed)


def intermediate_query(kind: str, levels: Sequence[int]) -> GroupByQuery:
    """The synthetic predicate-free group-by a candidate node materializes
    as.  Its fresh qid keeps it distinct from every submitted query; its
    label carries the structural key for ledgers and explain output."""
    return GroupByQuery(
        groupby=GroupBy(tuple(levels)),
        aggregate=Aggregate(kind),
        label=f"im:{node_key(kind, levels)}",
    )


#: Cap on the candidate intermediates generated per aggregate kind.
MAX_CANDIDATES = 64


def build_dag(
    schema: StarSchema,
    catalog: Catalog,
    queries: Sequence[GroupByQuery],
) -> PlanDag:
    """Build the AND-OR DAG for ``queries`` over the current catalog.

    Result OR-nodes unify structurally identical queries; candidate
    OR-nodes are the per-kind meet closures of required levels (AVG
    excluded), each capped at ``MAX_CANDIDATES`` per kind.  Every node
    lists its scan-join alternatives (catalog entries able to produce it)
    and, for result nodes, its derive alternatives (candidates fine
    enough to answer it).
    """
    dag = PlanDag()
    entries = catalog.entries()
    # Result nodes, with structural unification.
    for query in queries:
        sig = predicates_signature(query)
        key = node_key(query.aggregate.value, query.groupby.levels, sig)
        node = dag.nodes.get(key)
        if node is None:
            node = OrNode(
                key=key,
                kind=query.aggregate.value,
                levels=tuple(query.groupby.levels),
                preds_sig=sig,
            )
            node.alternatives = [
                AndNode("scan-join", entry.name)
                for entry in entries
                if source_can_answer(
                    entry.levels, entry.source_aggregate, query
                )
            ]
            dag.nodes[key] = node
        node.consumers.append(query.qid)
        dag.result_keys[query.qid] = key
    # Candidate shared intermediates: per-kind meet closure of the
    # consumers' required levels.
    by_kind: Dict[str, List[GroupByQuery]] = {}
    for query in queries:
        if query.aggregate is Aggregate.AVG:
            continue  # AVG is not re-aggregable; no derive alternatives
        by_kind.setdefault(query.aggregate.value, []).append(query)
    for kind in sorted(by_kind):
        kind_queries = by_kind[kind]
        points = sorted({q.required_levels() for q in kind_queries})
        for levels in _meet_closure(points, MAX_CANDIDATES):
            consumers = [
                q.qid
                for q in kind_queries
                if all(
                    lv <= req
                    for lv, req in zip(levels, q.required_levels())
                )
            ]
            if not consumers:
                continue
            key = node_key(kind, levels)
            if key in dag.nodes:
                # A predicate-free query's result node doubles as a
                # candidate; keep one node, widen its consumer set.
                node = dag.nodes[key]
                node.consumers = sorted(set(node.consumers) | set(consumers))
            else:
                probe = intermediate_query(kind, levels)
                node = OrNode(
                    key=key, kind=kind, levels=tuple(levels),
                    consumers=consumers,
                )
                node.alternatives = [
                    AndNode("scan-join", entry.name)
                    for entry in entries
                    if source_can_answer(
                        entry.levels, entry.source_aggregate, probe
                    )
                ]
                dag.nodes[key] = node
            dag.candidate_keys.append(key)
    # Derive alternatives: a result node can be produced from any
    # candidate fine enough for the queries it carries.
    for qid, rkey in dag.result_keys.items():
        result = dag.nodes[rkey]
        if result.kind == Aggregate.AVG.value:
            continue
        for ckey in dag.candidate_keys:
            if ckey == rkey:
                continue
            candidate = dag.nodes[ckey]
            if candidate.kind != result.kind:
                continue
            if qid in candidate.consumers and not any(
                alt.op == "derive" and alt.source == ckey
                for alt in result.alternatives
            ):
                result.alternatives.append(AndNode("derive", ckey))
    return dag
