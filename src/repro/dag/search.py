"""Greedy materialization search over the AND-OR DAG (Roy et al. style).

Start from GG's grown classes (the best class-granular sharing the
paper's algorithms find).  Each iteration considers every (candidate intermediate,
host class) pair: materialize the intermediate inside the host class's
shared scan and migrate every query it benefits — from whatever class GG
placed it in — to the host as a DERIVE member.  The move that most reduces
the *exact* total plan cost is applied; the search stops when no move
clears the improvement margin or the iteration budget runs out.

Re-costing is memoized by class signature, so a move's evaluation re-costs
only the classes it touches (the Roy et al. "incremental cost update"),
and the accepted-move sequence is monotone: the final plan's estimated
cost is never above the GG seed's.

``ROW_SAFETY`` inflates the intermediate's estimated group count during
*acceptance only* — a Cardenas underestimate must not turn an estimated
win into a measured loss; the final plan is costed unbiased.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.optimizer.cost import CostModel
from ..core.optimizer.plans import DeriveStep, left_sum
from ..schema.lattice import source_can_answer
from ..schema.query import GroupByQuery
from ..storage.catalog import TableEntry
from .nodes import PlanDag, intermediate_query

#: Materializations the search may apply before it stops.
MAX_ITERATIONS = 16
#: The fraction of the current total a move must save to be applied —
#: moves inside the margin are model noise, and applying them risks a
#: measured regression against the seed.
MIN_GAIN_FRAC = 0.01
#: Inflation of an intermediate's estimated group count during acceptance.
ROW_SAFETY = 1.25


@dataclass
class DagClass:
    """Search-time form of one class: scan members plus derive steps."""

    entry: TableEntry
    scan_queries: List[GroupByQuery] = field(default_factory=list)
    steps: List[DeriveStep] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.scan_queries and not self.steps

    def signature(self) -> Tuple:
        """Memo key: everything the class's cost depends on."""
        return (
            self.entry.name,
            tuple(sorted(q.qid for q in self.scan_queries)),
            tuple(
                sorted(
                    (step.node_key, tuple(sorted(step.qids)))
                    for step in self.steps
                )
            ),
        )


@dataclass
class Materialization:
    """One accepted move, for search stats and explain output."""

    node_key: str
    host: str
    qids: List[int]
    gain_ms: float


@dataclass
class DagSearch:
    """What the greedy search did, over which DAG — the typed record a dag
    plan carries in ``search_stats.dag`` and explain renders from."""

    dag: PlanDag = field(repr=False)
    #: Loop passes run: one per accepted move, then (unless the budget ran
    #: out) the one that found none.
    passes: int = 0
    moves_evaluated: int = 0
    costings_memoized: int = 0
    initial_est_ms: float = 0.0
    final_est_ms: float = 0.0
    materializations: List[Materialization] = field(default_factory=list)


class _Coster:
    """Memoized class costing (``ROW_SAFETY`` applied to derive classes)."""

    def __init__(self, model: CostModel):
        self.model = model
        self._cache: Dict[Tuple, float] = {}
        self.hits = 0

    def class_cost(self, cls: DagClass) -> float:
        if cls.is_empty:
            return 0.0
        sig = cls.signature()
        cached = self._cache.get(sig)
        if cached is not None:
            self.hits += 1
            return cached
        if not cls.steps:
            costing = self.model.plan_class(cls.entry, cls.scan_queries)
        else:
            costing = self.model.derive_class(
                cls.entry, cls.scan_queries, cls.steps, row_safety=ROW_SAFETY
            )
        cost = float("inf") if costing is None else costing.cost_ms
        self._cache[sig] = cost
        return cost

    def total(self, classes: Sequence[DagClass]) -> float:
        return left_sum(self.class_cost(cls) for cls in classes)


def _without_queries(
    classes: List[DagClass], drop_qids: set
) -> List[DagClass]:
    """A deep-enough copy of the state with ``drop_qids`` removed from
    every scan list and derive step (emptied steps/classes pruned)."""
    out: List[DagClass] = []
    for cls in classes:
        scan = [q for q in cls.scan_queries if q.qid not in drop_qids]
        steps = [
            kept
            for kept in (step.without(drop_qids) for step in cls.steps)
            if kept.queries
        ]
        candidate = DagClass(entry=cls.entry, scan_queries=scan, steps=steps)
        if not candidate.is_empty:
            out.append(candidate)
    return out


def greedy_search(
    model: CostModel,
    dag: PlanDag,
    seed_classes: Sequence[DagClass],
    queries: Sequence[GroupByQuery],
) -> Tuple[List[DagClass], DagSearch]:
    """Greedy materialization from the GG seed (see module docstring)."""
    # Moves build new states (``_without_queries``); the seed is never
    # mutated, so it is the first state as handed in.
    classes = list(seed_classes)
    coster = _Coster(model)
    stats = DagSearch(dag=dag)
    stats.initial_est_ms = coster.total(classes)
    by_qid = {q.qid: q for q in queries}
    # One synthetic intermediate per candidate node, fixed for the whole
    # search so the final plan's derive steps have stable qids.
    intermediates: Dict[str, GroupByQuery] = {}
    for key in dag.candidate_keys:
        node = dag.nodes[key]
        intermediates[key] = intermediate_query(node.kind, node.levels)

    while len(stats.materializations) < MAX_ITERATIONS:
        stats.passes += 1
        current_total = coster.total(classes)
        min_gain_ms = MIN_GAIN_FRAC * current_total
        best_delta = 0.0
        best_state: Optional[List[DagClass]] = None
        best_move: Optional[Materialization] = None
        for key in dag.candidate_keys:
            node = dag.nodes[key]
            inter = intermediates[key]
            for host in classes:
                entry = host.entry
                if not source_can_answer(
                    entry.levels, entry.source_aggregate, inter
                ):
                    continue
                est_rows = model.intermediate_rows(entry, inter)
                inflated_rows = ROW_SAFETY * est_rows
                # Queries the intermediate can answer, excluding those
                # already derived from this very node on this host, and
                # those whose current feed is already at least as small.
                already = {
                    qid
                    for step in host.steps
                    if step.node_key == key
                    for qid in step.qids
                }
                movable: List[GroupByQuery] = []
                for qid in node.consumers:
                    if qid in already:
                        continue
                    query = by_qid.get(qid)
                    if query is None:
                        continue
                    holder = _holding_entry(classes, qid)
                    if holder is not None and (
                        inflated_rows >= holder.n_rows
                    ):
                        continue
                    movable.append(query)
                if not movable:
                    continue
                stats.moves_evaluated += 1
                trial = _without_queries(
                    classes, {q.qid for q in movable}
                )
                trial_host = next(
                    (c for c in trial if c.entry.name == entry.name), None
                )
                if trial_host is None:
                    trial_host = DagClass(entry=entry)
                    trial.append(trial_host)
                # The host's step on this node grows in place; a new one
                # goes last.
                steps = trial_host.steps
                at = next(
                    (i for i, s in enumerate(steps) if s.node_key == key),
                    len(steps),
                )
                held = steps[at].queries if at < len(steps) else ()
                steps[at : at + 1] = [
                    DeriveStep(inter, held + tuple(movable), est_rows, key)
                ]
                delta = coster.total(trial) - current_total
                if delta < best_delta and -delta >= min_gain_ms:
                    best_delta = delta
                    best_state = trial
                    best_move = Materialization(
                        node_key=key,
                        host=entry.name,
                        qids=sorted(q.qid for q in movable),
                        gain_ms=-delta,
                    )
        if best_state is None:
            break
        classes = best_state
        stats.materializations.append(best_move)
    stats.final_est_ms = coster.total(classes)
    stats.costings_memoized = coster.hits
    return classes, stats


def _holding_entry(
    classes: Sequence[DagClass], qid: int
) -> Optional[TableEntry]:
    """The entry of the class currently feeding ``qid`` (scan members are
    fed the entry's rows; derived members an intermediate's — either way
    the entry bounds the feed size)."""
    for cls in classes:
        if any(q.qid == qid for q in cls.scan_queries) or any(
            qid in step.qids for step in cls.steps
        ):
            return cls.entry
    return None
