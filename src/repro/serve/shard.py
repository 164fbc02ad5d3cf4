"""Data shards: partition the data, not the plan.

The serve layer compiles **one** global plan per micro-batch; this module
lets that plan execute across N data shards.  :func:`build_shards`
hash-partitions every catalog table on a chosen dimension key into N
:class:`Shard`\\ s — each shard owns private heap tables and private
rebuilt join indexes.  Handing the resulting :class:`ShardSet` to
:func:`~repro.core.executor.execute_plan` (``shard_set=``) makes the
executor's grid N columns wide: every plan class runs on every shard in a
private cold context, and the per-class fold gathers by merging partial
aggregates (:func:`~repro.core.operators.results.merge_partial_results`):

* SUM / COUNT merge by summation, MIN by ``min``, MAX by ``max`` — all
  distributive, per the Data Cube recipe (Gray et al.);
* AVG is *algebraic*: each shard's result carries its (sum, count) pairs
  in ``QueryResult.avg_state``, the gather sums both components across
  shards, and the final average is one division — exact.

Invariants (enforced by the executor-equivalence tests and the paranoia
sweep):

* **N=1 is byte-identical** to unsharded execution — the single shard
  holds every row in original order with the original page geometry and
  a one-cell class is passed through unmerged, so results, simulated
  costs, and :class:`~repro.core.operators.results.OperatorActuals` (a DAG class's
  intermediate included) all match exactly;
* **N>1 is result-identical**: the merged groups equal the unsharded
  groups (simulated cost differs — each shard pays its own dimension
  hash builds — which is the price of the parallelism), and the merged
  actuals omit a DAG intermediate's ``n_groups``, which is not a merged
  quantity (:func:`~repro.core.operators.results.merge_actuals`).

Fault injection reaches shards through the ``shard.exec`` site (attrs:
``shard``, ``table``), so a chaos plan can kill a single shard; the serve
layer's retry/degrade ladder recovers the batch while sibling shards'
work is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..obs.metrics import default_registry
from ..storage.catalog import Catalog
from ..storage.table import HeapTable

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database

#: Knuth's multiplicative hash constant; spreads small consecutive
#: dimension keys across shards far better than a bare modulo.
_HASH_MULTIPLIER = 2654435761


def shard_of(key, n_shards: int):
    """Deterministic shard assignment of one dimension key (or, element-
    wise, of an int64 array of keys)."""
    return ((key * _HASH_MULTIPLIER) & 0xFFFFFFFF) % n_shards


@dataclass
class Shard:
    """One data shard: a private catalog of row-disjoint table slices.

    The shard's tables reuse the originals' names, column layouts, and
    page sizes, so a plan class compiled against the global catalog lowers
    onto the shard unchanged; its indexes are rebuilt per shard at the
    same (dimension, level) keys and kinds as the originals.
    """

    shard_id: int
    catalog: Catalog
    #: Fact rows this shard owns (raw base table slice).
    n_rows: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard({self.shard_id}, {self.n_rows} fact row(s))"


@dataclass
class ShardSet:
    """The N shards of one database, plus the identity of the partition.

    ``data_version`` records the database mutation epoch the partition was
    built at; the serve layer rebuilds a stale set before executing on it.
    """

    shards: List[Shard]
    dim_name: str
    data_version: int

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def stale(self, data_version: int) -> bool:
        """Whether the database has mutated since this set was built."""
        return data_version != self.data_version


def build_shards(
    db: "Database", n_shards: int, dim_name: Optional[str] = None
) -> ShardSet:
    """Hash-partition every catalog table of ``db`` into ``n_shards``.

    ``dim_name`` picks the partition dimension (default: the schema's
    first dimension).  Each table's rows are routed by the multiplicative
    hash of the partition dimension's *stored* key and appended in
    original scan order, so every row lands in exactly one shard and the
    single shard of ``n_shards=1`` is byte-identical to the original
    table (same rows, same order, same page geometry).  A table that
    aggregates the partition dimension to ALL stores key 0 for every row
    and legally collapses onto one shard.

    Partitioning and index rebuilds are offline work: nothing is charged
    to the query cost clock.  Emits ``shard.<i>.rows`` gauges so the
    balance of the partition is observable.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1 (got {n_shards})")
    schema = db.schema
    if dim_name is None:
        dim_name = schema.dimensions[0].name
    dim_index = schema.dim_index(dim_name)
    shards = [
        Shard(shard_id=i, catalog=Catalog()) for i in range(n_shards)
    ]
    for entry in db.catalog.entries():
        source = entry.table
        parts = [
            HeapTable(source.name, source.columns, page_size=source.page_size)
            for _ in range(n_shards)
        ]
        keys, measures = source.read_columns(source.n_columns - 1)
        owner = shard_of(keys[dim_index], n_shards)
        for shard, part in zip(shards, parts):
            mine = owner == shard.shard_id
            part.extend_columns([key[mine] for key in keys], measures[mine])
            shard_entry = shard.catalog.register(
                part,
                entry.levels,
                clustered=entry.clustered,
                source_aggregate=entry.source_aggregate,
            )
            if entry.is_raw:
                shard.n_rows += part.n_rows
            for (index_dim, level), index in entry.indexes.items():
                dim = schema.dimensions[index_dim]
                stored = entry.levels[index_dim]
                rebuilt = type(index).build(
                    part,
                    part.name,
                    index_dim,
                    level,
                    column_index=index_dim,
                    key_to_member=dim.rollup_map(stored, level),
                    n_members=dim.n_members(level),
                )
                shard_entry.add_index(index_dim, level, rebuilt)
    metrics = default_registry()
    for shard in shards:
        metrics.gauge(
            f"shard.{shard.shard_id}.rows",
            "fact rows owned by this shard",
        ).set(shard.n_rows)
    metrics.counter(
        "shard.sets_built", "shard partitions built or rebuilt"
    ).inc()
    return ShardSet(
        shards=shards, dim_name=dim_name, data_version=db.data_version
    )
