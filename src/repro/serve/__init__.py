"""``repro.serve`` — concurrent query service with cross-session
micro-batching.

The paper optimizes the component queries of one MDX expression together;
this package extends that sharing across *sessions*: concurrent requests
that arrive within a batching window are coalesced into one global plan
(duplicates collapse, cached queries bypass planning), the merged plan's
independent classes execute in parallel on private cold contexts, and
results fan back out to each caller's future.

Entry points:

* :class:`QueryService` / :class:`ServeConfig` — the service itself
  (``Database.serve(...)`` is a convenience constructor).
* :func:`run_simulation` / :class:`SimulationConfig` — the simulated
  concurrent-load harness behind ``repro serve --simulate``.
* :func:`build_shards` / :class:`ShardSet` — N hash partitions of the
  data for scatter-gather execution (``ServeConfig(shards=N)`` /
  ``repro serve --simulate --shards N`` /
  ``db.execute(plan, shard_set=...)``).

See ``docs/serving.md`` for the architecture and the batching-window
trade-off.
"""

from .batching import MicroBatch, ServeConfig, ServeRequest, assemble_batch
from .futures import (
    AdmissionError,
    DeadlineExceeded,
    RequestQuarantined,
    ServeError,
    ServeFuture,
    ServeResponse,
    ServiceStopped,
    StageTiming,
)
from .retry import RetryExhausted, RetryPolicy, SimulatedClock, call_with_retry
from .service import QueryService, ServiceStats
from .shard import Shard, ShardSet, build_shards
from .simulate import SimulationConfig, SimulationReport, run_simulation

__all__ = [
    "AdmissionError",
    "DeadlineExceeded",
    "MicroBatch",
    "QueryService",
    "Shard",
    "ShardSet",
    "build_shards",
    "RequestQuarantined",
    "RetryExhausted",
    "RetryPolicy",
    "ServeConfig",
    "ServeError",
    "ServeFuture",
    "ServeRequest",
    "ServeResponse",
    "ServiceStats",
    "ServiceStopped",
    "SimulatedClock",
    "StageTiming",
    "SimulationConfig",
    "SimulationReport",
    "assemble_batch",
    "call_with_retry",
    "run_simulation",
]
