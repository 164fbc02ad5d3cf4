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
  concurrent-load harness behind ``repro serve``
  (:func:`simulation_service` is the service it runs by default).

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
from .retry import RetryPolicy
from .service import QueryService, ServiceStats
from .simulate import (
    SimulationConfig,
    SimulationReport,
    run_simulation,
    simulation_service,
)

__all__ = [
    "AdmissionError",
    "DeadlineExceeded",
    "MicroBatch",
    "QueryService",
    "RequestQuarantined",
    "RetryPolicy",
    "ServeConfig",
    "ServeError",
    "ServeFuture",
    "ServeRequest",
    "ServeResponse",
    "ServiceStats",
    "ServiceStopped",
    "StageTiming",
    "SimulationConfig",
    "SimulationReport",
    "assemble_batch",
    "run_simulation",
    "simulation_service",
]
