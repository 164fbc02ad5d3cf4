"""repro.check — the differential correctness harness.

The paper's sharing claim is an *exactness* claim: the shared operators
must produce, for every component query, precisely the answer the
single-query plan would.  This package is the oracle asserting it:

* :mod:`repro.check.reference` — ground truth by naive tuple-at-a-time
  fold (no sharing, no indexes, no views): :func:`evaluate_reference` over
  any rows, :func:`reference_answer` over the raw fact table;
* :mod:`repro.check.validate` — a plan's two rules: coverage of the
  submitted batch (``Database.optimize`` checks every plan) and structure
  (lattice ancestry, method mix) before it runs;
* :mod:`repro.check.invariants` — the batch contract as the checks paranoia
  mode, the bench harness, the serve simulation and the tests all call.

Turn it on end to end with ``Database(schema, paranoia=True)`` (or set
``db.paranoia = True``, or pass ``--paranoia`` on the CLI): every plan is
validated before execution, every shared-operator result is cross-checked,
and a sample of each batch's cache hits is recomputed from scratch.
Failures raise :class:`CorrectnessError` naming the query and the first
divergent group.
"""

from .errors import (
    CorrectnessError,
    Divergence,
    PlanCoverageError,
    PlanValidationError,
)
from .invariants import (
    assert_same_answers,
    check_batch,
    check_plan,
    check_result,
    check_results,
    first_divergence,
    recheck_cache_hits,
)
from .reference import evaluate_reference, raw_base_entry, reference_answer
from .validate import (
    check_coverage,
    expected_operator,
    validate_class,
    validate_global_plan,
)

__all__ = [
    "CorrectnessError",
    "Divergence",
    "PlanCoverageError",
    "PlanValidationError",
    "assert_same_answers",
    "check_batch",
    "check_coverage",
    "check_plan",
    "check_result",
    "check_results",
    "evaluate_reference",
    "expected_operator",
    "first_divergence",
    "raw_base_entry",
    "recheck_cache_hits",
    "reference_answer",
    "validate_class",
    "validate_global_plan",
]
