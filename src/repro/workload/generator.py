"""Synthetic fact-data generation.

The paper's base table has "four dimensional attributes and one measure
attribute" with 20-byte tuples; dimension keys draw from three-level
hierarchies.  The generator produces such rows with a seeded RNG, uniformly
by default, with optional Zipf skew per dimension for ablation studies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..schema.star import StarSchema
from ..storage.page import ColumnBatch
from ..storage.table import CENTS


def zipf_probabilities(n: int, theta: float) -> np.ndarray:
    """Zipf(θ) probabilities over ``n`` items (θ = 0 is uniform)."""
    if n <= 0:
        raise ValueError("need a positive domain size")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-theta)
    return weights / weights.sum()


def generate_fact_columns(
    schema: StarSchema,
    n_rows: int,
    seed: int = 42,
    skew: Optional[Sequence[float]] = None,
    measure_low: float = 1.0,
    measure_high: float = 100.0,
) -> ColumnBatch:
    """Generate ``n_rows`` facts column-wise: ``(one int64 key column per
    dimension, the int64 measure column)`` — what
    :meth:`~repro.storage.table.HeapTable.extend_columns` stores as is.

    ``skew[d]`` is the Zipf θ for dimension ``d`` (default all-uniform).
    Keys are leaf-level member ids.  Measures are uniform draws rounded to
    whole cents, held as int64 cents.
    """
    if n_rows < 0:
        raise ValueError("n_rows cannot be negative")
    if skew is None:
        skew = [0.0] * schema.n_dims
    if len(skew) != schema.n_dims:
        raise ValueError(
            f"skew must have one theta per dimension ({schema.n_dims})"
        )
    rng = np.random.default_rng(seed)
    columns: List[np.ndarray] = []
    for dim, theta in zip(schema.dimensions, skew):
        n_leaf = dim.n_members(0)
        if theta:
            probs = zipf_probabilities(n_leaf, theta)
            keys = rng.choice(n_leaf, size=n_rows, p=probs)
        else:
            keys = rng.integers(0, n_leaf, size=n_rows)
        columns.append(keys.astype(np.int64))
    uniform = rng.uniform(measure_low, measure_high, size=n_rows)
    return columns, np.rint(uniform * CENTS).astype(np.int64)


def generate_fact_rows(
    schema: StarSchema,
    n_rows: int,
    seed: int = 42,
    skew: Optional[Sequence[float]] = None,
    measure_low: float = 1.0,
    measure_high: float = 100.0,
) -> List[Tuple]:
    """:func:`generate_fact_columns` (same arguments, same draws) as a list
    of tuples ``(key_0, …, key_{n-1}, measure)`` of Python ints and the
    measure as a float in its unit (cents / 100) — the rows
    :meth:`~repro.engine.database.Database.load_base` and ``append_rows``
    take."""
    keys, cents = generate_fact_columns(
        schema, n_rows, seed, skew, measure_low, measure_high
    )
    columns = (*keys, cents / CENTS)
    return list(zip(*(column.tolist() for column in columns)))
