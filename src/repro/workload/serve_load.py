"""Client workload scripts for the serve layer's simulated load.

Builds per-client request sequences by reusing the random MDX generator
(:mod:`repro.workload.mdx_generator`): a shared pool of expressions models
the overlap real dashboards exhibit (many users asking the same handful of
views), and an ``overlap`` dial mixes in private one-off expressions.  Each
request is translated to its component group-by queries up front, so the
load driver measures the serve layer, not the parser.

Everything is seeded: the same ``(schema, seed, knobs)`` always produces
the same scripts, request for request — only the serve-side arrival
interleaving varies between runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..mdx import translate_mdx
from ..schema.query import GroupByQuery
from ..schema.star import StarSchema
from .mdx_generator import generate_mdx


@dataclass
class ClientScript:
    """One simulated client's request sequence."""

    client_id: int
    #: One entry per request: the MDX text it stands for.
    mdx_texts: List[str] = field(default_factory=list)
    #: One entry per request: its translated component queries.
    requests: List[List[GroupByQuery]] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        """Requests this client will issue."""
        return len(self.requests)

    @property
    def n_queries(self) -> int:
        """Total component queries across the client's requests."""
        return sum(len(queries) for queries in self.requests)


def expression_pool(
    schema: StarSchema, rng: random.Random, pool_size: int
) -> List[str]:
    """A pool of distinct-ish MDX expressions clients draw from."""
    return [generate_mdx(schema, rng).text for _ in range(pool_size)]


def client_scripts(
    schema: StarSchema,
    n_clients: int,
    requests_per_client: int,
    seed: int = 0,
    overlap: float = 0.75,
    pool_size: int = 8,
) -> List[ClientScript]:
    """Deterministic per-client request scripts.

    ``overlap`` is the probability a request is drawn from the shared
    expression pool (coalescing fodder) rather than freshly generated
    (private work).  Translation happens here, once per request, so every
    request carries its own query instances (fresh qids) while overlapping
    requests stay semantically identical — exactly what the scheduler's
    deduplication keys on.
    """
    rng = random.Random(seed)
    pool = expression_pool(schema, rng, max(1, pool_size))
    scripts: List[ClientScript] = []
    for client_id in range(n_clients):
        script = ClientScript(client_id=client_id)
        for _ in range(requests_per_client):
            if rng.random() < overlap:
                text = rng.choice(pool)
            else:
                text = generate_mdx(schema, rng).text
            script.mdx_texts.append(text)
            script.requests.append(list(translate_mdx(schema, text)))
        scripts.append(script)
    return scripts
