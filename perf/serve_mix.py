"""Workload ``serve_mix``: the serving path — queueing, coalescing,
wide-batch planning, fan-out.

The paper database with its views at scale 0.01 behind a ``QueryService``
(10 ms batching window, 2 workers, flight recorder off, no result cache).
Requests are MDX expressions: a pool of 8 shared ones plus private
one-offs at overlap 0.75, a quarter of them asking for fine levels only
the base table stores.  Two phases share the run:

* *steady* — open loop, 20 requests/s from one generator; an op is one
  request and its latency counts from the instant it was **due**, so a
  stall is charged to every request it delays.  Most requests are their
  own batch and the batching window is the floor of their latency.
* *burst* — 128 requests queued before the scheduler starts, so they form
  two full batches of 64; repeated until the time is used.  Throughput
  and the simulated cost per request come from here: the single scheduler
  thread serialises plan -> execute -> fan-out, so plan time is on every
  request's blocking path.

Load comes from this one process and its single generator thread.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import gen
from harness import Run, Tracing, Verify, median, per, percentile
from repro.engine import query_key
from repro.mdx import translate_mdx
from repro.serve import QueryService, ServeConfig, ServeError
from repro.workload import PaperConfig, build_paper_database

NAME = "serve_mix"
#: Steady-phase latency is mostly the 10 ms batching window — a timer, not
#: interpreter work — so it is reported as measured, not speed-normalised.
OPS_ARE_INTERPRETER_BOUND = False
#: The service plans on its own thread, where the driver's single-threaded
#: span log cannot follow; its published per-request stages are used.
WRAP_DB = False
STEADY_RATE = 20.0
BURST_REQUESTS = 128
STEP_RATES = (40.0, 80.0)
#: A rate is sustained when p90 stays under the limit and the queue has
#: drained within a second of the last arrival.
LATENCY_LIMIT_MS = 250.0
DRAIN_LIMIT_S = 1.0
RESULT_TIMEOUT_S = 30.0
VERIFY_SAMPLE = 64
STAGES = ("queued", "coalesce", "plan", "execute", "gather")


@dataclass
class State:
    db: object
    config: PaperConfig
    #: Translated requests of one burst, and the pool steady phases cycle.
    burst: List[list]
    steady: List[list]
    rng: random.Random


def config_for(seed: int) -> PaperConfig:
    return PaperConfig(scale=0.01, seed=seed)


def service(db, flight_recorder: int = 0) -> QueryService:
    return QueryService(
        db,
        ServeConfig(
            window_ms=10.0,
            n_workers=2,
            flight_recorder=flight_recorder,
            max_queue_depth=4 * BURST_REQUESTS,
        ),
    )


def _answers(futures) -> list:
    """The response of every request, None for one that failed or was
    refused (``future`` None): whatever made a batch fail is re-raised by
    its futures, and an unanswered request is a failed op, not a failed
    run.  One deadline covers the whole collection, so a hung service
    costs ``RESULT_TIMEOUT_S`` once, not once per request."""
    deadline = time.monotonic() + RESULT_TIMEOUT_S
    responses = []
    for future in futures:
        if future is None:
            responses.append(None)
            continue
        try:
            responses.append(
                future.result(timeout=max(0.0, deadline - time.monotonic()))
            )
        except Exception:  # noqa: BLE001 - counted as a failed op
            responses.append(None)
    return responses


def run_burst(db, requests: List[list], flight_recorder: int = 0):
    """Queue every request, then start the scheduler and drain:
    ``(wall seconds, responses or None per request, service stats)``."""
    svc = service(db, flight_recorder)
    futures = [svc.submit(queries) for queries in requests]
    started = time.perf_counter()
    svc.start()
    responses = _answers(futures)
    wall = time.perf_counter() - started
    svc.stop()
    return wall, responses, svc.stats.snapshot()


def n_answered(responses) -> int:
    """Component queries the answered requests asked for."""
    return sum(r.n_queries for r in responses if r)


def open_loop(svc: QueryService, requests: List[list], schedule: List[float]):
    """Submit ``requests`` at their due times regardless of completions and
    collect afterwards: ``(rows, drain seconds)`` with one row
    ``(due, submitted, response or None)`` per request, both instants on
    the ``perf_counter`` clock; the drain is how long after the last due
    instant the last answer came."""
    instants = []
    futures = []
    origin = time.perf_counter()
    for offset, queries in zip(schedule, requests):
        due = origin + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        instants.append((due, time.perf_counter()))
        try:
            futures.append(svc.submit(queries))
        except ServeError:  # refused at the door
            futures.append(None)
    rows = [
        (due, submitted, response)
        for (due, submitted), response in zip(instants, _answers(futures))
    ]
    return rows, time.perf_counter() - (origin + schedule[-1])


def latencies_ms(rows) -> List[float]:
    """Latency from the due instant of every answered request."""
    return [
        (submitted - due + response.latency_s) * 1e3
        for due, submitted, response in rows
        if response is not None
    ]


def setup(seed: int, smoke: bool) -> State:
    config = config_for(seed)
    db = build_paper_database(config=config)
    rng = random.Random(seed)
    n_burst = BURST_REQUESTS // 8 if smoke else BURST_REQUESTS
    burst, steady = (
        [
            list(translate_mdx(db.schema, text))
            for text in gen.request_texts(db.schema, rng, n_burst)
        ]
        for _ in range(2)
    )
    state = State(db=db, config=config, burst=burst, steady=steady, rng=rng)
    run_burst(db, burst + steady)  # warm-up
    return state


def _steady_phase(state: State, rate: float, seconds: float):
    """One open-loop phase at ``rate``: ``(rows, drain s, batches)``."""
    n = max(2, int(rate * seconds))
    requests = [state.steady[i % len(state.steady)] for i in range(n)]
    schedule = gen.arrival_schedule(state.rng, rate, n)
    with service(state.db) as svc:
        rows, drain_s = open_loop(svc, requests, schedule)
    return rows, drain_s, svc.stats.snapshot().n_batches


def _trace_requests(tracing: Tracing, rows, parent: int) -> None:
    """Add one driver span per served request, from its due instant to its
    answer, with its published stages laid end to end beneath it."""
    for i, (due, submitted, response) in enumerate(rows):
        if response is None:
            continue
        end = submitted + response.latency_s
        trace_id = f"request-{i}"
        span = tracing.driver.add("serve.request", due, end, parent, trace_id)
        cursor = submitted
        for stage in STAGES:
            timing = response.stages.get(stage)
            if timing is not None:
                stage_end = cursor + timing.wall_ms / 1e3
                tracing.driver.add(f"serve.{stage}", cursor, stage_end, span, trace_id)
                cursor = stage_end


def _steady(state: State, out: Run, seconds: float, tracing: Tracing) -> None:
    """The steady phase: latency of open-loop requests from their due
    instants."""
    with tracing.op(state.db, "steady", "steady") as span:
        rows, _drain, batches = _steady_phase(state, STEADY_RATE, seconds)
    if tracing.enabled:
        _trace_requests(tracing, rows, span)
    out.op_ms = latencies_ms(rows)
    out.attempted += len(rows)
    out.failed += len(rows) - len(out.op_ms)
    out.keep["steady"] = rows
    out.layer["serve.steady_batches"] = batches
    out.layer["serve.generator_lag_ms_max"] = max(
        (submitted - due) * 1e3 for due, submitted, _response in rows
    )
    out.layer["serve.queued_ms_p50"] = median(
        response.stages["queued"].wall_ms
        for _due, _submitted, response in rows
        if response is not None
    )


def _bursts(state: State, out: Run, seconds: float, tracing: Tracing) -> None:
    """The burst phase: pre-queued bursts until the time is used.  Exact
    counters come from the first burst; every later burst must answer as
    the first did."""
    db = state.db
    stage_ms: Dict[str, float] = dict.fromkeys(STAGES[1:], 0.0)
    n_batches = n_requests = n_queries = 0
    wall_ms = 0.0
    first = None
    out.speed.sample()
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        before = db.stats.snapshot()
        with tracing.op(db, "burst", f"burst-{n_batches}"):
            wall, responses, stats = run_burst(db, state.burst)
        out.speed.sample()
        n_queries += n_answered(responses)
        wall_ms += wall * 1e3
        n_requests += len(responses)
        n_batches += stats.n_batches
        batches = {r.batch_id: r for r in responses if r}
        for response in batches.values():
            for stage in stage_ms:
                stage_ms[stage] += response.stages[stage].wall_ms
        if first is None:
            first = responses
            io = db.stats.delta_since(before)
            out.add_exact(
                sim_ms=stats.sim_ms_total,
                seq_page_reads=io.seq_page_reads,
                rand_page_reads=io.rand_page_reads,
            )
            out.exact_ops = len(responses)
            out.layer["serve.batches"] = stats.n_batches
            out.layer["serve.requests_per_batch"] = per(len(responses), stats.n_batches)
            out.layer["serve.coalesce_ratio"] = stats.coalesce_ratio
        out.failed += _count_differing(first, responses)
    # One rate for the phase: a handful of bursts is too few for a median.
    out.rates.append(n_queries / (wall_ms / 1e3))
    out.attempted += n_requests
    out.keep["burst"] = first
    for stage, total in stage_ms.items():
        out.layer[f"serve.{stage}_ms_per_batch"] = per(total, n_batches)
    out.layer["plan.optimize_ms_per_op"] = per(stage_ms["plan"], n_requests)
    out.layer["plan.share"] = per(stage_ms["plan"], wall_ms)
    out.layer["execute.ms_per_op"] = per(stage_ms["execute"], n_requests)
    out.layer["execute.share"] = per(stage_ms["execute"], wall_ms)


def run(state: State, seconds: float, tracing: Tracing) -> Run:
    out = Run()
    _steady(state, out, seconds / 2, tracing)
    _bursts(state, out, seconds / 2, tracing)
    return out


def _count_differing(first, responses) -> int:
    """Requests unanswered, or answered differently from the first burst
    (compared by value: a batch split differently may sum in another
    order)."""
    differing = 0
    for reference, response in zip(first, responses):
        if response is None or reference is None:
            differing += 1
            continue
        if any(
            not response.results[qid].approx_equals(expected)
            for qid, expected in reference.results.items()
        ):
            differing += 1
    return differing


def verify(state: State, run: Run) -> Verify:
    """A seeded sample of served requests, steady and burst: every result
    against the oracle, and against the same request run alone through
    ``Database.run_queries``."""
    check = Verify()
    served: List[Tuple[list, object]] = list(zip(state.burst, run.keep["burst"]))
    served += [
        (state.steady[i % len(state.steady)], response)
        for i, (_due, _submitted, response) in enumerate(run.keep["steady"])
    ]
    random.Random(len(served)).shuffle(served)
    seen = set()
    for queries, response in served:
        if check.checked >= 2 * VERIFY_SAMPLE:
            break
        if response is None or id(queries) in seen:
            continue
        seen.add(id(queries))
        alone = state.db.run_queries(queries, "gg")
        for query in queries:
            check.check(state.db, response.results[query.qid])
            check.same(response.results[query.qid], alone.result_for(query))
    return check


def extra_layers(state: State, run: Run, seconds: float) -> Dict[str, float]:
    """Traced-pass extras: latency at higher open-loop rates, the highest
    rate within the limit, and what the flight recorder costs.  Ungated:
    near the knee the service flips between unbatched and self-batched
    regimes from run to run."""
    out: Dict[str, float] = {}
    sustained = 0.0
    if not run.failed and percentile(run.op_ms, 0.9) <= LATENCY_LIMIT_MS:
        sustained = STEADY_RATE
    for rate in STEP_RATES:
        rows, drain_s, _batches = _steady_phase(state, rate, seconds / 5)
        answered = latencies_ms(rows)
        p90 = percentile(answered, 0.9)
        out[f"serve.rate{rate:.0f}_ms_p90"] = p90
        if (
            len(answered) == len(rows)
            and p90 <= LATENCY_LIMIT_MS
            and drain_s <= DRAIN_LIMIT_S
        ):
            sustained = max(sustained, rate)
    out["serve.max_rate_within_limit"] = sustained
    recorded = [run_burst(state.db, state.burst, flight_recorder=32) for _ in range(3)]
    recorded_rate = sum(n_answered(r) for _w, r, _s in recorded) / sum(
        wall for wall, _r, _s in recorded
    )
    out["serve.recorder_overhead_ratio"] = per(run.rates[0], recorded_rate)
    return out


def sweep_queries(state: State) -> list:
    """The distinct component queries of the burst's first batch."""
    seen = {}
    for queries in state.burst[:64]:
        for query in queries:
            seen.setdefault(query_key(query), query)
    return list(seen.values())
