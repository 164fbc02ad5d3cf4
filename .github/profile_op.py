"""Profile one op of a ``perf/`` workload: which layer is the wall?

    python3 .github/profile_op.py WORKLOAD [--seed N] [--ops K] [--rows R]
                                           [--calls NAME]

Imports ``perf/<workload>.py`` read-only — its ``setup`` (database build
and warm-up), then its own op function — and prints the *unprofiled*
median wall of K ops, then cProfile's top rows over K more ops by
cumulative and by self time.  cProfile taxes every Python call and nothing
inside native code, so the rows are shares for finding a candidate, never
a measurement: claims go through ``perf/run.py`` pairs
(docs/performance.md).  A thread the op starts (``serve_mix`` plans and
executes on the service's one scheduler thread) gets its own profiler,
merged into the one table.

``--calls NAME`` prints, instead of the tables, the calls per op of each
profiled function named ``NAME`` (say ``__add__``, or ``iostats.py:__add__``
for one file's), and under each its calls per op from each caller — a count,
so it is exact where the shares are not.

``append_query``'s op is the sum of ``_cycle``'s three timed calls (append,
query, cached query), as ``perf/append_query.py`` counts it, and that sum is
the median printed; the profile covers the whole ``_cycle``, so its rows
include ``gen.append_delta``'s generation of the appended rows.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import pstats
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: workload -> its op, as ``perf/<workload>.py``'s measured loop calls it.
OPS = {
    "base_scan": lambda module, state, i: module._round(state),
    "mdx_wide": lambda module, state, i: module._refresh(
        state, state.refreshes[i % len(state.refreshes)]
    ),
    "append_query": lambda module, state, i: module._cycle(
        state, module.Tracing(enabled=False)
    ),
    "serve_mix": lambda module, state, i: module.run_burst(state.db, state.burst),
}

#: workload -> the op's wall in seconds from what its call returns, where
#: the workload times less than the whole call.
OWN_WALLS = {"append_query": lambda result: sum(result[0])}


def profile(op, n_ops: int) -> pstats.Stats:
    """``n_ops`` calls of ``op`` under one profiler per thread."""
    profilers = [cProfile.Profile()]

    def follow(*_event) -> None:
        # The first profile event of a thread started inside the op: swap
        # this hook for a profiler of the thread's own.
        sys.setprofile(None)
        profilers.append(cProfile.Profile())
        profilers[-1].enable()

    threading.setprofile(follow)
    profilers[0].enable()
    try:
        for i in range(n_ops):
            op(i)
    finally:
        profilers[0].disable()
        threading.setprofile(None)
    out = io.StringIO()
    stats = pstats.Stats(profilers[0], stream=out)
    for profiler in profilers[1:]:
        stats.add(profiler)
    return stats


def print_calls(stats: pstats.Stats, name: str, n_ops: int) -> None:
    """Calls per op of each function ``name`` matches (``function`` or
    ``file:function``), most first, each caller's share under it."""

    def label(func) -> str:
        return f"{func[0]}:{func[1]}({func[2]})"

    matched = [
        (func, row)
        for func, row in stats.stats.items()
        if name in (func[2], f"{func[0]}:{func[2]}")
    ]
    print(f"calls per op of {name!r} over {n_ops} op(s):")
    if not matched:
        print("  (no such function was called)")
    for func, (_cc, n_calls, _tt, _ct, callers) in sorted(
        matched, key=lambda item: -item[1][1]
    ):
        print(f"{n_calls / n_ops:10.1f}  {label(func)}")
        for caller, counts in sorted(callers.items(), key=lambda c: -c[1][1]):
            print(f"{counts[1] / n_ops:14.1f}  from {label(caller)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(OPS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--ops", type=int, default=24)
    parser.add_argument("--rows", type=int, default=25, help="rows per table")
    parser.add_argument(
        "--calls", metavar="NAME", help="print calls per op of functions named NAME"
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]
    module = importlib.import_module(args.workload)
    state = module.setup(args.seed, False)

    def op(i: int):
        return OPS[args.workload](module, state, i)

    own_wall = OWN_WALLS.get(args.workload)
    walls = []
    for i in range(args.ops):
        started = time.perf_counter()
        result = op(i)
        wall = time.perf_counter() - started
        walls.append((own_wall(result) if own_wall else wall) * 1e3)
    print(
        f"{args.workload} seed {args.seed}: median op "
        f"{statistics.median(walls):.2f} ms unprofiled over {args.ops} op(s)"
    )
    stats = profile(op, args.ops)
    stats.strip_dirs()
    if args.calls:
        print_calls(stats, args.calls, args.ops)
        return 0
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(args.rows)
    print(stats.stream.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
