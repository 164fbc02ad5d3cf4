"""Profile one op of a ``perf/`` workload: which layer is the wall?

    python3 .github/profile_op.py WORKLOAD [--seed N] [--ops K] [--rows R]

Imports ``perf/<workload>.py`` read-only — its ``setup`` (database build
and warm-up), then its own op function — and prints the *unprofiled*
median wall of K ops, then cProfile's top rows over K more ops by
cumulative and by self time.  cProfile taxes every Python call and nothing
inside native code, so the rows are shares for finding a candidate, never
a measurement: claims go through ``perf/run.py`` pairs
(docs/performance.md).  Threads the op starts (``serve_mix`` plans and
executes on the service's) each get their own profiler, merged into the
one table.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(OPS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--ops", type=int, default=24)
    parser.add_argument("--rows", type=int, default=25, help="rows per table")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]
    module = importlib.import_module(args.workload)
    state = module.setup(args.seed, False)

    def op(i: int):
        return OPS[args.workload](module, state, i)

    walls = []
    for i in range(args.ops):
        started = time.perf_counter()
        op(i)
        walls.append((time.perf_counter() - started) * 1e3)
    print(
        f"{args.workload} seed {args.seed}: median op "
        f"{statistics.median(walls):.2f} ms unprofiled over {args.ops} op(s)"
    )
    stats = profile(op, args.ops)
    stats.strip_dirs()
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(args.rows)
    print(stats.stream.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
