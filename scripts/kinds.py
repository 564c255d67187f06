"""Print where one warm benchmark cycle spends its time, by request kind.

Builds a workload of perfbench/workloads.py for a seed, runs one cycle
to warm up, then times `--cycles` more cycles in this process.  Each
request's time is its minimum over the timed cycles.  For each request
kind it prints the count, the summed time, its share of the cycle and
its time per request; then, for p50, p75, p90 and p95 of the request
times (nearest rank), the time and the kind of the request there.
`--split KIND` splits that kind into one row per space or weight that
ends its requests' labels (`classify:ultra`, `classify:egorov`, ...), so
a change can show which of them its time comes from.  Timings depend on
the machine; compare only runs on one host.  Nothing under perfbench/ is
written.

Examples:
    python scripts/kinds.py --workload function_algebra --seed 1
    python scripts/kinds.py --workload exact_queries --seed 2 --cycles 5
    python scripts/kinds.py --workload exact_queries --seed 1 --split classify
"""

import argparse
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("exact_queries", "numeric_queries", "function_algebra")
PERCENTILES = (50, 75, 90, 95)


def _times(requests, cycles: int) -> list[float]:
    """Each request's minimum time over `cycles` cycles, after one warm-up."""
    best = [math.inf] * len(requests)
    for cycle in range(cycles + 1):
        for i, req in enumerate(requests):
            t0 = time.perf_counter()
            try:
                req.call()
            except Exception:  # a failed request is timed like an answer
                pass
            if cycle:
                best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _row(req, split: str | None) -> str:
    """The row of a request: its kind, and for the kind `split` the space
    or weight after the last "; " of its label too, as in "classify:ultra"."""
    if req.kind != split or "; " not in req.label:
        return req.kind
    return f"{req.kind}:{req.label.rpartition('; ')[2].removesuffix(')')}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, default=3)
    ap.add_argument("--split", metavar="KIND", help="one row per space or weight of this request kind")
    args = ap.parse_args(argv)
    if args.cycles < 1:
        ap.error("--cycles must be at least 1")

    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))  # workloads imports its oracle by module name
    import workloads

    requests = workloads.build(args.workload, args.seed).requests
    times = _times(requests, args.cycles)
    total = sum(times)
    by_kind: dict[str, list[float]] = defaultdict(list)
    for req, t in zip(requests, times):
        by_kind[_row(req, args.split)].append(t)

    print(f"# {args.workload} seed {args.seed}: {len(requests)} requests, "
          f"warm cycle {1e3 * total:.2f} ms (minimum of {args.cycles} per request)")
    print("kind\trequests\tms\tshare\tms/request")
    for kind, ts in sorted(by_kind.items(), key=lambda item: -sum(item[1])):
        print(f"{kind}\t{len(ts)}\t{1e3 * sum(ts):.2f}\t{sum(ts) / total:.1%}\t{1e3 * sum(ts) / len(ts):.3f}")
    order = sorted(range(len(times)), key=times.__getitem__)
    for pct in PERCENTILES:
        i = order[max(1, math.ceil(pct / 100 * len(order))) - 1]
        print(f"p{pct}\t{1e3 * times[i]:.3f} ms\t{_row(requests[i], args.split)}\t{requests[i].label}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early, as `| head` does: point stdout at
        # devnull so that the exit's own flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
