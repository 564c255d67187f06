"""One workload in one fresh interpreter; prints one JSON summary line.

Modes:
  setup    import ultraseq and build the inputs, then stop
  timed    closed loop, one client, for --seconds; end-to-end numbers
  traced   the first `trace_requests` requests under the tracer
  replay   the same requests without the tracer, for the overhead
  cycle    every request of one cycle once, untraced (the pre-timing check)

Run by perfbench/run.py with the package's src directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

OUT_DIR = Path(".perfbench_out")


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(sorted_values: list[float], preferred: float) -> tuple[float, float]:
    """The workload's tail percentile, or the highest lower rung that still
    leaves at least ten samples beyond it."""
    n = len(sorted_values)
    for pct in (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        if pct > preferred:
            continue
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return pct, sorted_values[rank - 1]
    return 50.0, _percentile(sorted_values, 50.0)


def _call(req) -> tuple[object, str | None]:
    try:
        return req.call(), None
    except Exception as exc:  # a failed request is a result, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def _run(requests, indices, tracer=None):
    """Execute the given requests in order; returns answers, errors and wall time."""
    answers, errors = [], []
    start = time.perf_counter()
    for rid, i in enumerate(indices):
        if tracer is not None:
            tracer.request_id = rid
        ans, err = _call(requests[i])
        answers.append(ans)
        errors.append(err)
    return answers, errors, time.perf_counter() - start


def _timed(requests, seconds: float):
    """Closed loop over the cycle until `seconds` have passed; the last
    request always completes.  The rate counts the requests that ended
    before the deadline over the time to the last of them, so a long
    request straddling the deadline neither adds to nor dents it."""
    answers, errors, latencies, indices = [], [], [], []
    start = prev_end = time.perf_counter()
    deadline = start + seconds
    while True:
        i = len(indices) % len(requests)
        t0 = time.perf_counter()
        ans, err = _call(requests[i])
        t1 = time.perf_counter()
        answers.append(ans)
        errors.append(err)
        latencies.append(t1 - t0)
        indices.append(i)
        if t1 >= deadline:
            done = len(indices) - 1
            rate = done / (prev_end - start) if done else 1.0 / (t1 - start)
            return answers, errors, latencies, indices, t1 - start, rate
        prev_end = t1


def _verify(requests, indices, answers, errors) -> dict:
    """Compare every answer with its oracle; every request gets an outcome."""
    tally = {"attempted": 0, "right": 0, "wrong": 0, "inconclusive": 0, "failed": 0,
             "unexpected_wrong": 0, "unexpected_failed": 0, "evaluated": 0}
    by_kind: dict[str, dict[str, int]] = {}
    first_errors: dict[str, str] = {}
    for i, ans, err in zip(indices, answers, errors):
        req = requests[i]
        tally["attempted"] += 1
        if err is not None:
            outcome = "failed"
            first_errors.setdefault(req.label, err)
        else:
            try:
                outcome = req.check(ans)
            except Exception as exc:  # an oracle that cannot judge is a failure
                outcome = "failed"
                first_errors.setdefault(req.label, f"oracle: {type(exc).__name__}: {exc}")
        if outcome not in ("right", "wrong", "inconclusive", "failed"):
            raise RuntimeError(f"oracle of {req.label!r} returned {outcome!r}")
        tally["evaluated"] += 1
        tally[outcome] += 1
        if outcome == "wrong" and req.must_match:
            tally["unexpected_wrong"] += 1
            first_errors.setdefault(req.label, f"wrong answer {ans!r}")
        if outcome == "failed" and not req.defect:
            tally["unexpected_failed"] += 1
        k = by_kind.setdefault(req.kind, {"right": 0, "wrong": 0, "inconclusive": 0, "failed": 0})
        k[outcome] += 1
    tally["by_kind"] = by_kind
    tally["errors"] = dict(list(first_errors.items())[:8])
    return tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "traced", "replay", "cycle"])
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    import ultraseq  # noqa: F401  (the package import is part of set-up)
    import ultraseq.cli  # noqa: F401
    import ultraseq.corpus  # noqa: F401

    t_import = time.perf_counter()
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True

    import workloads

    wl = workloads.build(args.workload, args.seed)
    t_ready = time.perf_counter()
    out = {
        "setup_s": t_ready - T_START,
        "import_s": t_import - T_START,
        "inputs_s": t_ready - t_import,
        "fingerprint": wl.fingerprint(),
        "mix": wl.mix(),
        "cycle": len(wl.requests),
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    reqs = wl.requests
    if args.mode == "timed":
        answers, errors, latencies, indices, wall, rate = _timed(reqs, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        lat = sorted(latencies)
        pct, tail = _tail(lat, wl.tail_percentile)
        out.update(
            n=len(lat),
            wall_s=wall,
            queries_per_s=rate,
            latency_p50_ms=1000.0 * _percentile(lat, 50.0),
            latency_tail_ms=1000.0 * tail,
            tail_percentile=pct,
            peak_rss_mb=peak_kb / 1024.0,
        )
    else:
        indices = list(range(len(reqs))) if args.mode == "cycle" else list(range(wl.trace_requests))
        answers, errors, wall = _run(reqs, indices, tracer)
        out.update(n=len(indices), wall_s=wall)
        if tracer is not None:
            tracer.active = False
            counts = dict(tracer.counts)
            counts["temperate.map.evals"] = wl.map_evals[0]
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            out.update(
                counts=counts,
                self_ms=tracer.layer_self_ms(),
                spans=tracer.write_spans(spans_path),
                spans_file=str(spans_path),
            )
        if args.mode == "cycle":
            out["kinds_in_cycle"] = sorted({r.kind for r in reqs})
    out["verify"] = _verify(reqs, indices, answers, errors)
    if args.workload == "numeric_queries":
        out["probe_oracle_errors"] = workloads.sampled_probe_oracle_consistent()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
