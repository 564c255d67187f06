"""ultraseq benchmark: the command-line entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact_queries --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload function_algebra --seed 1 --trace 1
    python3 perfbench/run.py --check --workload numeric_queries --seed 1

Every measurement runs in a fresh interpreter (perfbench/worker.py) with
the package imported from ./src.  `--trace 0` reports the end-to-end
metrics of an untraced closed loop; `setup_s` is the median over several
fresh set-ups.  `--trace 1` reports the per-layer metrics of a traced run
over a fixed request prefix, and the overhead against the same prefix
untraced.  `--check` runs one cycle of the workload and verifies that
every oracle comparison is evaluated, that the inputs depend on the seed
alone, and that the machine-independent counts repeat.

The human-readable report comes first; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3  # extra fresh set-ups; with the timed run's own, 4 samples
BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, deadline: float, seconds: float = 0.0,
            env_extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # one client in one process: no BLAS or OpenMP worker threads either
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(env_extra or {})
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _code_digest() -> str:
    """Identifies the package and benchmark code that produced a count record."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _correct(verify: dict) -> bool:
    return (
        verify["evaluated"] == verify["attempted"]
        and verify["unexpected_wrong"] == 0
        and verify["unexpected_failed"] == 0
    )


def _report_verify(verify: dict) -> list[str]:
    n = verify["attempted"]
    lines = [
        f"failed_ratio {verify['failed'] / n:.6f} (raised or errored, of {n} attempted; "
        f"{verify['failed'] - verify['unexpected_failed']} from known-defect probes)",
        f"wrong_ratio {verify['wrong'] / n:.6f} (decided answers contradicting the oracle; "
        f"{verify['unexpected_wrong']} on answers claimed exact or certified)",
        f"inconclusive_ratio {verify['inconclusive'] / n:.6f}",
    ]
    for kind, tally in sorted(verify["by_kind"].items()):
        lines.append(f"  {kind}: " + " ".join(f"{k}={v}" for k, v in tally.items()))
    for label, err in verify["errors"].items():
        lines.append(f"  first error on {label}: {err}")
    return lines


def run_untraced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list[str]]:
    setups = [_worker(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    main = _worker(workload, seed, "timed", deadline, seconds)
    fingerprints = {s["fingerprint"] for s in setups} | {main["fingerprint"]}
    verify = main["verify"]
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    values = {
        "setup_s": statistics.median([s["setup_s"] for s in setups] + [main["setup_s"]]),
        "queries_per_s": main["queries_per_s"],
        "latency_p50_ms": main["latency_p50_ms"],
        "latency_tail_ms": main["latency_tail_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = _correct(verify) and len(fingerprints) == 1 and not main.get("probe_oracle_errors")
    lines = [
        f"workload {workload} seed {seed}: closed loop, 1 client, {main['wall_s']:.2f} s timed, "
        f"src lines {_src_lines()}",
        f"mix {json.dumps(main['mix'], sort_keys=True)}",
    ]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"latency samples {main['n']}; tail is p{main['tail_percentile']:g}; "
                 f"setup samples {len(setups) + 1}")
    lines += _report_verify(verify)
    if len(fingerprints) != 1:
        lines.append("inputs differ between fresh interpreters on one seed")
    for err in main.get("probe_oracle_errors", []):
        lines.append(f"exact tier disagrees with a probe's known value: {err}")
    result = {"correct": correct, "attempted": verify["attempted"],
              "failed": verify["unexpected_failed"], "metrics": metrics}
    return result, lines


def _layer_value(name: str, traced: dict, replay: dict):
    counts, self_ms = traced["counts"], traced["self_ms"]
    special = {
        "spaces.ultranorm_sampled.stable_ratio": (
            counts.get("spaces.ultranorm_sampled.stable", 0)
            / max(1, counts.get("spaces.ultranorm_sampled.calls", 0))
        ),
        "setup.import_s": replay["import_s"],
        "setup.inputs_s": replay["inputs_s"],
        "trace.overhead_ratio": traced["wall_s"] / replay["wall_s"] - 1.0,
        "trace.spans": traced["spans"],
        "trace.requests": traced["n"],
    }
    if name in special:
        return special[name]
    if name.endswith(".self_ms"):
        return self_ms.get(name[: -len(".self_ms")], 0.0)
    return counts.get(name, 0)


def run_traced(workload: str, seed: int, deadline: float) -> tuple[dict, list[str]]:
    traced = _worker(workload, seed, "traced", deadline)
    replay = _worker(workload, seed, "replay", deadline)
    counts = traced["counts"]
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"counts-{workload}-seed{seed}-{_code_digest()}.json"
    lines = [f"workload {workload} seed {seed}: traced {traced['n']} requests, "
             f"{traced['spans']} spans written to {traced['spans_file']}, src lines {_src_lines()}"]
    repeat_ok = True
    if record.exists():
        previous = json.loads(record.read_text())
        diff = sorted(k for k in set(previous) | set(counts) if previous.get(k) != counts.get(k))
        repeat_ok = not diff
        lines.append("counts repeat the earlier run on this seed" if repeat_ok
                     else f"counts differ from the earlier run on this seed: {diff[:8]}")
    else:
        record.write_text(json.dumps(counts, indent=1, sort_keys=True))
    same_answers = traced["verify"]["by_kind"] == replay["verify"]["by_kind"]
    if not same_answers:
        lines.append("traced and untraced runs gave different answers")
    metrics = {
        m["name"]: {"value": _layer_value(m["name"], traced, replay), "unit": m["unit"]}
        for m in _spec()["per_layer"]
    }
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += _report_verify(traced["verify"])
    verify = traced["verify"]
    result = {"correct": _correct(verify) and repeat_ok and same_answers,
              "attempted": verify["attempted"], "failed": verify["unexpected_failed"],
              "metrics": metrics}
    return result, lines


def run_check(workload: str, seed: int) -> int:
    """Run one cycle and prove the oracles, the seed and the counts."""
    deadline = time.monotonic() + 3600.0
    problems = []
    a = _worker(workload, seed, "setup", deadline, env_extra={"PYTHONHASHSEED": "1"})
    b = _worker(workload, seed, "setup", deadline, env_extra={"PYTHONHASHSEED": "2"})
    other = _worker(workload, seed + 1, "setup", deadline)
    if a["fingerprint"] != b["fingerprint"]:
        problems.append("inputs depend on more than the seed (two fresh interpreters differ)")
    elif a["fingerprint"] == other["fingerprint"]:
        problems.append("inputs do not depend on the seed")
    else:
        print("inputs: identical in two fresh interpreters on one seed, different on the next seed")
    cycle = _worker(workload, seed, "cycle", deadline)
    verify = cycle["verify"]
    print(f"cycle of {cycle['cycle']} requests in {cycle['wall_s']:.1f} s; kinds {cycle['kinds_in_cycle']}")
    for line in _report_verify(verify):
        print(line)
    if verify["evaluated"] != cycle["cycle"] or verify["attempted"] != cycle["cycle"]:
        problems.append(f"{cycle['cycle'] - verify['evaluated']} requests were not evaluated")
    if sorted(verify["by_kind"]) != cycle["kinds_in_cycle"]:
        problems.append("a request kind was never evaluated")
    if not _correct(verify):
        problems.append("an answer claimed exact or certified contradicts its oracle, or a request failed")
    problems += cycle.get("probe_oracle_errors", [])
    t1 = _worker(workload, seed, "traced", deadline)
    t2 = _worker(workload, seed, "traced", deadline)
    if t1["counts"] != t2["counts"]:
        diff = sorted(k for k in set(t1["counts"]) | set(t2["counts"])
                      if t1["counts"].get(k) != t2["counts"].get(k))
        problems.append(f"machine-independent counts differ between two runs: {diff[:8]}")
    else:
        print(f"counts: all {len(t1['counts'])} repeat exactly in a second traced run")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("check passed" if not problems else "check failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true", help="verify the workload instead of timing it")
    args = ap.parse_args(argv)
    if not (SRC / "ultraseq" / "__init__.py").is_file():
        print(f"error: no ultraseq package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in _spec()["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    try:
        if args.check:
            return run_check(args.workload, args.seed)
        deadline = time.monotonic() + BUDGET_S
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        if args.trace:
            result, lines = run_traced(args.workload, args.seed, deadline)
        else:
            result, lines = run_untraced(args.workload, args.seed, seconds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
