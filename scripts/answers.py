"""Print the answers of one benchmark cycle, one line per request.

Builds a workload of perfbench/workloads.py for a seed, runs its requests
once in cycle order, and prints for each one its label and the repr of its
answer, or the error it raised.  Two checkouts that give the same answers
print the same text, so a diff of two runs shows every answer a change
moved.  With `--workload all` or several seeds, each cycle follows a
`# WORKLOAD seed S` header line.  Nothing is timed or judged here, and
nothing under perfbench/ is written.

Examples:
    python scripts/answers.py --workload exact_queries --seed 1
    python scripts/answers.py --workload numeric_queries --seed 2 > after.txt
    python scripts/answers.py --workload all --seed 1 2 3 > after.txt
"""

import argparse
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("exact_queries", "numeric_queries", "function_algebra")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True, nargs="+")
    args = ap.parse_args(argv)

    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))  # workloads imports its oracle by module name
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    cycles = [(name, seed) for name in names for seed in args.seed]
    for name, seed in cycles:
        if len(cycles) > 1:
            print(f"# {name} seed {seed}")
        for req in workloads.build(name, seed).requests:
            try:
                answer = repr(req.call())
            except Exception as exc:  # a failed request is an answer too
                answer = f"error {type(exc).__name__}: {exc}"
            print(f"{req.label}\t{answer}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
