"""Self-test of the benchmark's count metrics.

    python3 bench/selftest.py [--workload NAME ...]

For each workload it runs one traced pass for seed 1 twice and for seeds
2 to 6 once, through the same ``run_op`` the benchmark uses.  Every count
must repeat exactly for seed 1, every op must pass its check, and every count
that the seed's inputs determine must take another value for at least one
other seed.  ``codebook.distance_refused`` is a property of the program, not
of the inputs, so it only has to repeat.  Exit code 0 when all hold.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread cap before NumPy is imported

SEED_DRIVEN = ("shift_rows", "pmepr_seqs", "positions", "restrictions", "members", "codewords", "_bytes", "bytes_out")
OTHER_SEEDS = (2, 3, 4, 5, 6)


def pass_counts(name: str, seed: int) -> dict[str, int]:
    import workloads
    from spans import Tracer

    tracer, log = Tracer(), run.Log()
    with tempfile.TemporaryDirectory(dir=run.RESULTS, prefix="selftest-") as workdir:
        ops = workloads.WORKLOADS[name](seed, Path(workdir)).ops
        for i, op in enumerate(ops):
            run.run_op(op, tracer, i, log)
    if log.failures:
        raise AssertionError(f"{name} seed {seed}: ops failed: {log.failures}")
    return {k: v for k, v in tracer.counts.items() if not k.startswith("construct.balance_")}


def check_workload(name: str) -> list[str]:
    first = pass_counts(name, 1)
    problems = [f"{name}: {k} is {v} then {first.get(k)} for seed 1" for k, v in pass_counts(name, 1).items() if first.get(k) != v]
    others = [pass_counts(name, s) for s in OTHER_SEEDS]
    for key, value in first.items():
        if key.endswith(SEED_DRIVEN) and all(o.get(key) == value for o in others):
            problems.append(f"{name}: {key} = {value} for every seed in 1, {OTHER_SEEDS}")
    print(f"{name}: counts for seed 1 {first}", flush=True)
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", action="append", choices=sorted(run.WORKLOAD_NAMES))
    args = p.parse_args(argv)
    run.import_cskit()
    run.RESULTS.mkdir(exist_ok=True)
    problems = [msg for name in args.workload or run.WORKLOAD_NAMES for msg in check_workload(name)]
    for msg in problems:
        print("FAIL " + msg)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
