"""Run one workload of the cskit benchmark and print its metrics.

    python3 bench/run.py --workload verify-large --seed 1 --seconds 15 --trace 0

The benchmark imports cskit from ``src/`` of the checkout it sits in, builds
the workload's inputs from the seed, then repeats whole passes of the
workload's ops (see ``workloads.py``) until ``--seconds`` have passed and,
untraced, at least ``MIN_PASSES`` passes ran.  It runs in one process, except that
``cli-chain`` runs the CLI as child processes one at a time, and that an
untraced run repeats its set-up in fresh interpreters, one at a time and
spread over the measured seconds, to time it.  Every op's output is checked;
an op that raises or fails its check counts in ``failed`` and the run goes on.
An op that ends in a typed refusal (its check returns a note) counts in
``ops_per_s`` but not in the latency percentiles, which describe ops that did
the workload's work.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``.
With ``--trace 1`` it runs every op once untraced and once traced and reports
the per-layer metrics: mean self time per op of each layer (seconds), counts
per pass, and the tracing overhead of the traced runs against the untraced
ones.  A layer the workload never calls reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record, with
the machine description and, for a traced run, every span, is written to
``bench/results/``.  The exit code is 0 when every op was correct.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)  # cap BLAS threads before NumPy is imported

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
MIN_PASSES = 2  # untraced: every op has two samples, and the median has ten beyond it (a pass does 11 ops or more)
SETUP_PROBES = 16  # set-ups in fresh interpreters per untraced run, besides the run's own
WORKLOAD_NAMES = ("verify-large", "design-sweep", "codebook", "cli-chain")
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_cskit():
    """Import cskit from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import cskit
    except ImportError as exc:
        sys.exit(f"run.py: cannot import cskit from {SRC}: {exc}")
    if Path(cskit.__file__).resolve().parent != SRC / "cskit":
        sys.exit(f"run.py: cskit was imported from {cskit.__file__}, not from {SRC}")


class Log:
    """Failures and notes of one run."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.notes: set[str] = set()

    def fail(self, label: str, what: str) -> None:
        self.failures.append(f"{label}: {what}")


def run_op(op, tracer, op_id: int, log: Log) -> tuple[float, bool]:
    """Run one op and check its result; return its latency and whether it did work, not refuse."""
    from workloads import CheckFailed

    tracer.op = op_id
    start = time.perf_counter()
    try:
        with tracer.span("op"):
            result = op.work(tracer)
    except Exception as exc:  # a program error fails this op; the run goes on
        log.fail(op.label, "".join(traceback.format_exception_only(exc)).strip())
        return time.perf_counter() - start, True
    latency = time.perf_counter() - start
    try:
        note = op.check(result)
    except CheckFailed as exc:
        log.fail(op.label, str(exc))
    except Exception as exc:
        log.fail(op.label, "check raised " + "".join(traceback.format_exception_only(exc)).strip())
    else:
        if note:
            log.notes.add(note)
            return latency, False
    return latency, True


def measure(ops, seconds: float, trace: bool, probe=None):
    """Repeat whole passes for ``seconds``; return untraced and traced (latency, did work) pairs.

    A traced run runs every op twice in a row, once untraced and once traced,
    alternating which goes first, so the overhead compares runs of the same
    op made moments apart.  ``probe``, when given, times one set-up; it is
    called ``SETUP_PROBES`` times between ops, evenly over the ``seconds``, so
    that the set-ups see the same drift in machine speed as the ops.
    """
    from spans import NullTracer, Tracer

    log = Log()
    tracer = Tracer() if trace else None
    untraced: list[tuple[float, bool]] = []
    traced: list[tuple[float, bool]] = []
    setups: list[float] = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds or (not trace and passes < MIN_PASSES):
        for j, op in enumerate(ops):
            if probe and len(setups) < SETUP_PROBES and time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES:
                setups.append(probe())
            sides = [(NullTracer(), untraced)] + ([(tracer, traced)] if trace else [])
            if (passes + j) % 2:
                sides.reverse()
            for tr, sink in sides:
                sink.append(run_op(op, tr, passes * len(ops) + j, log))
        passes += 1
    while probe and len(setups) < SETUP_PROBES:  # ops longer than the probe interval left some out
        setups.append(probe())
    return log, tracer, untraced, traced, passes, setups


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """The highest percentile above p50 with at least ten samples beyond it, and its value."""
    import numpy as np

    for pct in TAIL_PERCENTILES:
        if len(latencies) * (100.0 - pct) / 100.0 >= 10 - 1e-9:
            return pct, float(np.percentile(latencies, pct))
    return None


def end_to_end(untraced, setups, workload) -> tuple[dict, dict]:
    worked = [latency for latency, did_work in untraced if did_work]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(untraced) / sum(latency for latency, _ in untraced),
        "op_p50_s": statistics.median(worked),
        "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
    }
    details = {"op_tail": tail(worked), "op_samples": len(worked), "setup_samples_s": setups, "latencies_s": untraced}
    return values, details


def per_layer(tracer, ops, untraced, traced, passes) -> tuple[dict, dict]:
    from spans import self_times

    totals: Counter[str] = Counter()
    by_op: dict[str, Counter[str]] = defaultdict(Counter)
    for (name, _, _, _, op_id), own in zip(tracer.spans, self_times(tracer.spans)):
        totals[name] += own
        j = op_id % len(ops)
        by_op[f"{j:02d} {ops[j].label}"][name] += own / passes
    values = {("bench.unattributed_s" if name == "op" else name + "_s"): total / len(traced) for name, total in totals.items()}
    counts = dict(tracer.counts)
    attempts = counts.pop("construct.balance_attempts", 0)
    accepts = counts.pop("construct.balance_accepts", 0)
    if attempts:
        values["construct.balance_accept_ratio"] = accepts / attempts
    for name, total in counts.items():
        values[name] = total // passes if total % passes == 0 else total / passes
    values["trace.overhead_pct"] = 100.0 * (sum(t for t, _ in traced) / sum(t for t, _ in untraced) - 1.0)
    details = {"traced_passes": passes, "traced_ops": len(traced), "spans": len(tracer.spans), "self_s_by_op": by_op}
    return values, details


def _probe_setup(args) -> float:
    """Time set-up once more, in a fresh interpreter that stops before the first op."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    return float(out.stdout.split()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_cskit()
    import numpy

    import workloads

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        setup = time.perf_counter() - _T0
        if args.setup_probe:
            print(setup)
            return 0
        probe = None if args.trace else lambda: _probe_setup(args)
        log, tracer, untraced, traced, passes, probes = measure(workload.ops, args.seconds, bool(args.trace), probe)
        setups = [setup] + probes
        elapsed = time.perf_counter() - _T0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, details = per_layer(tracer, workload.ops, untraced, traced, passes)
        wanted = spec["per_layer"]
    else:
        values, details = end_to_end(untraced, setups, workload)
        wanted = spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    attempted = len(untraced) + len(traced)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }
    n_ops = len(workload.ops)
    details.update(
        passes=passes,
        ops_per_pass=n_ops,
        median_latency_s_by_op={f"{j:02d} {op.label}": statistics.median(t for t, _ in untraced[j::n_ops]) for j, op in enumerate(workload.ops)},
        wall_s=elapsed,
        fail_frac=len(log.failures) / attempted,
        failures=log.failures,
        notes=sorted(log.notes),
    )
    record = {"env": env, "metrics": metrics, "details": details}
    if args.trace:
        record["spans"] = tracer.spans
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    for note in sorted(log.notes):
        print("note " + note)
    for failure in log.failures[:20]:
        print("FAILED " + failure)
    print(f"details ops={attempted} passes={passes} fail_frac={details['fail_frac']:.4g} record={out.relative_to(ROOT)}")
    if not args.trace and details["op_tail"]:
        pct, value = details["op_tail"]
        print(f"details op_tail_s = {value:.6g} s, p{pct:g} of {details['op_samples']} op latencies")
    elif not args.trace:
        print(f"details op_tail_s omitted: no percentile above p50 has ten of {details['op_samples']} op latencies beyond it")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not log.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(log.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
