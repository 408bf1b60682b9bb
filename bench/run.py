"""pframes benchmark: one closed-loop caller runs one workload's operation list.

Run from the repository root:

    python3 bench/run.py --workload duals --seed 0 --seconds 25 --trace 0

Each operation starts only after the previous one has finished and been
verified.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
every operation untraced and then traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON report with the failure share, the tail percentile, the environment
and a per-kind breakdown.  The library is imported from ``src/`` of the
checkout this file sits in; scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# BLAS and OpenMP pools are pinned before numpy loads, here and in every
# CLI subprocess.  One thread is at most nproc on any machine and keeps a
# shared host's noise out of the small dense kernels.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pframes.cli; print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("duals", "transport", "adapt", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-check")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_probe(env: dict, cwd: Path) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports pframes.cli, and the
    import time it measures itself."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return perf_counter() - start, float(proc.stdout)


def execute(fn, op, numeric_error, checks) -> tuple[str, float, str, str]:
    """Time one call, then verify its result outside the timed region."""
    start = perf_counter()
    try:
        result = fn()
    except numeric_error as exc:
        return op.kind, perf_counter() - start, "numeric", str(exc)
    except Exception as exc:  # an untyped failure on a valid input is a defect; record it
        return op.kind, perf_counter() - start, "error", f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        op.check(result)
    except checks.CheckFailed as exc:
        return op.kind, elapsed, "check", str(exc)
    except checks.NumericFailure as exc:
        return op.kind, elapsed, "numeric", str(exc)
    return op.kind, elapsed, "ok", ""


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n - 1
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def summarize(records) -> dict:
    kinds: dict[str, list] = {}
    for kind, seconds, outcome, _ in records:
        kinds.setdefault(kind, []).append((seconds, outcome))
    return {
        kind: {
            "ops": len(rows),
            "failed": sum(outcome != "ok" for _, outcome in rows),
            "p50_ms": 1e3 * statistics.median(s for s, _ in rows),
        }
        for kind, rows in kinds.items()
    }


def set_up(args, workloads, numeric_error, env: dict, scratch: Path):
    """Set up several times and keep every timing: a fresh interpreter that
    imports pframes.cli, instance generation from the seed, and a warm-up
    pass on tiny inputs.  Returns the operations and both timing lists."""
    import numpy as np

    ctx = workloads.Context(tiny=args.tiny, work=scratch, env=env)
    warm_dir = scratch / "warm"
    warm_dir.mkdir()
    warm_ctx = workloads.Context(tiny=True, work=warm_dir, env=env)
    setups, import_times = [], []
    for _ in range(SETUP_REPEATS):
        wall, imported = import_probe(env, scratch)
        import_times.append(imported)
        start = perf_counter()
        ops = workloads.build(args.workload, np.random.default_rng([args.seed, 1]), ctx)
        warm = workloads.build(args.workload, np.random.default_rng([args.seed, 2]), warm_ctx)
        for op in warm[:1] if args.workload == "cli" else warm:
            try:
                op.call()
            except numeric_error:
                pass
        setups.append(wall + perf_counter() - start)
    return ops, setups, import_times


def measure(ops, seconds: float, tracer, numeric_error, checks):
    """Run the fixed operation list in whole passes, so every run times the
    same operations and the tail is always the same percentile.  Another
    pass starts only if it should end within ``seconds``.

    A traced run executes each operation untraced first (a CLI operation
    also as a subprocess), then traced, and reports the traced execution.
    Returns the reported rows per pass, the other executions, the untraced
    in-process times and the CLI subprocess times."""
    passes, checked, plain, process_times = [], [], [], []
    start = perf_counter()
    pass_s = 0.0
    while not passes or perf_counter() - start + pass_s <= seconds:
        begin = perf_counter()
        rows = []
        for index, op in enumerate(ops):
            if tracer is None:
                rows.append(execute(op.call, op, numeric_error, checks))
                continue
            fn = op.call
            if op.replay is not None:
                row = execute(op.call, op, numeric_error, checks)
                process_times.append(row[1])
                checked.append(row)
                fn = op.replay
            row = execute(fn, op, numeric_error, checks)
            plain.append(row[1])
            checked.append(row)
            tracer.op = index
            tracer.install()
            try:
                rows.append(execute(fn, op, numeric_error, checks))
            finally:
                tracer.uninstall()
        pass_s = perf_counter() - begin
        passes.append(rows)
    return passes, checked, plain, process_times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pframes" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = str(THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import pframes
    from pframes.errors import NumericError

    if Path(pframes.__file__).resolve().parent != SRC / "pframes":
        print(f"bench: pframes imported from {pframes.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    env = child_env()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{run_id}-") as scratch:
        ops, setups, import_times = set_up(args, workloads, NumericError, env, Path(scratch))
        passes, checked, plain, process_times = measure(
            ops, args.seconds, tracer, NumericError, checks
        )

    records = [row for rows in passes for row in rows]
    outcomes = Counter(row[2] for row in records + checked)
    failed = sum(row[2] != "ok" for row in records)
    timing = []
    for rows in passes:
        times = [row[1] for row in rows]
        timing.append((len(times) / sum(times), statistics.median(times), tail(times)))
    ops_per_s = statistics.median(t[0] for t in timing)
    _, tail_pct, beyond = timing[0][2]
    if tracer is None:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1e3 * statistics.median(t[1] for t in timing),
            "op_tail_ms": 1e3 * statistics.median(t[2][0] for t in timing),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    else:
        # Per pass, so that runs with different pass counts compare.
        metrics = {
            name: (value / len(passes), unit) if unit in ("count", "s") else (value, unit)
            for name, (value, unit) in tracer.layer_metrics().items()
        }
        metrics["cli.import_s"] = (statistics.median(import_times), "s")
        metrics["cli.process_s"] = (statistics.median(process_times) if process_times else 0.0, "s")
        traced = sum(row[1] for row in records)
        metrics["trace.overhead_share"] = (1.0 - sum(plain) / traced, "share")
        tracer.write(WORK / f"spans-{run_id}.jsonl")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": THREADS,
            "omp_threads": THREADS,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "failed_share": {"value": failed / len(records), "unit": "share"},
        "passes": len(passes),
        "op_tail_ms": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(ops)},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "outcomes": dict(outcomes),
        "kinds": summarize(records),
        "failures": dict(Counter(f"{r[0]}: {r[3][:60]}" for r in records if r[2] != "ok")),
    }
    ops_log = [[kind, 1e3 * seconds, outcome] for kind, seconds, outcome, _ in records]
    (WORK / f"report-{run_id}.json").write_text(
        json.dumps(dict(report, ops=ops_log), indent=1), encoding="utf-8"
    )
    print(json.dumps(report))
    result = {
        "correct": outcomes["check"] == 0 and outcomes["error"] == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
