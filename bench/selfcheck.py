"""Tiny-size self-check of the benchmark itself.

Runs every workload at the smallest sizes, untraced and traced, and checks
that the last output line has exactly the contract's keys, that every
metric named in BENCHMARK.json is printed by name with its unit, that the
report line carries the failure share and the tail percentile, and that
every operation verified.  Run from the repository root:

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if printed != wanted:
        missing = sorted(set(wanted) - set(printed))
        extra = sorted(set(printed) - set(wanted))
        wrong = sorted(n for n in wanted if n in printed and printed[n] != wanted[n])
        problems.append(f"{where}: missing {missing} extra {extra} wrong units {wrong}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} is not a number")
    if report.get("failed_share", {}).get("unit") != "share":
        problems.append(f"{where}: report lacks failed_share with its unit")
    if not {"percentile", "samples_beyond", "samples"} <= set(report.get("op_tail_ms", {})):
        problems.append(f"{where}: report lacks the tail percentile and sample count")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
