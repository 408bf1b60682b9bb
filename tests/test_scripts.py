"""Smoke tests: the experiment scripts (LP duals, geodesic sweeps and
semi-discrete adaptation) run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_dual_cardinality_demo_runs(tmp_path):
    proc = run_script("dual_cardinality_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "FEASIBLE" in proc.stdout


def test_geodesic_sweep_runs(tmp_path):
    proc = run_script("geodesic_sweep.py", "--grid", "11", "--outdir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert csvs
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0] == "t,lambda_min,lambda_max,m2"
        assert len(lines) == 12


def test_quartile_adaptation_runs(tmp_path):
    proc = run_script("quartile_adaptation.py", "--samples", "20000", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "vs exact quartile" in proc.stdout
    assert "log-log slope" in proc.stdout
