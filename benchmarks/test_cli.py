"""End-to-end timing of CLI start-up and commands on pytest-benchmark.

Run from the repository root (tier-1 collects only ``tests/``):

    python -m pytest benchmarks/test_cli.py --benchmark-json=out.json

Every round is a fresh interpreter, so the times include interpreter start
and imports: ``python -c "import pframes.cli"``, then ``python -m
pframes.cli`` on ``frame-report`` (a 3-atom 2-d frame), ``transport-dual``
(that frame and its canonical dual, which pair atom by atom, so no LP),
``geodesic-profile`` (the same pair, whose identity pairing is certified
without the assignment solver), ``monotone`` (20 optimally paired 2-d
points, also decided without it), ``semidiscrete-adapt`` (3 sites on a 2-d
Gaussian, 20k samples) and ``wasserstein`` twice: the frame against 4 atoms
of unequal weights (the LP) and against its canonical dual listed in reverse
(the assignment solver), on fixture files in ``tmp_path``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ANGLES = [math.pi / 2 + 2 * math.pi * k / 3 for k in range(3)]
FRAME = {"dim": 2, "atoms": [[math.cos(a), math.sin(a)] for a in ANGLES], "weights": [1 / 3] * 3}
# The frame operator of FRAME is I / 2, so its canonical dual doubles every atom.
DUAL = {**FRAME, "atoms": [[2 * x for x in atom] for atom in FRAME["atoms"]]}
# Unequal weights on another cardinality: W2 solves the transportation LP.
SKEWED = {
    "dim": 2,
    "atoms": [[1.0, 0.2], [-0.4, 1.0], [0.3, -0.9], [-0.8, -0.5]],
    "weights": [0.1, 0.2, 0.3, 0.4],
}
# The dual out of order: a transposition beats the identity pairing, so W2
# runs the assignment solver.
REVERSED = {**DUAL, "atoms": DUAL["atoms"][::-1]}
# 20 points on a circle paired with their images under x -> A x, A positive
# definite: the gradient of a convex quadratic, so cyclically monotone.
POINTS = [[math.cos(0.3 * k), math.sin(0.3 * k)] for k in range(20)]
PAIRS = {"xs": POINTS, "ys": [[2.0 * x + 0.5 * y, 0.5 * x + y] for x, y in POINTS]}
SITES = {
    "sites": [[1.0, 0.0], [-0.3, 1.0], [-0.7, -1.0]],
    "targets": [0.4, 0.35, 0.25],
    "reference": {"type": "gaussian", "dim": 2},
}


def python(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import(benchmark, tmp_path):
    benchmark.pedantic(python, ("-c", "import pframes.cli"), {"cwd": tmp_path}, rounds=10)


@pytest.mark.parametrize(
    "command",
    [
        ["frame-report", "frame.json"],
        ["transport-dual", "frame.json", "dual.json"],
        ["geodesic-profile", "frame.json", "dual.json"],
        ["monotone", "pairs.json"],
        ["semidiscrete-adapt", "sites.json", "--samples", "20000", "--seed", "1"],
        ["wasserstein", "frame.json", "skewed.json"],
        ["wasserstein", "frame.json", "reversed.json"],
    ],
    ids=[
        "frame-report",
        "transport-dual",
        "geodesic-profile",
        "monotone",
        "semidiscrete-adapt",
        "wasserstein-lp",
        "wasserstein-assignment",
    ],
)
def test_command(benchmark, tmp_path, command):
    fixtures = {
        "frame.json": FRAME,
        "dual.json": DUAL,
        "skewed.json": SKEWED,
        "reversed.json": REVERSED,
        "pairs.json": PAIRS,
        "sites.json": SITES,
    }
    for name, payload in fixtures.items():
        (tmp_path / name).write_text(json.dumps(payload))
    out = benchmark.pedantic(
        python, ("-m", "pframes.cli", *command), {"cwd": tmp_path}, rounds=10
    )
    if command[0] == "geodesic-profile":
        assert out.startswith("t,lambda_min,lambda_max,m2\n")
    else:
        assert json.loads(out)["config"]["command"] == command[0]
