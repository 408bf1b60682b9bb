"""Per-layer timing of ``optim.hungarian`` on pytest-benchmark.

Run from the repository root (tier-1 collects only ``tests/``):

    PYTHONPATH=src python -m pytest benchmarks/test_assignment.py --benchmark-json=out.json

Sizes follow the ``transport`` workload: n = 50 and 150, on random normal
costs (no ties) and on squared distances between integer-grid atoms in
{0..3}^2 (16 distinct points, so most costs tie).
"""

import numpy as np
import pytest

from pframes.optim import hungarian


def assignment_cost(kind, n):
    rng = np.random.default_rng(n)
    if kind == "random":
        return rng.normal(size=(n, n))
    xs, ys = (rng.integers(0, 4, size=(n, 2)).astype(float) for _ in range(2))
    diff = xs[:, None, :] - ys[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@pytest.mark.parametrize("n", [50, 150])
@pytest.mark.parametrize("kind", ["random", "grid"])
def test_hungarian(benchmark, kind, n):
    cost = assignment_cost(kind, n)
    perm = benchmark(hungarian, cost)
    assert sorted(perm) == list(range(n))
