"""Per-layer timing of ``optim.hungarian`` on pytest-benchmark.

Run from the repository root (tier-1 collects only ``tests/``):

    python -m pytest benchmarks/test_assignment.py --benchmark-json=out.json

Sizes follow the ``transport`` workload: n = 50, 100 and 150, on random
normal costs (no ties), on squared distances between integer-grid atoms in
{0..3}^2 (16 distinct points, so most costs tie), and on the negated gains
``-<x_i, y_j>`` of the same atoms that ``is_cyclically_monotone`` minimizes.
``paired`` is the negated gains of 3-d normal points reordered along an
optimal assignment, whose identity ``hungarian`` accepts by its potentials
without a solve.
"""

import numpy as np
import pytest

from pframes.optim import hungarian


def assignment_cost(kind, n):
    rng = np.random.default_rng(n)
    if kind == "random":
        return rng.normal(size=(n, n))
    if kind == "paired":
        xs, ys = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        return -(xs @ ys[hungarian(-(xs @ ys.T))[0]].T)
    xs, ys = (rng.integers(0, 4, size=(n, 2)).astype(float) for _ in range(2))
    if kind == "gains":
        return -(xs @ ys.T)
    diff = xs[:, None, :] - ys[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@pytest.mark.parametrize(
    "kind, n",
    [
        ("random", 50),
        ("random", 100),
        ("random", 150),
        ("grid", 50),
        ("grid", 100),
        ("grid", 150),
        ("gains", 150),
        ("paired", 150),
    ],
)
def test_hungarian(benchmark, kind, n):
    cost = assignment_cost(kind, n)
    perm, _ = benchmark(hungarian, cost)
    assert sorted(perm) == list(range(n))
    if kind == "paired":
        assert np.array_equal(perm, np.arange(n))
