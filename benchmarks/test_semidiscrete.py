"""Per-layer timing of semi-discrete adaptation on pytest-benchmark.

Run from the repository root (tier-1 collects only ``tests/``):

    python -m pytest benchmarks/test_semidiscrete.py --benchmark-json=out.json

``adapt_weights`` fits sites spread by farthest-point sampling to Dirichlet
targets: 8 and 32 sites on the unit square at 200k samples, 16 in the unit
cube at 100k (the median group of the ``adapt`` workload in ``bench/``) and
16 on a 2-d standard Gaussian at 200k;
``assign_cells`` labels 200k points of the unit cube with 16 sites;
``reconstruct`` runs analysis and synthesis over 100k samples of a 16-site
coupling on the unit square.
"""

import numpy as np
import pytest

from pframes.semidiscrete import (
    BoxReference,
    GaussianReference,
    adapt_weights,
    assign_cells,
    reconstruct,
)

SQUARE = BoxReference(lower=[0.0, 0.0], upper=[1.0, 1.0])
CUBE = BoxReference(lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0])


def spread_sites(rng, reference, count):
    pool = reference.sample(rng, 4000)
    chosen = [0]
    gap = ((pool - pool[0]) ** 2).sum(axis=1)
    for _ in range(count - 1):
        chosen.append(int(np.argmax(gap)))
        gap = np.minimum(gap, ((pool - pool[chosen[-1]]) ** 2).sum(axis=1))
    return pool[chosen]


@pytest.mark.parametrize(
    "n, reference, samples",
    [
        (8, SQUARE, 200_000),
        (32, SQUARE, 200_000),
        (16, CUBE, 100_000),
        (16, GaussianReference(2), 200_000),
    ],
    ids=["square-8", "square-32", "cube-16", "gaussian-16"],
)
def test_adapt_weights(benchmark, n, reference, samples):
    rng = np.random.default_rng(n)
    sites = spread_sites(rng, reference, n)
    targets = rng.dirichlet(np.full(n, 5.0))
    coupling = benchmark(adapt_weights, sites, targets, reference, samples, seed=n)
    assert np.abs(coupling.achieved_masses - coupling.target_weights).max() <= 1e-3


def test_assign_cells(benchmark):
    rng = np.random.default_rng(16)
    sites = rng.uniform(size=(16, 3))
    weights = rng.normal(size=16) * 0.05
    points = rng.uniform(size=(200_000, 3))
    cells = benchmark(assign_cells, sites, weights, points)
    assert cells.shape == (200_000,)


def test_reconstruct(benchmark):
    rng = np.random.default_rng(100)
    coupling = adapt_weights(spread_sites(rng, SQUARE, 16), np.full(16, 1.0 / 16), SQUARE, 100_000, seed=3)
    x = np.array([0.6, -0.8])
    out = benchmark(reconstruct, x, coupling, coupling)
    assert out.shape == (2,)
