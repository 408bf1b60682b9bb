"""Per-layer timing of ``wasserstein2`` and ``geodesic_profile`` on
pytest-benchmark.

Run from the repository root (tier-1 collects only ``tests/``):

    python -m pytest benchmarks/test_transport.py --benchmark-json=out.json

``wasserstein2`` runs on 3-d normal atoms between uniform measures at n = 40
and 200 (the assignment route) and between Dirichlet(1) weights at n = 40,
200 and 400 (the LP route, on sparse marginal rows), from a
Dirichlet-weighted frame to its canonical dual (the identity pairing,
certified without a solver), and over ten pairs of 2-d normal atoms with
unfloored Dirichlet(0.2) weights at n = 20 and 30 (the LP route on tiny
marginals, some near 1e-10).  ``geodesic_profile`` runs at
n = 16 and 50, from a uniform 3-d frame to its canonical dual, on the
default 101-point grid.  ``is_cyclically_monotone`` runs at n = 150 on 3-d
normal points, unpaired (an improving transposition decides) and paired
along an optimal assignment (the identity's potentials decide).
"""

import numpy as np
import pytest

from pframes.duality import canonical_dual
from pframes.geodesics import geodesic_profile
from pframes.measures import DiscreteMeasure
from pframes.optim import hungarian
from pframes.transport import is_cyclically_monotone, wasserstein2


def measure(rng, n, weights):
    if weights == "uniform":
        return DiscreteMeasure(atoms=rng.normal(size=(n, 3)), weights=np.full(n, 1.0 / n))
    return DiscreteMeasure(atoms=rng.normal(size=(n, 3)), weights=rng.dirichlet(np.ones(n)))


@pytest.mark.parametrize(
    "weights, n",
    [("uniform", 40), ("uniform", 200), ("dirichlet", 40), ("dirichlet", 200), ("dirichlet", 400)],
)
def test_wasserstein2(benchmark, weights, n):
    rng = np.random.default_rng(n)
    mu, nu = measure(rng, n, weights), measure(rng, n, weights)
    solution = benchmark(wasserstein2, mu, nu)
    assert (solution.permutation is not None) == (weights == "uniform")


@pytest.mark.parametrize("n", [20, 30])
def test_wasserstein2_tiny_weights(benchmark, n):
    rng = np.random.default_rng([n, 2])
    pairs = [
        [DiscreteMeasure(rng.normal(size=(n, 2)), rng.dirichlet(np.full(n, 0.2))) for _ in range(2)]
        for _ in range(10)
    ]
    solutions = benchmark(lambda: [wasserstein2(mu, nu) for mu, nu in pairs])
    assert all(solution.permutation is None for solution in solutions)


@pytest.mark.parametrize("n", [16, 50])
def test_geodesic_profile(benchmark, n):
    mu = measure(np.random.default_rng(n), n, "uniform")
    profile = benchmark(geodesic_profile, mu, canonical_dual(mu))
    assert profile.all_frames


@pytest.mark.parametrize("n", [40, 200])
def test_wasserstein2_to_canonical_dual(benchmark, n):
    mu = measure(np.random.default_rng(n), n, "dirichlet")
    solution = benchmark(wasserstein2, mu, canonical_dual(mu))
    assert np.allclose(solution.plan.coupling, np.diag(mu.weights), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("paired", [False, True], ids=["unpaired", "paired"])
def test_is_cyclically_monotone(benchmark, paired):
    rng = np.random.default_rng(150)
    xs, ys = rng.normal(size=(150, 3)), rng.normal(size=(150, 3))
    if paired:
        ys = ys[hungarian(-(xs @ ys.T))[0]]
    monotone, _ = benchmark(is_cyclically_monotone, list(zip(xs, ys)))
    assert monotone == paired
