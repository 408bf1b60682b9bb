"""Per-layer timing of ``find_transport_dual`` on pytest-benchmark.

Run from the repository root (tier-1 collects only ``tests/``):

    python -m pytest benchmarks/test_duality.py --benchmark-only

Four kinds of pair at n = 20 and 50 in 3-d, each with a known answer:

- ``canonical``: a frame with Dirichlet(2) weights and its canonical dual,
  which pair atom by atom (the diagonal coupling decides it);
- ``split``: the same canonical dual with a third of its atoms split into two
  unequal copies around the atom, feasible with another cardinality (one LP);
- ``obstruction``: a uniform zero-centroid frame against an equal-weight
  measure on 3 points, which has no transport dual (the first-moment
  certificate, built in closed form);
- ``obstruction-lp``: the same frame against an equal-weight measure on 4
  generic points, also without a transport dual, whose atoms lie on no
  common hyperplane (one LP, a certificate).
"""

import numpy as np
import pytest

from pframes.duality import FarkasCertificate, TransportPlan, canonical_dual, find_transport_dual
from pframes.measures import DiscreteMeasure


def frame(rng, n):
    return DiscreteMeasure(atoms=rng.normal(size=(n, 3)), weights=rng.dirichlet(np.full(n, 2.0)))


def split_dual(rng, mu):
    dual = canonical_dual(mu)
    n = mu.count
    split = rng.choice(n, size=n // 3, replace=False)
    keep = np.setdiff1d(np.arange(n), split)
    share = rng.uniform(0.2, 0.8, size=split.size)
    delta = 0.5 * rng.normal(size=(split.size, 3))
    atoms = np.vstack(
        [
            dual.atoms[keep],
            dual.atoms[split] + (1.0 - share)[:, None] * delta,
            dual.atoms[split] - share[:, None] * delta,
        ]
    )
    weights = np.concatenate(
        [mu.weights[keep], share * mu.weights[split], (1.0 - share) * mu.weights[split]]
    )
    return DiscreteMeasure(atoms=atoms, weights=weights)


def pair(kind, n):
    rng = np.random.default_rng([n, len(kind)])
    if kind.startswith("obstruction"):
        atoms = rng.normal(size=(n, 3))
        mu = DiscreteMeasure(atoms=atoms - atoms.mean(axis=0), weights=np.full(n, 1.0 / n))
        m = 4 if kind == "obstruction-lp" else 3
        return mu, DiscreteMeasure(atoms=rng.normal(size=(m, 3)), weights=np.full(m, 1.0 / m))
    mu = frame(rng, n)
    return mu, canonical_dual(mu) if kind == "canonical" else split_dual(rng, mu)


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("kind", ["canonical", "split", "obstruction", "obstruction-lp"])
def test_find_transport_dual(benchmark, kind, n):
    mu, nu = pair(kind, n)
    result = benchmark(find_transport_dual, mu, nu)
    want = FarkasCertificate if kind.startswith("obstruction") else TransportPlan
    assert isinstance(result, want)
