"""Discrete 2-Wasserstein distance, optimal plans, and cyclical monotonicity.

The squared distance between two finitely supported measures is the optimal
value of the transportation LP with squared-Euclidean cost.  When both
measures are uniform with equal support size, the Birkhoff-von Neumann
reduction applies: an optimal coupling is a permutation matrix over N, found
by the assignment solver; other pairs solve the LP.  Either plan is
certified, not re-solved: Kantorovich potentials for its support must be dual
feasible and close the primal-dual gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import TransportPlan
from .errors import NumericError
from .measures import DiscreteMeasure
from .optim import (
    MASS_EPS,
    LinearProgram,
    certify_potentials,
    hungarian,
    kantorovich_potentials,
    solve_lp,
)

Array = np.ndarray


@dataclass(frozen=True)
class OtSolution:
    """Optimal squared distance, the realizing plan, (for uniform
    equal-cardinality inputs) the optimal permutation, and the Kantorovich
    potentials ``(u, v)`` that certify the plan."""

    distance_squared: float
    plan: TransportPlan
    permutation: Array | None = None
    potentials: tuple[Array, Array] | None = None


def squared_distance_matrix(xs: Array, ys: Array) -> Array:
    diff = xs[:, None, :] - ys[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _is_uniform(measure: DiscreteMeasure) -> bool:
    return bool(np.abs(measure.weights - 1.0 / measure.count).max() <= 1e-12)


def _solve_transport_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: Array) -> tuple[Array, float]:
    n, m = mu.count, nu.count
    constraints = np.vstack(
        [np.kron(np.eye(n), np.ones((1, m))), np.kron(np.ones((1, n)), np.eye(m))]
    )
    rhs = np.concatenate([mu.weights, nu.weights])
    outcome = solve_lp(
        LinearProgram(constraint_matrix=constraints, rhs=rhs, objective=cost.ravel())
    )
    if outcome.status != "feasible":  # marginals always admit the product coupling
        raise NumericError("transportation LP reported infeasible")
    coupling = outcome.solution.reshape(n, m)
    return coupling, float((coupling * cost).sum())


def certify_plan(plan: TransportPlan) -> tuple[Array, Array]:
    """Kantorovich potentials ``(u, v)`` proving ``plan`` W2-optimal.

    The potentials come from the plan's support (entries above ``MASS_EPS``);
    a plan they do not certify raises ``NumericError`` naming the minimum
    slack and the primal-dual gap.
    """
    cost = squared_distance_matrix(plan.row_measure.atoms, plan.col_measure.atoms)
    u, v = kantorovich_potentials(cost, plan.coupling > MASS_EPS)
    certify_potentials(
        cost, plan.coupling, plan.row_measure.weights, plan.col_measure.weights, u, v,
        "transport plan",
    )
    return u, v


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """Optimal transport between two discrete measures for squared cost.

    Uniform inputs of equal cardinality take the assignment route, all others
    the LP; either plan must pass ``certify_plan``, and its potentials come
    back with it.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    cost = squared_distance_matrix(mu.atoms, nu.atoms)
    sigma = None
    if mu.count == nu.count and _is_uniform(mu) and _is_uniform(nu):
        n = mu.count
        sigma = hungarian(cost)
        value = float(cost[np.arange(n), sigma].sum() / n)
        coupling = np.zeros((n, n))
        coupling[np.arange(n), sigma] = 1.0 / n
    else:
        coupling, value = _solve_transport_lp(mu, nu, cost)
    plan = TransportPlan.from_solver(mu, nu, coupling)
    return OtSolution(
        distance_squared=max(value, 0.0), plan=plan, permutation=sigma, potentials=certify_plan(plan)
    )


def optimal_permutation(phi: Array, psi: Array) -> Array:
    """Permutation minimizing total squared displacement between two lists.

    Equivalently maximizes the total inner product (the squared norms do not
    depend on the pairing, so they cancel).  Ties resolve to the
    lexicographically smallest permutation.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != psi.shape or phi.ndim != 2:
        raise ValueError(f"inputs must share shape (N, d), got {phi.shape} and {psi.shape}")
    return hungarian(squared_distance_matrix(phi, psi))


def is_cyclically_monotone(pairs) -> tuple[bool, Array | None]:
    """Whether the identity pairing maximizes the total inner product.

    ``pairs`` is a sequence of ``(x_i, y_i)`` vectors.  A subset permutation
    always extends to a full permutation by fixing the remaining indices, so
    checking a single N x N assignment over all pairs decides monotonicity of
    the whole set.  When the answer is no, a permutation beating the identity
    is returned as witness.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must be nonempty")
    xs = np.asarray([np.asarray(p[0], dtype=float) for p in pairs])
    ys = np.asarray([np.asarray(p[1], dtype=float) for p in pairs])
    if xs.ndim != 2 or xs.shape != ys.shape:
        raise ValueError("pairs must hold vectors of one common dimension")
    gains = xs @ ys.T
    identity_value = float(np.trace(gains))
    sigma = hungarian(-gains)
    best_value = float(gains[np.arange(len(pairs)), sigma].sum())
    tol = 1e-9 * (1.0 + abs(identity_value) + abs(best_value))
    if best_value > identity_value + tol:
        return False, sigma
    return True, None
